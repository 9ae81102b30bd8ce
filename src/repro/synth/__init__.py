"""Synthetic compiler: generates stripped binaries with exact ground truth."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codegen": ("FunctionGenerator", "RodataAllocator"),
    "corpus": ("BinarySpec", "density_style", "generate_binary",
               "generate_corpus"),
    "styles": ("CLANG_LIKE", "GCC_LIKE", "MSVC_LIKE", "STYLES",
               "CompilerStyle", "style_by_name"),
    "tracking": ("TrackedAssembler",),
})
