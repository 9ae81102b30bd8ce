"""Real-binary ingestion: stdlib-only ELF64/PE32+ loaders and emitter.

The reproduction's native ``RPRB`` container deliberately contains
nothing but sections and an entry point.  This package maps *real*
containers -- stripped ELF64 executables and PE32+ DLLs -- onto that
same model, so the whole stack (disassembler, linter, serving API,
evaluation) ingests them transparently:

>>> from repro.formats import load_any
>>> image = load_any(open("a.out", "rb").read())        # doctest: +SKIP
>>> result = Disassembler().disassemble(image.binary)   # doctest: +SKIP

Residual compiler metadata a real container carries (PE exception
directories, ELF dynamic entries) is surfaced as a separate
:class:`FormatHints` object and is never consulted by the
disassembler -- the paper's metadata-free contract stays explicit.
:func:`emit_elf` writes any ``Binary`` back out as a well-formed
``ET_EXEC`` ELF for round-trip testing (experiment R1).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "detect": ("FORMAT_NAMES", "SIGNATURES", "detect_format", "load_any"),
    "elf": ("parse_elf",),
    "emit_elf": ("emit_elf",),
    "errors": ("FormatError",),
    "hints": ("NO_HINTS", "FormatHints", "LoadedImage"),
    "pe": ("parse_pe",),
})
