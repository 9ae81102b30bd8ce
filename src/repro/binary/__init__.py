"""Binary container, ground-truth labels, and paired I/O."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "container": ("Binary", "BinaryFormatError", "Section"),
    "groundtruth": ("ByteKind", "FunctionInfo", "GroundTruth"),
    "loader": ("TestCase",),
})
