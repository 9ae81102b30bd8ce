"""Baseline disassembly algorithms the paper compares against."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "heuristic": ("heuristic_descent",),
    "linear": ("linear_sweep",),
    "oracle": ("oracle",),
    "probabilistic": ("probabilistic_disassembly",),
    "recursive": ("recursive_descent",),
})
