"""Superset disassembly and candidate conflict structure."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "conflicts": ("conflicting_offsets", "covering_candidates",
                  "no_overlap"),
    "superset": ("Superset",),
})
