"""Evaluation harness: metrics, dataset, experiment runners."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dataset": ("EVAL_FUNCTIONS", "EVAL_SEEDS", "CaseCharacteristics",
                "characteristics", "evaluation_corpus"),
    "metrics": ("ByteErrors", "Evaluation", "PrecisionRecall", "aggregate",
                "evaluate"),
    "report": ("Table",),
})
