"""Behavioral static analyses over superset candidates."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "behavior": ("DEFAULT_WEIGHTS", "BehaviorAnalyzer", "BehaviorReport",
                 "BehaviorWeights"),
    "cfg": ("BasicBlock", "ControlFlowGraph", "build_cfg"),
    "defuse": ("CONVENTIONALLY_LIVE", "DefUseSignals", "analyze_chain"),
    "idioms": ("PROLOGUE_THRESHOLD", "is_epilogue_end",
               "likely_function_starts", "padding_kind", "prologue_score"),
})
