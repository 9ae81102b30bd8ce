"""The paper's contribution: prioritized error-correcting disassembly."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("ABLATION_CONFIGS", "DEFAULT_CONFIG", "DisassemblerConfig"),
    "correction": ("CorrectionEngine", "TraceOutcome"),
    "disassembler": ("Disassembler", "Disassembly"),
    "engine": ("FactBase", "FactEngine", "create_engine",
               "disassemble_incremental", "engine_backend"),
    "evidence": ("Classification", "ClassificationState", "Evidence",
                 "Priority"),
    "functions": ("FunctionSpan", "identify_functions"),
})
