"""Statistical code/data models: n-gram LM, data model, detectors."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "datamodel": ("AsciiRun", "DataByteModel", "TableCandidate",
                  "find_ascii_runs", "find_jump_tables", "find_padding_runs"),
    "ngram": ("NgramModel", "token_of"),
    "scoring": ("StatisticalScorer", "UNDECODABLE_SCORE"),
    "training": ("Models", "TRAINING_SEEDS", "data_regions",
                 "default_models", "token_sequences", "train_models"),
})
