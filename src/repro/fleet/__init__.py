"""Corpus-scale oracle-free evaluation fleet (``repro evalfleet``).

Turns the per-binary lint / differential / ground-truth machinery into
continuous QA at corpus scale: a reproducible manifest of thousands of
binaries (:mod:`repro.fleet.manifest`), a fault-tolerant checkpointing
driver over worker pools or a live serve tier
(:mod:`repro.fleet.driver`), a per-binary analysis stage
(:mod:`repro.fleet.analysis`), a shared error taxonomy every signal
maps onto (:mod:`repro.fleet.taxonomy`), and an aggregator emitting a
deterministic trend document plus Prometheus-scrapeable ``fleet_*``
metrics and a regression gate (:mod:`repro.fleet.aggregate`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregate": ("TREND_SCHEMA", "aggregate", "check_separation",
                  "compare_trends", "load_trend", "publish_metrics",
                  "render_report", "trend_json", "write_trend"),
    "analysis": ("ALL_TOOLS", "BASELINES", "CORRECTED", "analyze_item"),
    "defaults": ("DEFAULT_SHARD_SIZE",),
    "driver": ("SHARD_SCHEMA", "FleetConfig", "load_run_reports",
               "run_fleet"),
    "manifest": ("MANIFEST_SCHEMA", "FleetItem", "Manifest",
                 "ingest_directory", "parse_seed_range", "plan_grid"),
    "taxonomy": ("ALL_CLASSES", "EXPECTED_SEPARATIONS", "LINT_RULE_TAXONOMY",
                 "ErrorClass", "taxonomy_of"),
})
