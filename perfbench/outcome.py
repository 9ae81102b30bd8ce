"""What one workload run measured, and its conversion to metrics."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

from checks import Accuracy
from common import ROOT, latency_summary, metric
from hostspeed import HostSpeed


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


#: End-to-end and per-layer metric units, in declaration order.
UNITS = _units("end_to_end")
LAYER_UNITS = _units("per_layer")

#: Span name -> per-layer metric normalised per KB of text.
SPAN_PER_KB = {
    "superset": "superset.build_ms_per_kb",
    "analysis.behavior": "analysis.behavior_ms_per_kb",
    "analysis.idioms": "analysis.idioms_ms_per_kb",
    "stats.scoring": "stats.scoring_ms_per_kb",
    "stats.tables": "stats.tables_ms_per_kb",
    "core.engine.ingest": "core.engine.ingest_ms_per_kb",
    "core.engine.solve": "core.engine.solve_ms_per_kb",
    "core.engine.finish": "core.engine.finish_ms_per_kb",
    "core.functions": "core.functions.ms_per_kb",
}


def pipeline_layers(layers: dict, kb: float) -> dict[str, float]:
    """Per-KB self times from reduced spans, plus the root's remainder.

    The pipeline root is ``disassemble`` (cold runs) or
    ``core.incremental`` (near-hit); its self time is what no wrapped
    layer covers: ``combine_scores``, table validation, result building.
    A layer with no span in the window is left out, so it is listed as
    not measured instead of reading 0.
    """
    out = {metric_name: layers[span]["self_s"] * 1e3 / kb
           for span, metric_name in SPAN_PER_KB.items() if span in layers}
    other = sum(layers.get(root, {}).get("self_s", 0.0)
                for root in ("disassemble", "core.incremental"))
    out["disassemble.other_ms_per_kb"] = other * 1e3 / kb
    return out


def counter_layers(counters: dict[str, float], kb: float,
                   ops: int) -> dict[str, float]:
    """Per-layer numbers from deltas of the program's own counters.

    Superset counters only move when a superset is built (a cache miss),
    so ``superset.valid_ratio`` covers fresh builds only; a workload that
    builds none (near-hit patches its supersets) leaves them unmeasured.
    """
    out = {"core.engine.traces":
           counters.get("repro_traces_total", 0.0) / ops,
           "core.engine.reclassified_bytes":
           counters.get("repro_bytes_reclassified_total", 0.0) / ops}
    lookups = counters.get("repro_superset_cache_total", 0.0)
    if lookups:
        out["superset.cache_hit_ratio"] = \
            counters.get("superset_cache_hit", 0.0) / lookups
    decoded = counters.get("repro_superset_decoded_offsets_total", 0.0)
    if decoded:
        out["superset.decoded_offsets_per_kb"] = decoded / kb
        out["superset.valid_ratio"] = 1.0 - counters.get(
            "repro_decode_errors_total", 0.0) / decoded
    return out


@dataclass
class Outcome:
    """Raw measurements of one workload run.

    Times are recorded as measured and divided by the host factor
    (:mod:`hostspeed`) around them: set-ups as they are taken, operations
    and the timed region when converted to metrics.
    """

    workload: str
    #: Set-up times in reference seconds, and as measured.
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: Measured time of every operation that succeeded and was correct,
    #: and the ``perf_counter`` readings when it started and ended.
    latencies_ms: list[float] = field(default_factory=list)
    latency_spans: list[tuple[float, float]] = field(default_factory=list)
    kb_done: float = 0.0
    #: The timed region's length as measured, and when it ran.
    wall_s: float = 0.0
    timed_span: tuple[float, float] = (0.0, 0.0)
    #: True when ``wall_s`` is fixed by an arrival schedule (serve-open),
    #: so host speed does not scale it.
    wall_is_schedule: bool = False
    #: Goodput counts correct operations within this limit (reference ms).
    latency_limit_ms: float = 0.0
    #: Operations the run always makes; fixes the tail percentile.
    planned_ops: int = 1
    accuracy: Accuracy = field(default_factory=Accuracy)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons for every wrong output (empty = correct).
    mismatches: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    def add_setup(self, seconds: float) -> None:
        """One set-up taken; the host-speed kernel runs right after it."""
        self.setup_wall_s.append(seconds)
        self.setup_s.append(seconds / self.host.sample(seconds))

    def add_latency(self, ms: float, start: float, end: float) -> None:
        self.latencies_ms.append(ms)
        self.latency_spans.append((start, end))

    def reference_latencies(self) -> list[float]:
        """Operation times in reference ms, each by the host around it."""
        return [ms / self.host.factor_around(*span)
                for ms, span in zip(self.latencies_ms, self.latency_spans)]

    def fail(self, reason: str, *, wrong_output: bool) -> None:
        self.failed += 1
        if wrong_output:
            self.mismatches.append(reason)
        else:
            self.details.setdefault("failures", []).append(reason)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def timed_factor(self) -> float:
        """The host factor over the timed region (serve-open: the run)."""
        if self.wall_is_schedule:
            return self.host.factor()
        return self.host.factor_around(*self.timed_span)

    def timed_wall_s(self) -> float:
        """The timed region in reference seconds."""
        if self.wall_is_schedule:
            return self.wall_s
        return self.wall_s / self.timed_factor()

    def end_to_end(self) -> dict[str, dict]:
        latencies = self.reference_latencies()
        latency = latency_summary(latencies, self.planned_ops) \
            if latencies \
            else {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0,
                  "samples": 0, "samples_beyond_tail": 0}
        good = sum(ms <= self.latency_limit_ms for ms in latencies)
        self.details["latency"] = latency
        self.details["latency_limit_ms"] = self.latency_limit_ms
        self.details["setup_samples_s"] = self.setup_s
        self.details["host"] = self.host.summary()
        self.details["measured"] = {
            "setup_s": statistics.median(self.setup_wall_s),
            "latency_ms_p50": statistics.median(self.latencies_ms)
            if self.latencies_ms else 0.0,
            "timed_s": self.wall_s}
        self.details["accuracy"] = {
            "scored_binaries": self.accuracy.scored,
            "error_bytes": self.accuracy.error_bytes}
        wall = self.timed_wall_s()
        values = {
            "setup_s": statistics.median(self.setup_s),
            "latency_ms_p50": latency["p50_ms"],
            "latency_ms_tail": latency["tail_ms"],
            "throughput_kb_s": self.kb_done / wall,
            "goodput_rps": good / wall,
            "byte_f1": self.accuracy.byte_f1,
            "function_f1": self.accuracy.function_f1,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: metric(values[name], UNITS[name]) for name in UNITS}

    def per_layer(self) -> dict[str, dict]:
        """Layer numbers; times (``ms``, ``ms/KB``) in reference ms."""
        missing = sorted(set(LAYER_UNITS) - set(self.layers))
        self.details["layers_not_measured"] = missing
        self.details["host"] = self.host.summary()
        factor = self.timed_factor()
        return {name: metric(self.layers.get(name, 0.0)
                             / (factor if unit.startswith("ms") else 1.0),
                             unit)
                for name, unit in LAYER_UNITS.items()}
