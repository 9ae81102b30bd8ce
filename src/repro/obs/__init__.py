"""Unified observability: tracing, metrics, and decision provenance.

One coherent telemetry story for the whole stack, replacing the
previous per-layer ad-hoc instrumentation:

* :mod:`repro.obs.trace` -- hierarchical spans (trace-id / span-id /
  parent-id) threaded through the disassembler phases, correction
  passes, lint rules, the parallel-evaluation workers, and the serving
  request lifecycle; exported as JSONL (``repro-trace-v1``).
  Activated by ``--trace`` or the ``REPRO_TRACE`` environment
  variable; spans survive the process-pool boundary and re-parent
  under the coordinator's trace.
* :mod:`repro.obs.metrics` -- a central registry of counters, gauges
  and histograms with Prometheus text exposition, fed by the core
  pipeline (cache hits, traces attempted/refuted, bytes reclassified,
  decode errors) and the serving layer (queue depth, request
  latency).
* :mod:`repro.obs.provenance` -- an opt-in per-byte decision audit
  trail recorded during prioritized correction: for every
  classification flip, which pass, which evidence, which prior state.
  Surfaced as ``repro explain BINARY ADDR`` and consumed by the
  linter to enrich diagnostics with the causal chain.
* :mod:`repro.obs.profile` -- a low-overhead sampling profiler with
  phase self-time attribution and collapsed-stack (flamegraph) export
  (``repro-profile-v1``); activated by ``--sample-profile`` or the
  ``REPRO_PROFILE`` environment variable.
* :mod:`repro.obs.store` / :mod:`repro.obs.ingest` -- the append-only
  run-record store (sqlite, JSONL-interchangeable) that gives every
  measurement artifact -- fleet trends, benchmark envelopes, metrics
  snapshots, access-log summaries, trace rollups, profiles -- a
  longitudinal home keyed by ``(git_rev, run_id, kind)``.
* :mod:`repro.obs.report` / :mod:`repro.obs.slo` -- cross-revision
  regression trending (``repro obs diff`` / ``obs report``) and the
  declarative SLO gate (``repro obs gate``) that replaces per-benchmark
  threshold comparisons in CI.

Everything is stdlib-only and strictly observational: with tracing,
profiling and provenance disabled (the default), published tables,
serve responses and benchmark output are byte-identical to an
uninstrumented run.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("REGISTRY", "MetricsRegistry"),
    "profile": ("PROFILE_ENV", "SamplingProfiler", "profiling",
                "profiler_active", "samples_taken"),
    "provenance": ("DecisionEvent", "ProvenanceLog"),
    "store": ("RunRecord", "RunStore", "StoreError"),
    "trace": ("TRACE_ENV", "Span", "SpanContext", "Tracer", "activate",
              "current_tracer", "phase_span", "set_tracer",
              "tracing_active"),
})
