"""Operational counters for the serving layer, exposed on ``/metrics``.

One :class:`~repro.obs.metrics.MetricsRegistry` per server holds every
serve-side family.  Requests, jobs, batches and the queue peak are
written into it when they happen; worker-side phase durations arrive
as :meth:`~repro.perf.PhaseTimings.as_dict` dumps attached to batch
results and are added per phase, so ``/metrics`` shows where worker
time actually goes (superset, scoring, correction, ...) using the same
instrumentation the offline CLI prints under ``--profile``.  Values
other objects own (queue depth, in-flight jobs, live workers, cache
entries) are read from their owner when ``/metrics`` is served.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from .cache import ResultCache
    from .scheduler import JobScheduler

#: Job outcomes, in the order the JSON ``jobs`` object lists them.
_JOB_OUTCOMES = ("submitted", "completed", "failed", "cancelled",
                 "timed_out", "rejected_queue_full")


class ServeMetrics:
    """All counters one serving process exports, in one registry."""

    def __init__(self) -> None:
        self.started = time.time()
        self.families = MetricsRegistry()
        counter = self.families.counter
        self.requests = counter("repro_serve_requests_total",
                                "HTTP requests served, by endpoint and "
                                "status")
        self.jobs = counter("repro_serve_jobs_total",
                            "Jobs by terminal outcome")
        self.batches = counter("repro_serve_batches_total",
                               "Micro-batches dispatched to workers")
        self.batched_jobs = counter("repro_serve_batched_jobs_total",
                                    "Jobs dispatched inside micro-batches")
        self.worker_phases = counter(
            "repro_serve_worker_phase_seconds_total",
            "Worker pipeline time, by phase")
        # Both views list ``total`` before the first batch arrives.
        self.worker_phases.inc(0.0, phase="total")
        self.cache_lookups = counter("repro_serve_cache_total",
                                     "Result-cache lookups, by outcome")
        self.request_seconds = self.families.histogram(
            "repro_serve_request_seconds", "Request wall time, by endpoint")
        self.job_seconds = self.families.histogram(
            "repro_serve_job_seconds",
            "Worker batch wall time per job in the batch")
        self.queue_peak = self.families.gauge(
            "repro_serve_queue_peak", "Highest observed queue depth")
        self.queue_peak.set(0)

    # ------------------------------------------------------------------

    def record_request(self, endpoint: str, status: int,
                       seconds: float) -> None:
        self.requests.inc(endpoint=endpoint, status=str(status))
        self.request_seconds.observe(seconds, endpoint=endpoint)

    def record_batch(self, size: int) -> None:
        self.batches.inc()
        self.batched_jobs.inc(size)

    def record_queue_depth(self, depth: int) -> None:
        if depth > self.queue_peak.value():
            self.queue_peak.set(depth)

    def record_worker_phases(self, phases: dict[str, float]) -> None:
        """Add one batch's ``PhaseTimings.as_dict()`` dump, ``total`` too."""
        for name, seconds in phases.items():
            self.worker_phases.inc(seconds, phase=name)

    # ------------------------------------------------------------------

    def snapshot(self, scheduler: JobScheduler,
                 cache: ResultCache) -> dict:
        """The JSON ``/metrics`` body: a read-only view of the registry."""
        batches = int(self.batches.value())
        batched_jobs = int(self.batched_jobs.value())
        latency = {}
        for labels in self.request_seconds.labels():
            count = self.request_seconds.count(**labels)
            total = self.request_seconds.sum(**labels)
            latency[labels["endpoint"]] = {
                "count": count, "total_s": round(total, 6),
                "mean_s": round(total / count, 6)}
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "requests": {
                f"{labels['endpoint']}:{labels['status']}":
                    int(self.requests.value(**labels))
                for labels in self.requests.labels()
            },
            "jobs": {outcome: int(self.jobs.value(outcome=outcome))
                     for outcome in _JOB_OUTCOMES},
            "batching": {
                "batches": batches,
                "batched_jobs": batched_jobs,
                "mean_batch_size": (round(batched_jobs / batches, 3)
                                    if batches else 0.0),
            },
            "queue": {
                "depth": scheduler.queue_depth(),
                "peak": int(self.queue_peak.value()),
                "in_flight": scheduler.in_flight,
            },
            "latency": latency,
            "worker_phases_s": {
                labels["phase"]: round(self.worker_phases.value(**labels), 6)
                for labels in self.worker_phases.labels()
            },
            "cache": cache.stats(),
        }

    def render_live(self, scheduler: JobScheduler,
                    cache: ResultCache) -> str:
        """Prometheus text of the registry, live gauges read just now."""
        gauge = self.families.gauge
        gauge("repro_serve_uptime_seconds",
              "Seconds since the server started").set(
            time.time() - self.started)
        gauge("repro_serve_queue_depth",
              "Jobs queued, not yet dispatched").set(
            scheduler.queue_depth())
        gauge("repro_serve_in_flight",
              "Jobs currently running on workers").set(scheduler.in_flight)
        gauge("repro_serve_workers_alive",
              "Live worker processes (dispatcher liveness in inline "
              "mode)").set(scheduler.workers_alive())
        gauge("repro_serve_cache_entries",
              "Result-cache entries resident").set(len(cache))
        return self.families.render_prometheus()
