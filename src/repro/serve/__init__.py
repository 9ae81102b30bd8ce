"""Disassembly-as-a-service (``repro.serve``).

Turns the one-shot CLI stack into a long-lived service with warm
models, batching, caching, backpressure, and ops endpoints.  See
DESIGN.md ("Serving layer") for the architecture and README
("Serving") for endpoint shapes and the ops runbook.

>>> from repro.serve import ServeConfig, run_server
>>> run_server(ServeConfig(port=8080, workers=4))      # doctest: +SKIP
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "access_log": ("AccessLog",),
    "cache": ("ResultCache", "result_key"),
    "client": ("BackpressureError", "DeadlineError", "ServeClient",
               "ServeError", "TransportError"),
    "metrics": ("ServeMetrics",),
    "protocol": ("PROTOCOL_VERSION", "JobRequest", "ProtocolError",
                 "config_fingerprint", "config_from_overrides",
                 "encode_binary"),
    "scheduler": ("DrainingError", "JobCancelledError", "JobFailedError",
                  "JobScheduler", "JobTimeoutError", "QueueFullError",
                  "SchedulerConfig"),
    "server": ("ServeApp", "ServeConfig", "run_server"),
})
