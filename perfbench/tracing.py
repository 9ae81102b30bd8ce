"""Benchmark-owned spans around each layer's public entry point.

Only the traced pass (``--trace 1``) calls :func:`install`; the
untraced pass never imports a wrapper, so the end-to-end numbers come
from the unmodified program.  A span records its name, start, end (on
the thread's CPU clock, so the host-speed kernel that shares the CPU is
not charged to a layer), parent and the id of the operation (request)
it belongs to.  Spans
stay in memory, are written as JSONL when the process ends, and are
reduced to per-layer self time and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, span name).  Module attributes are patched
#: where the pipeline looks them up (``repro.core.disassembler`` imports
#: its helpers by name); methods are patched on their class.
PIPELINE_LAYERS = (
    ("repro.core.disassembler", "Disassembler.disassemble_rich",
     "disassemble"),
    ("repro.core.disassembler", "default_models", "stats.model_load"),
    ("repro.core.disassembler", "cached_superset", "superset"),
    ("repro.core.engine.incremental", "_patch_superset", "superset"),
    ("repro.analysis.behavior", "BehaviorAnalyzer.score_all",
     "analysis.behavior"),
    ("repro.analysis.behavior", "BehaviorAnalyzer.rescore",
     "analysis.behavior"),
    ("repro.core.disassembler", "likely_function_starts",
     "analysis.idioms"),
    ("repro.core.engine.incremental", "_patch_prologues",
     "analysis.idioms"),
    ("repro.stats.scoring", "StatisticalScorer.score_all", "stats.scoring"),
    ("repro.stats.scoring", "StatisticalScorer.rescore", "stats.scoring"),
    ("repro.core.disassembler", "find_jump_tables", "stats.tables"),
    ("repro.core.engine.driver", "FactEngine.ingest", "core.engine.ingest"),
    ("repro.core.engine.driver", "FactEngine.solve", "core.engine.solve"),
    ("repro.core.engine.driver", "FactEngine.finish", "core.engine.finish"),
    ("repro.core.correction", "CorrectionEngine.ingest",
     "core.engine.ingest"),
    ("repro.core.correction", "CorrectionEngine.solve", "core.engine.solve"),
    ("repro.core.correction", "CorrectionEngine.finish",
     "core.engine.finish"),
    ("repro.core.disassembler", "identify_functions", "core.functions"),
)

#: Extra layers of the CLI process (``repro disasm --json``).
CLI_LAYERS = (
    ("repro.cli", "load_any", "formats.load"),
    ("repro.result", "DisassemblyResult.to_json", "cli.render"),
)


#: Exit status of a traced stand-in whose wrappers could not be installed.
INSTALL_FAILED = 70


#: Counters of the program's own metrics registry read by traced passes.
COUNTERS = ("repro_superset_decoded_offsets_total",
            "repro_decode_errors_total", "repro_superset_cache_total",
            "repro_traces_total", "repro_bytes_reclassified_total")


def read_counters() -> dict[str, float]:
    """Current totals of :data:`COUNTERS` (plus superset cache hits)."""
    from repro.obs.metrics import REGISTRY

    values = {name: REGISTRY.get(name).total() for name in COUNTERS
              if REGISTRY.get(name) is not None}
    cache = REGISTRY.get("repro_superset_cache_total")
    if cache is not None:
        values["superset_cache_hit"] = cache.value(outcome="hit")
    return values


def counter_delta(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


class Recorder:
    """In-memory span store with a single-threaded parent stack."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.thread_time(), 0.0, parent,
                           self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.thread_time()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form, for the benchmark's own call sites."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # ------------------------------------------------------------------

    def install(self, layers) -> None:
        """Replace each layer entry point with a span-recording wrapper.

        An entry point that cannot be found raises :class:`LookupError`:
        a missing wrapper would read as a layer taking no time, its time
        silently moved into its parent's self time.
        """
        for module_name, path, name in layers:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                raise LookupError(f"layer {name!r}: no entry point "
                                  f"{module_name}.{path}")
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in microseconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for index, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent if parent >= 0 else None,
                    "request": request}) + "\n")

    def reduce(self, since: int = 0, until: int | None = None
               ) -> dict[str, dict]:
        """Per span name over ``spans[since:until]``: self time, total, count.

        Self time is a span's duration minus the time its direct
        children cover, so the self times of one tree add up to the
        duration of its root.
        """
        window = self.spans[since:until]
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in window:
            if parent >= since:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
        for index, (name, start, end, _, _) in enumerate(window, since):
            entry = out[name]
            entry["self_s"] += (end - start) - child_time[index]
            entry["total_s"] += end - start
            entry["count"] += 1
        return dict(out)

    def durations(self, name: str, since: int = 0,
                  until: int | None = None) -> list[float]:
        return [end - start for n, start, end, _, _
                in self.spans[since:until] if n == name]
