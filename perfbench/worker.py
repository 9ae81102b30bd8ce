"""In-process worker for the batch-cold and near-hit workloads.

Run as ``python3 perfbench/worker.py <run-dir> <workload> <trace 0|1>``
by :mod:`run`.  It sets up (import, model load from the warm cache and
a warm-up disassembly), announces ``ready`` on stdout, then obeys JSON
commands on stdin:

* ``{"cmd": "bases"}`` -- near-hit set-up: build one ``FactBase`` per
  base binary;
* ``{"cmd": "batch", "dir": ...}`` -- disassemble every binary in that
  directory once, in file order (batch-cold);
* ``{"cmd": "loop", "seconds": s, "passes": n}`` -- run incremental
  near-hit re-disassemblies in whole passes over the patches, at least
  ``n`` passes and at least ``s`` seconds, announce ``timed``, then
  cold-check each distinct patch outside the timed region (near-hit);
* ``{"cmd": "stop"}`` -- report peak memory and per-layer numbers and
  exit;
* ``{"cmd": "exit"}`` -- exit right after set-up (set-up probes).

Each operation's result is written as JSON under the run directory and
its timing is reported on stdout; :mod:`run` does every check.  An
operation's time is the CPU time of this (single) thread: the
orchestrator runs its host-speed kernel (:mod:`hostspeed`) on the same
CPU while operations run, and that time is not the operation's.  Each
operation also reports when it started and ended, so the kernel samples
taken meanwhile can be matched to it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import common
from tracing import PIPELINE_LAYERS, Recorder, counter_delta, read_counters


class _Clock:
    """One operation's CPU time, and when (``perf_counter``) it ran."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.cpu = time.thread_time()

    def stop(self) -> dict:
        cpu = time.thread_time() - self.cpu
        return {"ms": cpu * 1e3, "start": self.start,
                "end": time.perf_counter()}


class Worker:
    """The program in one fresh interpreter, driven by stdin commands."""

    def __init__(self, run_dir: Path, workload: str, traced: bool) -> None:
        self.run_dir = run_dir
        self.workload = workload
        self.recorder = Recorder() if traced else None
        self.ops: list[dict] = []
        self.peak_rss_mb = 0.0
        self.incremental: list[dict] = []

    # ------------------------------------------------------------------

    def setup(self) -> None:
        if self.recorder is not None:
            self.recorder.install(PIPELINE_LAYERS)
        from repro import Disassembler
        from repro.binary.container import Binary

        self.Binary = Binary
        self.disassembler = Disassembler()
        warmup = (self.run_dir / "warmup.bin").read_bytes()
        self.disassembler.disassemble(Binary.from_bytes(warmup))
        if self.recorder is not None:
            self.setup_model_ms = sum(self.recorder.durations(
                "stats.model_load")) * 1e3
            self.span_start = len(self.recorder.spans)
            self.counters_start = read_counters()

    def build_bases(self) -> None:
        """near-hit set-up: one ``FactBase`` per base, patches loaded."""
        from repro.core.engine import FactBase

        meta = json.loads((self.run_dir / "near.json").read_text())
        self.bases = []
        for name in meta["bases"]:
            blob = (self.run_dir / "bases" / name).read_bytes()
            rich = self.disassembler.disassemble_rich(
                self.Binary.from_bytes(blob))
            self.bases.append(FactBase.from_run(rich,
                                                self.disassembler.config))
        self.patches = [
            (p["name"], p["base"],
             self.Binary.from_bytes((self.run_dir / "patches" / p["name"])
                                    .read_bytes()))
            for p in meta["patches"]]
        self.order = meta["order"]
        if self.recorder is not None:
            self.span_start = len(self.recorder.spans)
            self.counters_start = read_counters()

    def _timed_region_over(self) -> None:
        """Mark where the timed work ends (the traced pass reduces to here)."""
        self.peak_rss_mb = common.peak_rss_mb_self()
        if self.recorder is not None:
            self.span_end = len(self.recorder.spans)
            self.counters_end = read_counters()

    # ------------------------------------------------------------------

    def batch(self, directory: Path) -> dict:
        """Disassemble each binary of one batch once; time each call.

        Writing results is bookkeeping: its time is excluded from the
        time reported for throughput.
        """
        binaries = [(path.name, self.Binary.from_bytes(path.read_bytes()))
                    for path in sorted(directory.glob("*.bin"))]
        out_dir = directory / "results"
        out_dir.mkdir(exist_ok=True)
        busy = 0.0
        for name, binary in binaries:
            if self.recorder is not None:
                self.recorder.request = name
            clock = _Clock()
            try:
                rich = self.disassembler.disassemble_rich(binary)
                error = ""
            except Exception as exc:   # noqa: BLE001 -- counted as failed
                rich, error = None, f"{type(exc).__name__}: {exc}"
            op = clock.stop()
            busy += op["ms"] / 1e3
            if rich is not None:
                (out_dir / (name + ".json")).write_text(
                    rich.result.to_json())
            self.ops.append({"name": name, **op,
                             "kb": len(binary.text.data) / 1024,
                             "error": error})
        self._timed_region_over()
        return {"busy_s": busy}

    def loop(self, seconds: float, passes: int) -> dict:
        """Near-hit loop in whole passes, then the untimed cold checks."""
        from repro.core.engine import disassemble_incremental

        digests: dict[str, set[str]] = {}
        out_dir = self.run_dir / "results"
        out_dir.mkdir(exist_ok=True)
        busy = 0.0
        for position, step in enumerate(itertools.cycle(self.order)):
            # Whole passes over the patch list keep every run's mix equal.
            if (position % len(self.order) == 0 and busy >= seconds
                    and position >= passes * len(self.order)):
                break
            name, base, binary = self.patches[step]
            if self.recorder is not None:
                self.recorder.request = f"{name}#{len(self.ops)}"
                span = self.recorder.begin("core.incremental")
            clock = _Clock()
            try:
                rich, stats = disassemble_incremental(
                    self.disassembler, self.bases[base], binary)
                error = ""
            except Exception as exc:   # noqa: BLE001 -- counted as failed
                rich, stats = None, None
                error = f"{type(exc).__name__}: {exc}"
            op = clock.stop()
            busy += op["ms"] / 1e3
            if self.recorder is not None:
                self.recorder.end(span)
            if rich is not None:
                payload = rich.result.to_json()
                digests.setdefault(name, set()).add(
                    hashlib.sha256(payload.encode()).hexdigest())
                result_path = out_dir / (name + ".json")
                if not result_path.exists():
                    result_path.write_text(payload)
                if self.recorder is not None:
                    self.incremental.append(
                        {"reused_fraction": stats.reused_fraction,
                         "cold": stats.cold})
            self.ops.append({"name": name, **op,
                             "kb": len(binary.text.data) / 1024,
                             "error": error,
                             "cold_fallback": bool(stats and stats.cold)})
        self._timed_region_over()
        common.emit({"event": "timed"})
        # Cold references, outside the timed region: every incremental
        # result must equal a cold disassembly of the same patched bytes.
        cold = {}
        for name, _, binary in self.patches:
            payload = self.disassembler.disassemble_rich(binary) \
                .result.to_json()
            cold[name] = hashlib.sha256(payload.encode()).hexdigest()
        mismatched = sorted(name for name, seen in digests.items()
                            if seen != {cold[name]})
        return {"busy_s": busy, "mismatched": mismatched}

    # ------------------------------------------------------------------

    def report(self) -> dict:
        out = {"ops": self.ops, "peak_rss_mb": self.peak_rss_mb}
        if self.recorder is None:
            return out
        self.recorder.write(self.run_dir / "spans.jsonl")
        window = (self.span_start, self.span_end)
        out["trace"] = {
            "layers": self.recorder.reduce(*window),
            "counters": counter_delta(self.counters_start,
                                      self.counters_end),
            "model_load_ms": self.setup_model_ms,
            "incremental": self.incremental,
            "incremental_ms": [d * 1e3 for d in self.recorder.durations(
                "core.incremental", *window)],
        }
        return out


def main(argv: list[str]) -> int:
    run_dir, workload, traced = Path(argv[0]), argv[1], argv[2] == "1"
    common.use_program_env()
    worker = Worker(run_dir, workload, traced)
    worker.setup()
    common.emit({"event": "ready"})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "exit":
            return 0
        if command["cmd"] == "bases":
            worker.build_bases()
            common.emit({"event": "bases-done"})
        elif command["cmd"] == "batch":
            common.emit({"event": "batch-done",
                         **worker.batch(Path(command["dir"]))})
        elif command["cmd"] == "loop":
            common.emit({"event": "loop-done",
                         **worker.loop(command["seconds"],
                                       command["passes"])})
        elif command["cmd"] == "stop":
            common.emit({"event": "report", **worker.report()})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
