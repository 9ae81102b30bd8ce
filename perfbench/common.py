"""Shared plumbing of the repo benchmark: paths, environment, statistics.

Everything here is benchmark-owned.  The program under test is the
``repro`` package under ``src/``; the benchmark only generates inputs,
launches the program, times it, and checks what comes back.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Repository checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Benchmark-owned scratch area inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"
#: The model cache the benchmark owns and pre-warms (``REPRO_CACHE_DIR``).
MODEL_CACHE = WORK / "model-cache"

#: Variables that would change what the untraced pass measures.
UNSET_FOR_RUNS = ("REPRO_TRACE", "REPRO_PROFILE", "REPRO_NO_MODEL_CACHE")
#: Backend selectors recorded with every result (unset = default).
BACKEND_VARS = ("REPRO_DECODER", "REPRO_ENGINE")


def program_env(**extra: str) -> dict[str, str]:
    """Environment for every process that runs the program under test.

    Tracing and profiling are unset, the model cache is the benchmark's
    own warm directory, hash randomisation is pinned, and native thread
    pools are held to one thread so no workload uses more than ``nproc``
    threads.
    """
    env = {k: v for k, v in os.environ.items() if k not in UNSET_FOR_RUNS}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(MODEL_CACHE)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(extra)
    return env


def use_program_env() -> None:
    """Apply :func:`program_env` to this process (before importing repro)."""
    for key in UNSET_FOR_RUNS:
        os.environ.pop(key, None)
    os.environ.update(program_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The host-speed kernel (:mod:`hostspeed`) only tracks the program's
    speed when both run on the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    """The pinned environment, recorded in every result."""
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **{var: os.environ.get(var, "") for var in BACKEND_VARS},
        "REPRO_CACHE_DIR": str(MODEL_CACHE.relative_to(ROOT)),
        "PYTHONHASHSEED": "0",
    }


def digest(chunks) -> str:
    """sha256 over a sequence of byte strings, length-prefixed."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_GRID = (99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(planned: int) -> float:
    """The tail percentile for a run planned to take ``planned`` samples.

    The highest grid percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, or 100 (the maximum) when even the median has fewer.  It is
    fixed by the planned count, not the achieved one, so a faster or
    slower run reports the same percentile.
    """
    for pct in TAIL_GRID:
        if planned * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 100.0


def latency_summary(samples_ms: list[float], planned: int) -> dict:
    """Median, tail, and the sample counts behind them."""
    pct = tail_percentile(planned)
    value = percentile(samples_ms, pct)
    return {"p50_ms": statistics.median(samples_ms),
            "tail_ms": value, "tail_percentile": pct,
            "samples": len(samples_ms),
            "samples_beyond_tail": sum(1 for v in samples_ms if v > value)}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(line: dict) -> None:
    """Write one JSON line to stdout and flush (worker protocol)."""
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, MB (Linux ``ru_maxrss`` is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process from ``/proc``, MB (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (from ``/proc/<pid>/task/*/children``)."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children.extend(int(c) for c in
                            (task / "children").read_text().split())
        except OSError:
            continue
    return children


# ----------------------------------------------------------------------
# Child processes speaking the JSON-lines worker protocol
# ----------------------------------------------------------------------

class ChildError(RuntimeError):
    """A child process died, timed out, or broke the protocol."""


class InvalidRun(RuntimeError):
    """The run cannot stand for the workload (e.g. the load generator lagged)."""


class Child:
    """A subprocess whose stdout carries one JSON event per line."""

    def __init__(self, argv: list[str], env: dict[str, str],
                 stderr_path: Path) -> None:
        self._stderr = stderr_path.open("ab")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, bufsize=0)
        self._buffer = b""

    def event(self, timeout: float) -> dict:
        """The next JSON line on stdout, within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"no event within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ChildError(
                    f"child exited ({self.proc.wait()}) before replying")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def readable(self, timeout: float) -> bool:
        """Whether output is waiting, after up to ``timeout`` seconds."""
        if b"\n" in self._buffer:
            return True
        ready, _, _ = select.select([self.proc.stdout.fileno()], [], [],
                                    timeout)
        return bool(ready)

    def send(self, command: dict) -> None:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()

    def close(self, timeout: float = 10.0) -> None:
        """Wait for exit (killing after ``timeout``) and release pipes."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
