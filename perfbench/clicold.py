"""cli-cold: sequential fresh ``python -m repro disasm --json`` processes.

Each operation is a new interpreter on a small ELF file, so import,
model load and container parsing dominate.  Every stdout is compared
with the in-process result for the same file, and those results are
scored against ground truth.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import inputs
from checks import parse_result
from outcome import Outcome, counter_layers, pipeline_layers
from tracing import INSTALL_FAILED

#: Per-process latency limit for goodput, reference ms.
CLI_LIMIT_MS = 5_000.0
#: Passes over the file list every run makes at least.
CLI_MIN_PASSES = 2
#: A CLI process running longer than this is killed and counted failed.
CLI_TIMEOUT_S = 60.0
#: What every CLI process pays before it can do work: import and models.
_SETUP_CODE = ("import repro.cli\n"
               "from repro.stats.training import default_models\n"
               "default_models()\n"
               "print('ready', flush=True)\n")


def _timed(argv: list[str], stdout_path: Path, stderr_path: Path
           ) -> tuple[float, int, float]:
    """Run a process to completion: (seconds, exit status, peak RSS MB)."""
    with stdout_path.open("wb") as out, stderr_path.open("ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=common.ROOT,
                                env=common.program_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _setup_probe(run_dir: Path) -> float:
    """Spawn-to-ready time of one fresh interpreter (import + models)."""
    child = common.Child([sys.executable, "-c", _SETUP_CODE],
                         common.program_env(), run_dir / "setup.stderr")
    started = time.perf_counter()
    try:
        child.proc.stdout.readline()
        return time.perf_counter() - started
    finally:
        child.close()


def cli_cold(run_dir: Path, seed: int, seconds: float, traced: bool,
             probes: int) -> Outcome:
    from repro import Disassembler
    from repro.binary.container import Binary
    from repro.formats import load_any
    from repro.formats.emit_elf import emit_elf

    cases = inputs.cli_cold(seed)
    outcome = Outcome("cli-cold", latency_limit_ms=CLI_LIMIT_MS,
                      planned_ops=CLI_MIN_PASSES * len(cases))
    files = []
    expected = {}
    disassembler = Disassembler()
    run_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        elf = emit_elf(Binary.from_bytes(case.blob))
        path = run_dir / (case.name + ".elf")
        path.write_bytes(elf)
        reference = disassembler.disassemble(load_any(elf).binary)
        expected[path.name] = reference.to_json()
        outcome.accuracy.add(reference, case.truth)
        files.append((path, case.text_len / 1024))
    outcome.details["inputs_sha256"] = common.digest(
        [p.read_bytes() for p, _ in files])

    for _ in range(probes):
        outcome.add_setup(_setup_probe(run_dir))
    order = list(range(len(files)))
    random.Random(f"cli-cold-order:{seed}").shuffle(order)
    rss, spans = [], []
    started = loop_started = time.perf_counter()
    step = 0
    # Whole passes over the file list keep every run's mix equal.
    while (step % len(order) or step < outcome.planned_ops
           or time.perf_counter() - started < seconds):
        path, kb = files[order[step % len(order)]]
        step += 1
        span_path = run_dir / f"spans-{step}.json"
        argv = ([sys.executable, str(common.ROOT / "perfbench"
                                     / "cli_traced.py"), str(span_path)]
                if traced else [sys.executable, "-m", "repro"])
        argv += ["disasm", "--json", str(path)]
        stdout_path = run_dir / "stdout.json"
        elapsed, status, peak = _timed(argv, stdout_path,
                                       run_dir / "cli.stderr")
        ended = time.perf_counter()
        outcome.host.sample(elapsed)
        # The kernel runs between processes; it is not part of the run.
        started += time.perf_counter() - ended
        if traced and status == INSTALL_FAILED:
            raise common.ChildError("traced CLI could not install its "
                                    "span wrappers (see cli.stderr)")
        outcome.attempted += 1
        if status != 0:
            outcome.fail(f"{path.name}: exit status {status}",
                         wrong_output=False)
            continue
        payload = stdout_path.read_text().strip()
        if parse_result(payload) is None or payload != expected[path.name]:
            outcome.fail(f"{path.name}: output differs from the in-process "
                         f"result", wrong_output=True)
            continue
        outcome.add_latency(elapsed * 1e3, ended - elapsed, ended)
        outcome.kb_done += kb
        rss.append(peak)
        if traced:
            spans.append((kb, json.loads(span_path.read_text())))
    outcome.wall_s = time.perf_counter() - started
    outcome.timed_span = (loop_started, time.perf_counter())
    outcome.peak_rss_mb = statistics.median(rss) if rss else 0.0
    if traced and spans:
        outcome.layers = _layers(spans)
    return outcome


def _layers(spans: list[tuple[float, dict]]) -> dict[str, float]:
    """Per-process medians of the CLI spans; pipeline layers per KB."""
    def median_ms(name: str) -> float:
        return statistics.median(
            trace["layers"].get(name, {}).get("total_s", 0.0) * 1e3
            for _, trace in spans)

    kb = sum(k for k, _ in spans)
    pooled: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for _, trace in spans:
        for name, entry in trace["layers"].items():
            slot = pooled.setdefault(name, {"self_s": 0.0})
            slot["self_s"] += entry["self_s"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    out = pipeline_layers(pooled, kb)
    out.update(counter_layers(counters, kb, len(spans)))
    out.update({"cli.import_ms": median_ms("cli.import"),
                "cli.render_ms": median_ms("cli.render"),
                "formats.load_ms": median_ms("formats.load"),
                "stats.model_load_ms": median_ms("stats.model_load")})
    return out
