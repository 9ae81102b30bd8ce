"""batch-cold and near-hit: the pipeline driven in-process by a worker.

The worker (:mod:`worker`) is a fresh interpreter that receives only
the generated input files.  Set-up time runs from its spawn to its
``ready`` line; it is taken ``probes`` times per run (the last probe
goes on to do the work) and reported as the median.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

import common
import inputs
from checks import Accuracy, parse_result
from outcome import Outcome, counter_layers, pipeline_layers

#: Per-operation latency limits for goodput, reference ms.
BATCH_LIMIT_MS = 30_000.0
NEAR_LIMIT_MS = 2_000.0
#: near-hit: passes over the patch list every run makes at least.
NEAR_MIN_PASSES = 6
#: Seconds any single worker event may take before the run fails.
EVENT_TIMEOUT = 150.0


def _spawn(run_dir: Path, workload: str, traced: bool) -> tuple[common.Child,
                                                                 float]:
    """Start a worker and wait for ``ready``; returns it and set-up time."""
    started = time.perf_counter()
    child = common.Child([sys.executable, str(common.ROOT / "perfbench"
                                              / "worker.py"),
                          str(run_dir), workload, "1" if traced else "0"],
                         common.program_env(), run_dir / "worker.stderr")
    try:
        event = child.event(EVENT_TIMEOUT)
    except common.ChildError:
        child.close()
        raise
    if event.get("event") != "ready":
        child.close()
        raise common.ChildError(f"unexpected worker event {event}")
    return child, time.perf_counter() - started


def _setup(run_dir: Path, workload: str, traced: bool, probes: int,
           outcome: Outcome) -> common.Child:
    """Run ``probes`` set-ups; keep the last worker alive for the work."""
    for probe in range(probes):
        child, seconds = _spawn(run_dir, workload, traced)
        outcome.add_setup(seconds)
        if probe < probes - 1:
            child.send({"cmd": "exit"})
            child.close()
    return child


def _timed(child: common.Child, outcome: Outcome) -> dict:
    """The worker's event that ends its timed work.

    Meanwhile the host-speed kernel runs here, on the worker's CPU.
    """
    try:
        outcome.host.tick_until(child.readable, EVENT_TIMEOUT)
    except TimeoutError as error:
        raise common.ChildError(str(error)) from None
    return child.event(EVENT_TIMEOUT)


def _write(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


# ----------------------------------------------------------------------
# batch-cold
# ----------------------------------------------------------------------

def batch_cold(run_dir: Path, seed: int, seconds: float, traced: bool,
               probes: int) -> Outcome:
    """Every binary is new: superset, scoring and correction do full work.

    One fixed batch of twelve binaries (three styles at 10, 30, 30 and
    80 KB), each disassembled once, whatever ``seconds`` is: the work, and so every
    statistic over it, is the same on a fast or a slow program.  Every
    result is checked against its ground truth.
    """
    _write(run_dir / "warmup.bin", inputs.warmup_case().blob)
    cases = inputs.batch_cold(seed)
    batch_dir = run_dir / "batch"
    truths = {}
    for index, case in enumerate(cases):
        name = f"{index:02d}-{case.name}.bin"
        _write(batch_dir / name, case.blob)
        truths[name] = case.truth
    outcome = Outcome("batch-cold", latency_limit_ms=BATCH_LIMIT_MS,
                      planned_ops=len(cases))
    outcome.details["inputs_sha256"] = common.digest(
        [case.blob for case in cases])
    child = _setup(run_dir, "batch-cold", traced, probes, outcome)
    try:
        child.send({"cmd": "batch", "dir": str(batch_dir)})
        outcome.wall_s = _timed(child, outcome)["busy_s"]
        child.send({"cmd": "stop"})
        report = child.event(EVENT_TIMEOUT)
    finally:
        child.close()
    wrong: dict[str, str] = {}
    for name, truth in truths.items():
        _score(batch_dir / "results", name, truth, outcome.accuracy, wrong)
    _account_ops(report["ops"], outcome, wrong)
    outcome.peak_rss_mb = report["peak_rss_mb"]
    if traced:
        outcome.layers = _layers(report["trace"], outcome.kb_done,
                                 len(report["ops"]))
    return outcome


def _score(results_dir: Path, name: str, truth, accuracy: Accuracy,
           wrong: dict[str, str]) -> None:
    """Score one written result; a missing or malformed one is wrong."""
    path = results_dir / (name + ".json")
    result = parse_result(path.read_text()) if path.exists() else None
    if result is None:
        wrong[name] = "missing or malformed result"
    else:
        accuracy.add(result, truth)


def _account_ops(ops: list[dict], outcome: Outcome,
                 wrong: dict[str, str]) -> None:
    """Attempted/failed counts, latencies, KB done and the timed span.

    ``wrong`` maps an input name to why its output failed a check;
    every operation on that input counts as failed.
    """
    if ops:
        outcome.timed_span = (ops[0]["start"], ops[-1]["end"])
    for op in ops:
        outcome.attempted += 1
        if op["error"]:
            outcome.fail(f"{op['name']}: {op['error']}", wrong_output=False)
        elif op["name"] in wrong:
            outcome.fail(f"{op['name']}: {wrong[op['name']]}",
                         wrong_output=True)
        else:
            outcome.add_latency(op["ms"], op["start"], op["end"])
            outcome.kb_done += op["kb"]


def _layers(trace: dict, kb: float, ops: int) -> dict[str, float]:
    layers = pipeline_layers(trace["layers"], kb)
    layers.update(counter_layers(trace["counters"], kb, ops))
    layers["stats.model_load_ms"] = trace["model_load_ms"]
    if trace["incremental"]:
        layers["core.incremental.ms"] = statistics.median(
            trace["incremental_ms"])
        layers["core.incremental.reused_fraction"] = statistics.mean(
            s["reused_fraction"] for s in trace["incremental"])
        layers["core.incremental.cold_fallbacks"] = sum(
            s["cold"] for s in trace["incremental"])
    return layers


# ----------------------------------------------------------------------
# near-hit
# ----------------------------------------------------------------------

def near_hit(run_dir: Path, seed: int, seconds: float, traced: bool,
             probes: int) -> Outcome:
    """Incremental re-disassembly of small patches to medium binaries.

    Set-up also builds one ``FactBase`` per base.  The timed loop cycles the
    patches in a seeded order, in whole passes, at least
    :data:`NEAR_MIN_PASSES` passes and ``seconds`` long; every
    incremental result must equal a
    cold disassembly of the same patched bytes (run by the worker after
    the timed loop), and each distinct patch is scored against its
    exact ground truth.
    """
    bases, patches = inputs.near_hit(seed)
    outcome = Outcome("near-hit", latency_limit_ms=NEAR_LIMIT_MS,
                      planned_ops=NEAR_MIN_PASSES * len(patches))
    _write(run_dir / "warmup.bin", inputs.warmup_case().blob)
    for base in bases:
        _write(run_dir / "bases" / (base.name + ".bin"), base.blob)
    for patch in patches:
        _write(run_dir / "patches" / (patch.name + ".bin"), patch.blob)
    order = list(range(len(patches)))
    random.Random(f"near-hit-order:{seed}").shuffle(order)
    (run_dir / "near.json").write_text(json.dumps({
        "bases": [base.name + ".bin" for base in bases],
        "patches": [{"name": patch.name + ".bin", "base": patch.base}
                    for patch in patches],
        "order": order}))
    outcome.details["inputs_sha256"] = common.digest(
        [b.blob for b in bases] + [p.blob for p in patches])
    outcome.details["patches"] = [p.name for p in patches]

    child = _setup(run_dir, "near-hit", traced, probes, outcome)
    try:
        # Building the fact bases is set-up too.  It is timed once, on
        # the worker that goes on to do the work, and added to each
        # probe's spawn-to-ready time.
        started = time.perf_counter()
        child.send({"cmd": "bases"})
        child.event(EVENT_TIMEOUT)
        bases_s = time.perf_counter() - started
        reference_bases_s = bases_s / outcome.host.sample(bases_s)
        outcome.details["factbase_build_s"] = bases_s
        outcome.setup_s = [s + reference_bases_s for s in outcome.setup_s]
        outcome.setup_wall_s = [s + bases_s for s in outcome.setup_wall_s]
        child.send({"cmd": "loop", "seconds": seconds,
                    "passes": NEAR_MIN_PASSES})
        _timed(child, outcome)
        done = child.event(EVENT_TIMEOUT)
        child.send({"cmd": "stop"})
        report = child.event(EVENT_TIMEOUT)
    finally:
        child.close()
    outcome.wall_s = done["busy_s"]
    wrong = {name: "incremental result differs from a cold run"
             for name in done["mismatched"]}
    for patch in patches:
        _score(run_dir / "results", patch.name + ".bin", patch.truth,
               outcome.accuracy, wrong)
    _account_ops(report["ops"], outcome, wrong)
    outcome.details["cold_fallbacks"] = sum(
        op.get("cold_fallback", False) for op in report["ops"])
    outcome.peak_rss_mb = report["peak_rss_mb"]
    if traced:
        outcome.layers = _layers(report["trace"], outcome.kb_done,
                                 len(report["ops"]))
    return outcome
