"""The repo benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs the workload untraced and then traced, and
prints every per-layer metric plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the input digest and how each number was obtained.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run (for example without ``src/repro``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import sys
import time

import common

WORKLOADS = ("batch-cold", "near-hit", "cli-cold", "serve-open")
#: Fresh set-ups per untraced run; setup_s is their median.
SETUP_PROBES = 3


def _prewarm() -> float:
    """Warm what an installed program has warm, before any timing.

    Byte-compiles ``src/repro`` (as installing a package does) and fills
    the benchmark-owned model cache (training once per checkout), so no
    measured process pays either one-time cost.
    """
    started = time.perf_counter()
    compileall.compile_dir(str(common.SRC / "repro"), quiet=1)
    from repro.stats.training import default_models
    default_models()
    return time.perf_counter() - started


def _run(workload: str, run_dir, seed: int, seconds: float, traced: bool,
         probes: int):
    if workload in ("batch-cold", "near-hit"):
        import inproc
        runner = inproc.batch_cold if workload == "batch-cold" \
            else inproc.near_hit
    elif workload == "cli-cold":
        import clicold
        runner = clicold.cli_cold
    else:
        import serveopen
        runner = serveopen.serve_open
    return runner(run_dir, seed, seconds, traced, probes)


def _overhead_pct(untraced, traced) -> float:
    """Traced versus untraced time per KB (per request for serve-open).

    Both in reference time, so a change of host speed between the two
    passes is not read as tracing overhead.
    """
    if untraced.workload == "serve-open":
        base = statistics.median(untraced.reference_latencies())
        return (statistics.median(traced.reference_latencies()) / base
                - 1.0) * 100.0
    untraced_rate = untraced.kb_done / untraced.timed_wall_s()
    traced_rate = traced.kb_done / traced.timed_wall_s()
    return (untraced_rate / traced_rate - 1.0) * 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {common.SRC}/repro "
              f"is missing", file=sys.stderr)
        return 2
    common.pin_to_one_cpu()
    common.use_program_env()
    common.MODEL_CACHE.mkdir(parents=True, exist_ok=True)
    prewarm_s = _prewarm()

    run_dir = common.WORK / "runs" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # The traced invocation reports no set-up time, so one set-up
        # per pass is enough there.
        probes = 1 if args.trace else SETUP_PROBES
        outcome = _run(args.workload, run_dir / "untraced", args.seed,
                       args.seconds, False, probes)
        runs = [outcome]
        if args.trace:
            traced = _run(args.workload, run_dir / "traced", args.seed,
                          args.seconds, True, probes)
            runs.append(traced)
            traced.layers["tracing.overhead_pct"] = _overhead_pct(outcome,
                                                                  traced)
            metrics = traced.per_layer()
        else:
            metrics = outcome.end_to_end()
    except common.ChildError as error:
        print(f"perfbench: {args.workload}: {error} "
              f"(see {run_dir.relative_to(common.ROOT)})", file=sys.stderr)
        return 2
    except common.InvalidRun as error:
        print(f"perfbench: {args.workload}: run invalid: {error}",
              file=sys.stderr)
        return 3

    correct = all(run.correct for run in runs)
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": common.environment(),
        "prewarm_s": prewarm_s,
        "runs": [{"traced": index == 1, "attempted": run.attempted,
                  "failed": run.failed, "wrong_outputs": run.mismatches,
                  **run.details} for index, run in enumerate(runs)],
    }
    (run_dir / "details.json").write_text(json.dumps(details, indent=1))
    # What each reference time was derived from: every kernel sample and
    # every operation's wall-clock time and end, per pass.
    (run_dir / "host-series.json").write_text(json.dumps([
        {"kernel": run.host.samples,
         "ops": list(zip(run.latencies_ms, run.latency_spans)),
         "setup_wall_s": run.setup_wall_s} for run in runs]))
    print("details: " + json.dumps(details))
    for name, value in metrics.items():
        print(f"  {name:36s} {value['value']:14.4f} {value['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(run.attempted for run in runs),
                      "failed": sum(run.failed for run in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
