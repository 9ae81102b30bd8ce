"""``repro evalfleet``: plan / run / resume / report / diff.

The CLI surface of the evaluation fleet.  ``plan`` writes a
reproducible manifest (synthetic grid and/or ingested directories),
``run`` executes it with checkpointed shards, ``resume`` re-enters an
interrupted run directory, ``report`` re-aggregates whatever is
checkpointed so far, and ``diff`` gates one trend against a committed
baseline -- exiting non-zero on taxonomy regression, which is what
turns the fleet into a population-level CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from ..synth.styles import STYLES
from .defaults import DEFAULT_SHARD_SIZE

if TYPE_CHECKING:
    from .manifest import Manifest

# Every CLI process registers this parser, so the handlers import the
# fleet machinery themselves.


@contextmanager
def _profile_run(args: argparse.Namespace):
    """Sampling-profiler scope for a fleet run.

    ``--sample-profile`` (or ``REPRO_PROFILE``) samples the coordinator
    for the duration of the run and writes the ``repro-profile-v1``
    document -- by default into the run directory, next to the trend
    and checkpoints, where ``repro obs record`` picks it up.  Yields
    the output path, or None when profiling is off.
    """
    from ..obs.profile import profile_path_from_env, profiling
    raw = getattr(args, "sample_profile", None)
    if raw is None:
        raw = profile_path_from_env()
    if raw is None:
        yield None
        return
    path = raw or str(Path(args.rundir) / "profile.json")
    with profiling(path, command="evalfleet", jobs=args.jobs or 1):
        yield path


def _parse_functions(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad --functions {text!r} "
                         f"(expected comma-separated integers)") from None
    if not counts:
        raise ValueError("--functions must name at least one count")
    return counts


def cmd_plan(args: argparse.Namespace) -> int:
    from .manifest import (Manifest, ingest_directory, parse_seed_range,
                           plan_grid)

    items: list = []
    if args.manifest:
        items.extend(Manifest.load(args.manifest).items)
    if args.ingest:
        for directory in args.ingest:
            items.extend(ingest_directory(directory))
    if args.grid or not items:
        chosen = args.style or ["all"]
        styles = sorted(STYLES) if "all" in chosen else \
            sorted(set(chosen))
        try:
            seeds = parse_seed_range(args.seed_range)
            counts = _parse_functions(args.functions)
        except ValueError as error:
            print(f"evalfleet plan: {error}", file=sys.stderr)
            return 2
        items.extend(plan_grid(styles, counts, seeds))
    try:
        manifest = Manifest(items).limit(args.limit)
    except ValueError as error:
        print(f"evalfleet plan: {error}", file=sys.stderr)
        return 2
    manifest.save(args.output)
    synth = sum(1 for item in manifest if item.kind == "synth")
    print(f"wrote {args.output}: {len(manifest)} binaries "
          f"({synth} synthetic, {len(manifest) - synth} from disk)")
    return 0


def _execute(manifest: Manifest, args: argparse.Namespace) -> int:
    from .aggregate import (check_separation, compare_trends, load_trend,
                            write_trend)
    from .driver import FleetConfig, run_fleet

    config = FleetConfig(jobs=args.jobs, via=args.via,
                         server=args.server,
                         shard_size=args.shard_size,
                         limit=getattr(args, "limit", None))
    with _profile_run(args) as profile_sink:
        trend = run_fleet(manifest, args.rundir, config, progress=print)
    if profile_sink is not None:
        print(f"wrote {profile_sink} (sampling profile)")
    if args.trend:
        write_trend(args.trend, trend)
        print(f"wrote {args.trend}")

    problems: list[str] = []
    if args.trend_baseline:
        baseline = load_trend(args.trend_baseline)
        problems = compare_trends(trend, baseline,
                                  rel_tol=args.tolerance)
    elif args.check_separation:
        problems = check_separation(trend)
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    if problems:
        print(f"evalfleet: {len(problems)} gate violation(s)",
              file=sys.stderr)
        return 1
    if args.trend_baseline:
        print("gate: no taxonomy regression vs baseline")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .manifest import Manifest

    try:
        manifest = Manifest.load(args.manifest)
    except (OSError, ValueError) as error:
        print(f"evalfleet run: {args.manifest}: {error}", file=sys.stderr)
        return 2
    try:
        return _execute(manifest, args)
    except ValueError as error:
        print(f"evalfleet run: {error}", file=sys.stderr)
        return 2


def cmd_resume(args: argparse.Namespace) -> int:
    from .manifest import Manifest

    pinned = Path(args.rundir) / "manifest.json"
    try:
        manifest = Manifest.load(pinned)
    except (OSError, ValueError) as error:
        print(f"evalfleet resume: {pinned}: {error} "
              f"(is this a fleet run directory?)", file=sys.stderr)
        return 2
    args.limit = None   # the pinned manifest is already limited
    if args.shard_size is None:   # keep the interrupted run's sharding
        from .driver import detect_shard_size
        args.shard_size = detect_shard_size(args.rundir) \
            or DEFAULT_SHARD_SIZE
    try:
        return _execute(manifest, args)
    except ValueError as error:
        print(f"evalfleet resume: {error}", file=sys.stderr)
        return 2


def cmd_report(args: argparse.Namespace) -> int:
    from .aggregate import (aggregate, publish_metrics, render_report,
                            trend_json)
    from .driver import load_run_reports

    try:
        _, reports, missing = load_run_reports(args.rundir)
    except (OSError, ValueError) as error:
        print(f"evalfleet report: {args.rundir}: {error}",
              file=sys.stderr)
        return 2
    if not reports:
        print(f"evalfleet report: {args.rundir}: no checkpointed "
              f"shards yet", file=sys.stderr)
        return 2
    trend = aggregate(reports)
    if missing:
        print(f"note: {missing} shard(s) not yet checkpointed; "
              f"this is a partial view", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(trend_json(trend))
    elif args.format == "prometheus":
        from ..obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        publish_metrics(trend, registry)
        sys.stdout.write(registry.render_prometheus())
    else:
        print(render_report(trend))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .aggregate import compare_trends, load_trend

    try:
        current = load_trend(args.current)
        baseline = load_trend(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"evalfleet diff: {error}", file=sys.stderr)
        return 2
    problems = compare_trends(current, baseline, rel_tol=args.tolerance)
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    if problems:
        print(f"evalfleet diff: {len(problems)} regression(s) vs "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"evalfleet diff: no taxonomy regression "
          f"({args.current} vs {args.baseline})")
    return 0


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rundir", required=True,
                        help="checkpoint directory (resumable)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel workers (0 = one per CPU)")
    parser.add_argument("--via", choices=("inprocess", "serve"),
                        default="inprocess",
                        help="run the corrected tool in worker "
                             "processes or through a live server")
    parser.add_argument("--server", default="", metavar="HOST:PORT",
                        help="the `repro serve` instance for "
                             "--via serve")
    parser.add_argument("--shard-size", type=int,
                        default=DEFAULT_SHARD_SIZE,
                        help="binaries per checkpoint shard")
    parser.add_argument("--trend", metavar="PATH", default=None,
                        help="also write the trend JSON here "
                             "(rundir/trend.json is always written)")
    parser.add_argument("--trend-baseline", metavar="PATH", default=None,
                        help="gate against this trend (or BENCH json "
                             "embedding one); exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative regression tolerance for the "
                             "gate (default: 0.02)")
    parser.add_argument("--check-separation", action="store_true",
                        help="fail unless corrected separates from "
                             "every baseline where the paper predicts")
    parser.add_argument("--sample-profile", metavar="PATH", nargs="?",
                        const="", default=None,
                        help="sample the coordinator and write a "
                             "repro-profile-v1 document (default: "
                             "RUNDIR/profile.json; also honors "
                             "REPRO_PROFILE)")


def add_evalfleet_parser(sub) -> None:
    """Attach the ``evalfleet`` subcommand tree to the root CLI."""
    evalfleet = sub.add_parser(
        "evalfleet",
        help="corpus-scale oracle-free evaluation fleet")
    fleet_sub = evalfleet.add_subparsers(dest="fleet_command",
                                         required=True)

    plan = fleet_sub.add_parser(
        "plan", help="write a reproducible corpus manifest")
    plan.add_argument("output", help="manifest path to write")
    plan.add_argument("--style", action="append",
                      default=None, choices=(*sorted(STYLES), "all"),
                      help="synthetic style (repeatable; default all)")
    plan.add_argument("--functions", default="4,8",
                      help="comma-separated function counts "
                           "(default: 4,8)")
    plan.add_argument("--seed-range", default="0:10", metavar="A:B",
                      help="seeds A..B-1 per style/size (default 0:10)")
    plan.add_argument("--ingest", action="append", metavar="DIR",
                      help="add every recognized ELF/PE/native binary "
                           "under DIR (repeatable)")
    plan.add_argument("--manifest", metavar="IN.json", default=None,
                      help="merge an existing manifest (e.g. one "
                           "written by `repro generate --manifest`)")
    plan.add_argument("--grid", action="store_true",
                      help="add the synthetic grid even when --manifest"
                           "/--ingest already provided items")
    plan.add_argument("--limit", type=int, default=None,
                      help="keep only the first N items")
    plan.set_defaults(func=cmd_plan)

    run = fleet_sub.add_parser(
        "run", help="execute a manifest with checkpointed shards")
    run.add_argument("manifest", help="manifest JSON from `plan`")
    _add_execution_flags(run)
    run.add_argument("--limit", type=int, default=None,
                     help="evaluate only the first N manifest items")
    run.set_defaults(func=cmd_run)

    resume = fleet_sub.add_parser(
        "resume", help="re-enter an interrupted run directory")
    _add_execution_flags(resume)
    # Unless overridden, keep the sharding the interrupted run used.
    resume.set_defaults(func=cmd_resume, shard_size=None)

    report = fleet_sub.add_parser(
        "report", help="aggregate a run directory's checkpoints")
    report.add_argument("rundir", help="fleet run directory")
    report.add_argument("--format",
                        choices=("text", "json", "prometheus"),
                        default="text")
    report.set_defaults(func=cmd_report)

    diff = fleet_sub.add_parser(
        "diff", help="gate one trend against a baseline trend")
    diff.add_argument("current", help="trend JSON under test")
    diff.add_argument("baseline",
                      help="baseline trend JSON (or a BENCH_fleet.json "
                           "embedding one)")
    diff.add_argument("--tolerance", type=float, default=0.02)
    diff.set_defaults(func=cmd_diff)
