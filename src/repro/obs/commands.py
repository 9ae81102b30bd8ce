"""``repro obs``: record / query / import / export / diff / report /
gate / flame.

The CLI surface of the longitudinal observability subsystem.  Artifacts
flow in through ``record`` (content-detected, see
:mod:`repro.obs.ingest`), live in an append-only sqlite store
(:mod:`repro.obs.store`), and flow out as cross-revision regression
reports (``diff`` / ``report``, :mod:`repro.obs.report`), SLO gate
verdicts (``gate``, :mod:`repro.obs.slo`), and collapsed flamegraph
stacks (``flame``, :mod:`repro.obs.profile`).

Revisions are plain strings; anything not literally present in the
store is resolved through ``git rev-parse`` and prefix matching, so
``repro obs diff HEAD~1 HEAD`` works as expected after CI records
under full commit hashes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .store import RunStore

# Every CLI process registers this parser, so the handlers import the
# store, ingest, report and SLO code themselves.


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _resolve_rev(store: RunStore, raw: str) -> str:
    """Map a user-supplied revision onto a recorded one."""
    from .store import StoreError

    known = store.revisions()
    if raw in known:
        return raw
    candidates = {rev for rev in known
                  if rev.startswith(raw) or raw.startswith(rev)}
    resolved = _git("rev-parse", raw)
    if resolved:
        candidates |= {rev for rev in known
                       if rev.startswith(resolved)
                       or resolved.startswith(rev)}
    if len(candidates) == 1:
        return candidates.pop()
    if candidates:
        raise StoreError(f"revision {raw!r} is ambiguous in the store: "
                         f"{', '.join(sorted(candidates))}")
    raise StoreError(f"revision {raw!r} has no records "
                     f"(known: {', '.join(known) or 'none'})")


def _default_rev() -> str | None:
    return _git("rev-parse", "HEAD")


def _default_timestamp(rev: str) -> str | None:
    """The commit timestamp of ``rev`` -- external and deterministic."""
    return _git("show", "-s", "--format=%cI", rev)


def _open_store(args: argparse.Namespace, *,
                create: bool = False) -> RunStore | None:
    """The ``--store`` database; only ``create`` makes a missing one.

    A read-only command on a missing store prints
    ``obs CMD: PATH: no such store`` and gets None, creating nothing.
    """
    from .store import RunStore

    if not create and not Path(args.store).exists():
        print(f"obs {args.obs_command}: {args.store}: no such store",
              file=sys.stderr)
        return None
    return RunStore(args.store)


def _noise(args: argparse.Namespace):
    from .report import DEFAULT_NOISE, load_noise_spec

    if getattr(args, "noise", None):
        return load_noise_spec(args.noise)
    return DEFAULT_NOISE


def cmd_record(args: argparse.Namespace) -> int:
    from .ingest import IngestError, ingest_file
    from .store import StoreError

    rev = args.rev or _default_rev()
    if not rev:
        print("obs record: --rev is required outside a git checkout",
              file=sys.stderr)
        return 2
    timestamp = args.timestamp or _default_timestamp(rev)
    if not timestamp:
        print(f"obs record: --timestamp is required ({rev!r} has no "
              f"commit timestamp)", file=sys.stderr)
        return 2
    with _open_store(args, create=True) as store:
        for path in args.artifacts:
            try:
                record = ingest_file(path, git_rev=rev,
                                     run_id=args.run_id,
                                     timestamp=timestamp,
                                     kind=args.kind)
                fresh = store.add(record)
            except (OSError, IngestError, StoreError) as error:
                print(f"obs record: {error}", file=sys.stderr)
                return 2
            state = "recorded" if fresh else "already recorded"
            print(f"{state} {record.kind} ({len(record.metrics)} "
                  f"metrics) for {rev} run {args.run_id}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    with store:
        try:
            rev = _resolve_rev(store, args.rev) if args.rev else None
        except StoreError as error:
            print(f"obs query: {error}", file=sys.stderr)
            return 2
        records = store.query(git_rev=rev, kind=args.kind,
                              run_id=args.run_id)
        if args.format == "jsonl":
            for record in records:
                print(record.to_json_line())
        elif args.format == "json":
            print(json.dumps([record.to_dict() for record in records],
                             indent=2, sort_keys=True))
        else:
            if not records:
                print("no matching records")
            for record in records:
                print(f"{record.timestamp}  {record.git_rev:<12} "
                      f"{record.run_id:<10} {record.kind:<18} "
                      f"{len(record.metrics)} metrics")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    with store:
        count = store.export_jsonl(args.output)
    print(f"exported {count} record(s) to {args.output}")
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    from .store import StoreError

    with _open_store(args, create=True) as store:
        try:
            added = store.import_jsonl(args.input)
        except (OSError, StoreError) as error:
            print(f"obs import: {error}", file=sys.stderr)
            return 2
        total = len(store)
    print(f"imported {added} new record(s) from {args.input} "
          f"({total} total)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .report import diff_revisions, regressions, render_markdown
    from .store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    with store:
        try:
            base = _resolve_rev(store, args.base)
            current = _resolve_rev(store, args.current)
            diff = diff_revisions(store, base, current,
                                  noise=_noise(args),
                                  kinds=args.kind or None)
        except StoreError as error:
            print(f"obs diff: {error}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(diff, indent=2, sort_keys=True))
    elif args.format == "markdown":
        sys.stdout.write(render_markdown(
            diff, include_unchanged=args.all))
    else:
        summary = diff["summary"]
        print(f"obs diff {base} -> {current}: "
              f"{summary['regressed']} regressed, "
              f"{summary['improved']} improved, "
              f"{summary['unchanged']} within noise")
    problems = regressions(diff)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_report(args: argparse.Namespace) -> int:
    from .report import render_markdown, report_revision
    from .store import StoreError

    store = _open_store(args)
    if store is None:
        return 2
    with store:
        revisions = store.revisions()
        if not revisions:
            print("obs report: the store holds no records",
                  file=sys.stderr)
            return 2
        try:
            rev = (_resolve_rev(store, args.rev) if args.rev
                   else revisions[-1])
            baseline = (_resolve_rev(store, args.baseline)
                        if args.baseline else None)
            diff = report_revision(store, rev, baseline=baseline,
                                   noise=_noise(args))
        except StoreError as error:
            print(f"obs report: {error}", file=sys.stderr)
            return 2
    rendered = (json.dumps(diff, indent=2, sort_keys=True) + "\n"
                if args.format == "json"
                else render_markdown(diff, include_unchanged=args.all))
    if args.output:
        Path(args.output).write_text(rendered)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    from .slo import evaluate, load_slo_spec, render_verdicts
    from .store import StoreError

    try:
        spec = load_slo_spec(args.spec)
    except (OSError, StoreError, json.JSONDecodeError) as error:
        print(f"obs gate: {args.spec}: {error}", file=sys.stderr)
        return 2
    store = _open_store(args)
    if store is None:
        return 2
    with store:
        verdict = evaluate(store, spec)
    if args.format == "json":
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(render_verdicts(verdict))
    return 0 if verdict["passed"] else 1


def cmd_flame(args: argparse.Namespace) -> int:
    from .profile import PROFILE_SCHEMA, collapsed_from_doc
    from .store import StoreError

    if args.profile:
        try:
            doc = json.loads(Path(args.profile).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"obs flame: {args.profile}: {error}", file=sys.stderr)
            return 2
        if doc.get("schema") != PROFILE_SCHEMA:
            print(f"obs flame: {args.profile}: not a {PROFILE_SCHEMA} "
                  f"document", file=sys.stderr)
            return 2
        stacks = collapsed_from_doc(doc)
    else:
        store = _open_store(args)
        if store is None:
            return 2
        with store:
            try:
                rev = (_resolve_rev(store, args.rev) if args.rev
                       else None)
            except StoreError as error:
                print(f"obs flame: {error}", file=sys.stderr)
                return 2
            record = store.latest("profile", rev)
        if record is None:
            print("obs flame: no profile records in the store",
                  file=sys.stderr)
            return 2
        stacks = [f"{stack} {count}" for stack, count
                  in sorted(record.meta.get("stacks", {}).items())]
    for line in stacks:
        print(line)
    return 0


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default="obs-store.sqlite",
                        metavar="PATH",
                        help="run-record store database "
                             "(default: obs-store.sqlite)")


def add_obs_parser(sub) -> None:
    """Attach the ``obs`` subcommand tree to the root CLI."""
    obs = sub.add_parser(
        "obs", help="longitudinal run-record store, regression "
                    "trending, and SLO gates")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    record = obs_sub.add_parser(
        "record", help="ingest measurement artifacts into the store")
    _add_store_flag(record)
    record.add_argument("artifacts", nargs="+", metavar="FILE",
                        help="trend / bench / metrics-snapshot / "
                             "access-log / trace / profile artifacts")
    record.add_argument("--rev", default=None,
                        help="git revision the artifacts measure "
                             "(default: git rev-parse HEAD)")
    record.add_argument("--run-id", default="r0",
                        help="distinguishes repeated runs of one "
                             "revision (default: r0)")
    record.add_argument("--timestamp", default=None,
                        help="record timestamp, externally supplied "
                             "(default: the commit timestamp of --rev)")
    record.add_argument("--kind", default=None,
                        help="override artifact-kind detection")
    record.set_defaults(func=cmd_record)

    query = obs_sub.add_parser("query", help="list recorded runs")
    _add_store_flag(query)
    query.add_argument("--rev", default=None)
    query.add_argument("--run-id", default=None)
    query.add_argument("--kind", default=None)
    query.add_argument("--format", choices=("text", "json", "jsonl"),
                       default="text")
    query.set_defaults(func=cmd_query)

    export = obs_sub.add_parser(
        "export", help="dump the store as diffable JSONL")
    _add_store_flag(export)
    export.add_argument("output", help="JSONL path to write")
    export.set_defaults(func=cmd_export)

    import_ = obs_sub.add_parser(
        "import", help="append records from a JSONL export")
    _add_store_flag(import_)
    import_.add_argument("input", help="JSONL export to read")
    import_.set_defaults(func=cmd_import)

    diff = obs_sub.add_parser(
        "diff", help="compare two recorded revisions metric-by-metric")
    _add_store_flag(diff)
    diff.add_argument("base", help="baseline revision")
    diff.add_argument("current", help="revision under test")
    diff.add_argument("--kind", action="append", default=None,
                      help="restrict to an artifact kind (repeatable)")
    diff.add_argument("--noise", metavar="SPEC", default=None,
                      help="noise-band spec (TOML/JSON) overriding the "
                           "built-in tolerances")
    diff.add_argument("--format",
                      choices=("text", "markdown", "json"),
                      default="text")
    diff.add_argument("--all", action="store_true",
                      help="include within-noise metrics in the output")
    diff.set_defaults(func=cmd_diff)

    report = obs_sub.add_parser(
        "report", help="regression report for one revision vs its "
                       "predecessor")
    _add_store_flag(report)
    report.add_argument("--rev", default=None,
                        help="revision to report on (default: newest)")
    report.add_argument("--baseline", default=None,
                        help="compare against this revision instead of "
                             "the predecessor")
    report.add_argument("--noise", metavar="SPEC", default=None)
    report.add_argument("--format", choices=("markdown", "json"),
                        default="markdown")
    report.add_argument("--all", action="store_true",
                        help="include within-noise metrics")
    report.add_argument("--output", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    report.set_defaults(func=cmd_report)

    gate = obs_sub.add_parser(
        "gate", help="evaluate an SLO spec against the store; exit "
                     "non-zero on violation")
    _add_store_flag(gate)
    gate.add_argument("--spec", required=True,
                      help="SLO spec (TOML or JSON)")
    gate.add_argument("--format", choices=("text", "json"),
                      default="text")
    gate.set_defaults(func=cmd_gate)

    flame = obs_sub.add_parser(
        "flame", help="print collapsed stacks from a sampling profile")
    _add_store_flag(flame)
    flame.add_argument("profile", nargs="?", default=None,
                       help="a repro-profile-v1 JSON file (default: "
                            "the newest profile record in the store)")
    flame.add_argument("--rev", default=None,
                       help="pick the profile of this revision")
    flame.set_defaults(func=cmd_flame)
