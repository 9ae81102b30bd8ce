"""The CI obs-gate's committed baselines exist and cover every SLO.

The ``obs-gate`` job in ``.github/workflows/ci.yml`` records committed
benchmark results under ``--rev baseline`` before it gates the fresh
run against ``benchmarks/slo.toml``.  A baseline that is missing from
git makes that step fail; a gated SLO kind with no baseline record
would silently compare nothing.  Both must fail here first.
"""

import json
import re
import shlex
import subprocess
from pathlib import Path

import pytest

from repro.obs.ingest import ingest_file
from repro.obs.slo import load_slo_spec

ROOT = Path(__file__).resolve().parents[2]
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
SLO_SPEC = ROOT / "benchmarks" / "slo.toml"


def baseline_paths() -> list[str]:
    """Artifact paths of every ``obs record ... --rev baseline`` command."""
    # Join shell line continuations so each command is one line.
    commands = re.sub(r"\\\n\s*", " ", CI_WORKFLOW.read_text())
    paths = []
    for line in commands.splitlines():
        if "obs record" in line and "--rev baseline" in line:
            paths += [token for token in shlex.split(line)
                      if re.fullmatch(r"[\w./-]+\.jsonl?", token)]
    return paths


def test_ci_records_baselines():
    assert "benchmarks/results/BENCH_correct.json" in baseline_paths()


def test_every_baseline_is_tracked_by_git():
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                            cwd=ROOT, capture_output=True, text=True)
    if inside.returncode != 0:
        pytest.skip("not a git checkout")
    for path in baseline_paths():
        tracked = subprocess.run(["git", "ls-files", "--error-unmatch",
                                  path], cwd=ROOT, capture_output=True)
        assert tracked.returncode == 0, f"{path} is not tracked by git"


def test_every_gated_slo_kind_has_a_baseline_record():
    records = {}
    for path in baseline_paths():
        record = ingest_file(ROOT / path, git_rev="baseline",
                             run_id="baseline",
                             timestamp="2000-01-01T00:00:00+00:00")
        records.setdefault(record.kind, {}).update(record.metrics)
    for slo in load_slo_spec(SLO_SPEC):
        if slo.allow_missing:
            continue
        assert slo.kind in records, \
            f"slo {slo.name!r}: no baseline record of kind {slo.kind!r}"
        assert slo.metric in records[slo.kind], \
            f"slo {slo.name!r}: baseline lacks metric {slo.metric!r}"


def test_fleet_trend_baseline_matches_the_fleet_bench():
    """TREND_fleet.json is the trend BENCH_fleet.json embeds, standing
    alone so it records as a ``fleet-trend``; regenerate both together."""
    results = ROOT / "benchmarks" / "results"
    bench = json.loads((results / "BENCH_fleet.json").read_text())
    trend = json.loads((results / "TREND_fleet.json").read_text())
    assert trend == bench["trend"]
