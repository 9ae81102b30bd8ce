"""The public surface of the lazily exporting packages.

Package ``__init__`` modules export their names on first access
(:mod:`repro._lazy`); these tests hold that surface equal to what eager
re-exports gave: the same objects, ``import *``, the CLI command tree,
the worklist engine seam, and the metric families a fresh server shows.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import pkgutil
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = ("repro", "repro.analysis", "repro.baselines", "repro.binary",
            "repro.core", "repro.eval", "repro.fleet", "repro.formats",
            "repro.isa", "repro.lint", "repro.obs", "repro.serve",
            "repro.stats", "repro.superset", "repro.synth")


def _bindings(package, name: str) -> list:
    """``name`` as bound by each direct submodule of ``package``."""
    found = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        value = vars(module).get(name)
        if value is not None and not inspect.ismodule(value):
            found.append(value)
    return found


@pytest.mark.parametrize("package_name", PACKAGES)
def test_exports_are_the_defining_modules_objects(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        defined_in = getattr(value, "__module__", None)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert getattr(sys.modules[defined_in], name) is value, name
        bound = _bindings(package, name)
        assert bound, f"{package_name}.{name} is bound by no submodule"
        assert all(other is value for other in bound), name
        assert name in dir(package)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_name_is_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name   # noqa: B018


def test_export_keeps_its_name_over_a_same_named_submodule():
    import repro.fleet
    import repro.fleet.aggregate   # noqa: F401 -- binds the submodule
    from repro.fleet import aggregate
    assert inspect.isfunction(aggregate)
    assert inspect.isfunction(repro.fleet.aggregate)


def test_star_import_binds_all_names():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Disassembler"] is repro.Disassembler
    assert namespace["__version__"] == "1.0.0"


def _subcommands(parser) -> dict:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_command_tree_is_unchanged():
    commands = _subcommands(build_parser())
    assert list(commands) == [
        "generate", "disasm", "lint", "evaluate", "rewrite", "serve",
        "explain", "metrics", "experiments", "evalfleet", "obs"]
    assert list(_subcommands(commands["obs"])) == [
        "record", "query", "export", "import", "diff", "report", "gate",
        "flame"]
    fleet = _subcommands(commands["evalfleet"])
    assert list(fleet) == ["plan", "run", "resume", "report", "diff"]
    run = fleet["run"].parse_args(["m.json", "--rundir", "r"])
    assert run.shard_size == 25


def _run(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC, **env))


def test_worklist_engine_still_runs(tmp_path, capsys):
    prefix = tmp_path / "w"
    assert main(["generate", str(prefix), "--functions", "6",
                 "--seed", "2"]) == 0
    binary = str(prefix.with_suffix(".bin"))
    capsys.readouterr()
    assert main(["disasm", "--json", binary]) == 0
    expected = capsys.readouterr().out
    proc = _run(["disasm", "--json", binary], REPRO_ENGINE="worklist")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


#: The pipeline metric families ``/metrics`` lists before any request.
PIPELINE_FAMILIES = {
    "repro_bytes_reclassified_total", "repro_decode_errors_total",
    "repro_gap_candidates_total", "repro_incremental_total",
    "repro_lint_diagnostics_total", "repro_superset_cache_total",
    "repro_superset_decoded_offsets_total", "repro_traces_total",
}


def test_fresh_server_lists_every_pipeline_family():
    with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=SRC)) as proc:
        try:
            banner = proc.stdout.readline()
            match = re.match(r"serving on [\d.]+:(\d+) ", banner)
            assert match, banner
            url = (f"http://127.0.0.1:{match.group(1)}"
                   f"/metrics?format=prometheus")
            with urllib.request.urlopen(url, timeout=60) as response:
                body = response.read().decode()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
    families = {line.split()[2] for line in body.splitlines()
                if line.startswith("# TYPE repro_")
                and not line.startswith("# TYPE repro_serve_")}
    assert families == PIPELINE_FAMILIES


def test_metrics_dump_lists_every_pipeline_family(tmp_path):
    prefix = tmp_path / "m"
    assert main(["generate", str(prefix), "--functions", "4"]) == 0
    proc = _run(["metrics", str(prefix.with_suffix(".bin"))])
    assert proc.returncode == 0, proc.stderr
    families = {line.split()[2] for line in proc.stdout.splitlines()
                if line.startswith("# TYPE ")}
    assert families == PIPELINE_FAMILIES
