"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    prefix = directory / "demo"
    code = main(["generate", str(prefix), "--functions", "8",
                 "--seed", "5", "--style", "msvc-like"])
    assert code == 0
    return prefix


class TestGenerate:
    def test_writes_both_files(self, generated):
        assert generated.with_suffix(".bin").exists()
        assert (generated.parent / "demo.gt.json").exists()

    def test_output_message(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "g"), "--functions", "5"])
        out = capsys.readouterr().out
        assert "text bytes" in out and "functions" in out


class TestDisasm:
    def test_summary_mode(self, generated, capsys):
        assert main(["disasm", str(generated.with_suffix(".bin"))]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "functions at:" in out

    def test_listing_mode(self, generated, capsys):
        code = main(["disasm", str(generated.with_suffix(".bin")),
                     "--listing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "<func_0000>:" in out
        assert "push" in out


class TestEvaluate:
    def test_scores_against_ground_truth(self, generated, capsys):
        assert main(["evaluate", str(generated)]) == 0
        out = capsys.readouterr().out
        assert "instruction F1:" in out
        assert "byte errors:" in out


class TestLint:
    def test_text_output(self, generated, capsys):
        code = main(["lint", str(generated.with_suffix(".bin")),
                     "--fail-on", "never"])
        assert code == 0
        out = capsys.readouterr().out
        assert "diagnostics (" in out.splitlines()[-1]

    def test_json_schema(self, generated, capsys):
        main(["lint", str(generated.with_suffix(".bin")),
              "--format", "json", "--fail-on", "never"])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"tool", "rules_run", "counts", "diagnostics"}
        assert report["tool"] == "repro"
        assert set(report["counts"]) == {"info", "warning", "error"}
        for diagnostic in report["diagnostics"]:
            assert set(diagnostic) == {"rule", "severity", "start", "end",
                                       "message", "suggestion"}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert any(line.startswith("orphan-code") for line in lines)

    def test_missing_binary_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_disable_is_usage_error(self, generated, capsys):
        code = main(["lint", str(generated.with_suffix(".bin")),
                     "--disable", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_fail_on_threshold_controls_exit(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["lint", binary, "--fail-on", "never"]) == 0
        # The demo binary produces warnings but no errors.
        assert main(["lint", binary, "--fail-on", "error"]) == 0
        assert main(["lint", binary, "--fail-on", "info"]) == 1
        capsys.readouterr()


class TestExperimentsPassthrough:
    def test_unknown_id_fails(self):
        assert main(["experiments", "zzz"]) == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_style(self):
        with pytest.raises(SystemExit):
            main(["generate", "x", "--style", "icc"])


class TestRealFormats:
    @pytest.fixture(scope="class")
    def elf_prefix(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-elf")
        prefix = directory / "real"
        code = main(["generate", str(prefix), "--functions", "6",
                     "--seed", "9", "--format", "elf"])
        assert code == 0
        return prefix

    def test_generate_elf_writes_elf(self, elf_prefix):
        elf = elf_prefix.with_suffix(".elf")
        assert elf.exists()
        assert elf.read_bytes()[:4] == b"\x7fELF"

    def test_disasm_accepts_elf(self, elf_prefix, capsys):
        code = main(["disasm", str(elf_prefix.with_suffix(".elf"))])
        assert code == 0
        assert "instructions" in capsys.readouterr().out

    def test_disasm_json_matches_rprb_path(self, elf_prefix, tmp_path,
                                           capsys):
        main(["generate", str(tmp_path / "real"), "--functions", "6",
              "--seed", "9"])
        capsys.readouterr()
        assert main(["disasm", "--json",
                     str(elf_prefix.with_suffix(".elf"))]) == 0
        via_elf = capsys.readouterr().out
        assert main(["disasm", "--json",
                     str(tmp_path / "real.bin")]) == 0
        assert via_elf == capsys.readouterr().out

    def test_lint_accepts_elf(self, elf_prefix, capsys):
        code = main(["lint", str(elf_prefix.with_suffix(".elf")),
                     "--format", "json"])
        assert code == 0
        assert "diagnostics" in capsys.readouterr().out

    def test_unrecognized_format_is_exit_2_one_line(self, tmp_path,
                                                    capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\x01\x02\x03 not a binary")
        assert main(["disasm", str(junk)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized format (magic=00010203)" in err
        assert main(["lint", str(junk)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized format" in err

    def test_truncated_elf_is_exit_2(self, elf_prefix, tmp_path, capsys):
        blob = elf_prefix.with_suffix(".elf").read_bytes()
        bad = tmp_path / "trunc.elf"
        bad.write_bytes(blob[:48])
        assert main(["disasm", str(bad)]) == 2
        assert "offset" in capsys.readouterr().err


class TestExplain:
    @pytest.fixture(scope="class")
    def seed49(self, tmp_path_factory):
        # The PR-3 regression binary whose root cause the audit trail
        # must reproduce (see tests/obs/test_pipeline.py).
        prefix = tmp_path_factory.mktemp("cli-explain") / "seed49"
        assert main(["generate", str(prefix), "--functions", "6",
                     "--seed", "49", "--style", "msvc-like"]) == 0
        return prefix.with_suffix(".bin")

    def test_entry_point_chain(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "0x0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0x0: code (instruction start)")
        assert "accept-trace" in out
        assert "entry-point" in out

    def test_json_output(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["address"] == "0x0"
        assert payload["classification"] == "code (instruction start)"
        assert payload["events"]
        assert all("pass" in event for event in payload["events"])

    def test_seed49_refuted_soft_trace(self, seed49, capsys):
        assert main(["explain", str(seed49), "0x259"]) == 0
        out = capsys.readouterr().out
        assert "refuted SOFT trace" in out
        assert "strict soft-trace gate" in out

    def test_seed49_padding_guard(self, seed49, capsys):
        assert main(["explain", str(seed49), "0x37c"]) == 0
        out = capsys.readouterr().out
        assert "skip-realign" in out
        assert "padding-as-code guard" in out

    def test_bad_address_is_exit_2(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["explain", binary, "zzz"]) == 2
        assert "bad address" in capsys.readouterr().err
        assert main(["explain", binary, "0x999999"]) == 2
        assert "outside the text section" in capsys.readouterr().err


class TestMetricsCommand:
    def test_local_prometheus_dump(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["metrics", binary]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_superset_cache_total counter" in out
        assert "repro_traces_total" in out

    def test_local_json_dump(self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["metrics", binary, "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_traces_total"]["kind"] == "counter"

    def test_requires_binary_or_server(self, capsys):
        assert main(["metrics"]) == 2
        assert "--server" in capsys.readouterr().err

    def test_unreachable_server_is_exit_1(self, capsys):
        assert main(["metrics", "--server", "127.0.0.1:1"]) == 1
        assert "metrics:" in capsys.readouterr().err


class TestTraceFlag:
    def test_disasm_trace_export_is_schema_valid(self, generated,
                                                 tmp_path, capsys):
        from repro.obs.schema import validate_jsonl
        path = tmp_path / "trace.jsonl"
        assert main(["disasm", str(generated.with_suffix(".bin")),
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        summary = validate_jsonl(path)
        assert summary["traces"] == 1
        assert summary["dangling_parents"] == 0
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        assert "disassemble" in names
        assert "superset" in names

    def test_env_var_activates_tracing(self, generated, tmp_path,
                                       monkeypatch, capsys):
        from repro.obs.schema import validate_jsonl
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["disasm", str(generated.with_suffix(".bin"))]) == 0
        capsys.readouterr()
        assert validate_jsonl(path)["spans"] > 0


class TestNoNetworkx:
    def test_disasm_json_runs_with_networkx_unimportable(self, generated,
                                                         capsys):
        # ``sys.modules[name] = None`` makes any import of it raise, so
        # this fails if the CLI or the pipeline touches networkx.
        binary = str(generated.with_suffix(".bin"))
        assert main(["disasm", "--json", binary]) == 0
        expected = capsys.readouterr().out
        script = ("import sys; sys.modules['networkx'] = None; "
                  "import repro.cli; "
                  "sys.exit(repro.cli.main(['disasm', '--json', "
                  "sys.argv[1]]))")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, binary],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


class TestUnreadablePath:
    """A missing path or a directory is a one-line message, exit 2."""

    ARGV = {
        "disasm": lambda path, tmp: ["disasm", path],
        "lint": lambda path, tmp: ["lint", path],
        "rewrite": lambda path, tmp: ["rewrite", path, str(tmp / "out")],
        "explain": lambda path, tmp: ["explain", path, "0x0"],
        "metrics": lambda path, tmp: ["metrics", path],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_missing_path_and_directory(self, command, tmp_path, capsys):
        for path, reason in ((tmp_path / "missing.elf",
                              "No such file or directory"),
                             (tmp_path, "Is a directory")):
            argv = self.ARGV[command](str(path), tmp_path)
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"{command}: {path}: {reason}\n"

    def test_evaluate_names_the_unreadable_case_file(self, tmp_path,
                                                     capsys):
        # `evaluate` takes a path prefix, so the message names the file.
        prefix = tmp_path / "case"
        bin_path, gt_path = f"{prefix}.bin", f"{prefix}.gt.json"
        assert main(["evaluate", str(prefix)]) == 2
        assert capsys.readouterr().err == \
            f"evaluate: {bin_path}: No such file or directory\n"
        Path(bin_path).mkdir()
        assert main(["evaluate", str(prefix)]) == 2
        assert capsys.readouterr().err == \
            f"evaluate: {bin_path}: Is a directory\n"
        Path(bin_path).rmdir()
        assert main(["generate", str(prefix), "--functions", "4"]) == 0
        Path(gt_path).unlink()
        capsys.readouterr()
        assert main(["evaluate", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"evaluate: {gt_path}: No such file or directory\n"
        Path(bin_path).write_bytes(b"junk")
        assert main(["evaluate", str(prefix)]) == 2
        assert capsys.readouterr().err == \
            f"evaluate: {prefix}: bad magic\n"


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


class TestColdStartImports:
    """``repro disasm`` imports only what disassembly uses."""

    #: Packages and modules a ``disasm --json`` process must not load.
    NOT_FOR_DISASM = (
        "repro.core.correction", "repro.synth.codegen",
        "repro.synth.corpus", "repro.isa.encoder", "repro.emulator",
        "repro.rewrite", "repro.baselines", "repro.lint", "repro.eval",
        "repro.fleet.driver", "repro.fleet.aggregate",
        "repro.fleet.analysis", "repro.obs.store", "repro.obs.ingest",
        "repro.obs.report", "repro.obs.slo", "sqlite3",
    )

    def test_disasm_json_leaves_other_subsystems_unimported(
            self, generated, capsys):
        binary = str(generated.with_suffix(".bin"))
        assert main(["disasm", "--json", binary]) == 0
        expected = capsys.readouterr().out
        script = ("import json, sys, repro.cli\n"
                  "status = repro.cli.main(['disasm', '--json', "
                  "sys.argv[1]])\n"
                  "sys.stdout.flush()\n"
                  "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
                  "sys.exit(status)\n")
        proc = _run_python(script, binary)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        loaded = json.loads(proc.stderr.splitlines()[-1])
        unwanted = [name for name in loaded
                    if any(name == banned or name.startswith(banned + ".")
                           for banned in self.NOT_FOR_DISASM)]
        assert unwanted == []

    def test_bare_import_does_not_load_numpy(self):
        proc = _run_python("import sys, repro\n"
                           "assert 'numpy' not in sys.modules, 'numpy'\n"
                           "assert repro.__version__\n")
        assert proc.returncode == 0, proc.stderr
