"""Traced stand-in for ``python -m repro disasm --json <file>``.

Usage: ``python3 perfbench/cli_traced.py <spans.json> disasm --json <file>``.

Used only by the traced cli-cold pass.  It times ``import repro.cli``
as one span, wraps the pipeline, format-loading and rendering entry
points (:mod:`tracing`), runs the same ``repro.cli.main`` the module
entry point runs, and writes the raw spans next to ``<spans.json>`` (as
``.jsonl``) and the reduced spans plus the deltas of the program's own
counters to ``<spans.json>``.
Standard output is exactly the CLI's, so the result checks still apply.
It exits with :data:`tracing.INSTALL_FAILED` when a wrapper cannot be
installed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import common
from tracing import (CLI_LAYERS, INSTALL_FAILED, PIPELINE_LAYERS, Recorder,
                     counter_delta, read_counters)


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    common.use_program_env()
    recorder = Recorder()
    recorder.request = cli_args[-1]
    with recorder.span("cli.import"):
        import repro.cli
    try:
        recorder.install(PIPELINE_LAYERS + CLI_LAYERS)
    except LookupError as error:
        print(f"cli_traced: {error}", file=sys.stderr)
        return INSTALL_FAILED
    before = read_counters()
    with recorder.span("cli.main"):
        status = repro.cli.main(cli_args)
    sys.stdout.flush()
    recorder.write(out_path.with_suffix(".jsonl"))
    out_path.write_text(json.dumps({
        "layers": recorder.reduce(),
        "counters": counter_delta(before, read_counters())}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
