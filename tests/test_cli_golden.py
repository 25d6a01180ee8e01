"""Replay the benchmark's golden CLI invocations in process.

perfbench/cli_golden.json pins the exit code and the sha256 of stdout
for every command of the benchmark's `cli` workload; this test holds
the CLI to those bytes.  Paths under `data/` refer to perfbench/data/.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from riderflow.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "cli_golden.json").read_text())


def _invoke(argv):
    argv = [str(PERFBENCH / a) if a.startswith("data/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize(
    "record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN]
)
def test_cli_output_matches_golden(monkeypatch, record):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this
    code, text = _invoke(record["argv"])
    assert code == record["exit"]
    assert hashlib.sha256(text.encode()).hexdigest() == record["sha256"]
