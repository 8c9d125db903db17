"""Every help text and usage error prints exactly its recorded bytes.

tests/cli_usage.json holds, for a fixed list of argv, the exit code,
stdout and stderr of the command line with the terminal width fixed at
"columns": root and subcommand help, --version, no arguments, an unknown
or abbreviated subcommand, a missing required flag, a bad --format, a
non-canonical int, converter errors, and arguments left over after a
subcommand.  None of these argv reads a file, so the names in them need
not exist.
"""

import json
from pathlib import Path

import pytest

from sheafspectra.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "[]")
def test_cli_usage_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])
