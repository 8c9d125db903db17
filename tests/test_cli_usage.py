"""Every help text and usage error prints exactly its recorded bytes.

tests/cli_usage.json holds, for a fixed list of argv, the exit code,
stdout and stderr of the command line with the terminal width fixed at
"columns": root and subcommand help, --version, no arguments, an unknown
or abbreviated subcommand, a missing required flag, a bad --format, a
non-canonical int, converter errors, and arguments left over after a
subcommand.  None of these argv reads a file, so the names in them need
not exist.

Re-record, from the repository root, after a change to any help text or
usage error:

    PYTHONPATH=src python tests/test_cli_usage.py

It re-runs every recorded argv at the recorded width, prints how many
cases changed and the first few argv, then writes the file.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sheafspectra.cli import main

PATH = Path(__file__).resolve().parent / "cli_usage.json"
GOLDEN = json.loads(PATH.read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "[]")
def test_cli_usage_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


def record() -> None:
    os.environ["COLUMNS"] = str(GOLDEN["columns"])
    cases = []
    for case in GOLDEN["cases"]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(case["argv"]))
        cases.append({"argv": case["argv"], "code": code,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    changed = [new["argv"] for old, new in zip(GOLDEN["cases"], cases) if old != new]
    print(f"{len(changed)} of {len(cases)} cases changed"
          + "".join(f"\n  {' '.join(argv) or '[]'}" for argv in changed[:5])
          + ("\n  ..." if changed[5:] else ""))
    PATH.write_text(json.dumps({**GOLDEN, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    record()
