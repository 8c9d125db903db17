"""Every subcommand prints exactly its recorded output, in both formats.

tests/cli_output.json holds the input files ("inputs", by name) and, for
a fixed list of argv, the exit code and stdout of the command line
("cases"); an argv entry naming an input is replaced by the path of that
file.  The outputs are compared byte for byte, as the demo outputs are.
"""

import json
from pathlib import Path

import pytest

from sheafspectra.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_output.json").read_text())


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    for name, doc in GOLDEN["inputs"].items():
        (root / name).write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_unchanged(capsys, input_dir, case):
    argv = [str(input_dir / a) if a in GOLDEN["inputs"] else a for a in case["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
