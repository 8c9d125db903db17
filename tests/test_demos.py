"""Every demo script runs against src/ and prints exactly its recorded output.

The expected stdout of each demo is stored in tests/demo_output/<demo>.txt
and compared byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
