"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # conftest.py puts the package under test on the children's PYTHONPATH
    r = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
