"""Each demo runs to completion; demo 03 prints exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = {"03_weil_representation.py": "demo_03_weil_representation.stdout"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    if demo.name in RECORDED:
        expected = (Path(__file__).parent / RECORDED[demo.name]).read_bytes()
        assert proc.stdout == expected
