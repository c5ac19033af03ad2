"""Each demo runs to completion under `-X dev -W error`, with nothing on
stderr; demos 01, 03, 04 and 05 print exactly their recorded output.  Demo
02 prints timings, so its stdout is not compared."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = {
    "01_lattices_and_discriminant_forms.py": "demo_01_lattices_and_discriminant_forms.stdout",
    "03_weil_representation.py": "demo_03_weil_representation.stdout",
    "04_knz_product.py": "demo_04_knz_product.stdout",
    "05_embedding_trick_and_modularity.py": "demo_05_embedding_trick_and_modularity.stdout",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, check=False)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    if demo.name in RECORDED:
        expected = (Path(__file__).parent / RECORDED[demo.name]).read_bytes()
        assert proc.stdout == expected
