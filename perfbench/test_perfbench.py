"""The benchmark's checks are not vacuous: corrupted expectations make them fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Runs two cheap cli-cold jobs through the same run_ops() the benchmark uses:
first as they are (no failures), then with one golden output corrupted, then
with one oracle input (a coefficient of j) corrupted; each corruption must
give fail_ratio > 0.
"""

import shutil
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import run_cli_plain, run_ops  # noqa: E402

JOBS = ("relation-one-over-delta", "expand-knz")


def fail_ratio():
    ops = [op for op in workloads.cli_cold_ops("all") if op.name in JOBS]
    records = run_ops(ops, {"run_cli": run_cli_plain})
    assert len(records) == len(JOBS)
    return sum(not r["ok"] for r in records) / len(records)


def test_checks_pass_on_correct_outputs():
    assert fail_ratio() == 0


def test_corrupted_golden_output_fails(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, golden)
    path = golden / "cli-relation-one-over-delta.txt"
    path.write_text(path.read_text().replace("-24", "-23"))
    monkeypatch.setattr(workloads, "GOLDEN_DIR", golden)
    assert fail_ratio() > 0


def test_corrupted_oracle_input_fails(monkeypatch):
    exact = workloads.j_coefficients

    def corrupted(n):
        coefficients = exact(n)
        coefficients[2] += Fraction(1)
        return coefficients

    monkeypatch.setattr(workloads, "j_coefficients", corrupted)
    assert fail_ratio() > 0
