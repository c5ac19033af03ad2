"""The benchmark's golden outputs (perfbench/golden/) are what the kit prints,
byte for byte: the stdout of each cli-cold job run through `cli.main`, and
the body of each chamber-point expansion at both of its cutoffs and of the
KNZ expansion, in the format of `workloads.body_text`.  The benchmark
compares them too, but only inside its timed runs.  The CLI jobs run from
the repository root, as the benchmark runs them: `pair-e6` reads its series
by a path relative to it."""

import sys
from pathlib import Path

import pytest

from borcherds_kit.cli import main
from borcherds_kit.io import load_form, load_lattice
from borcherds_kit.lattice import cusp_data, isotropic_line
from borcherds_kit.product import chamber_of, product_expand, reduce_f0

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import fixtures  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("job_id, argv", workloads.CLI_JOBS,
                         ids=[job_id for job_id, _ in workloads.CLI_JOBS])
def test_cli_job_prints_its_golden(capsys, monkeypatch, job_id, argv):
    monkeypatch.chdir(ROOT)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == workloads.golden(f"cli-{job_id}.txt")


@pytest.mark.parametrize("point", fixtures.CHAMBER_POINTS,
                         ids=[point["name"] for point in fixtures.CHAMBER_POINTS])
def test_chamber_point_bodies_match_their_goldens(point):
    lattice = load_lattice("e8-plus-2u")
    form, _ = load_form("e4sq-over-delta")
    data = cusp_data(lattice, isotropic_line(lattice))
    chamber = chamber_of(point["w"], reduce_f0(form, data), data)
    for cutoff in point["cutoffs"]:
        pe = product_expand(form, data, chamber, (0,) * 10, cutoff)
        assert workloads.body_text(pe) == workloads.golden(f"body-{point['name']}-{cutoff}.txt")


def test_knz_body_matches_its_golden():
    form, _ = load_form("knz-input")
    data = cusp_data(load_lattice("u-plus-u"), (1, 0, 0, 0))
    chamber = chamber_of((2, -1), reduce_f0(form, data), data)
    pe = product_expand(form, data, chamber, (0, -1), workloads.KNZ_CUTOFF)
    assert workloads.body_text(pe) == workloads.golden(f"body-knz-{workloads.KNZ_CUTOFF}.txt")
