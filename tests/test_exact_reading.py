"""Every number a public entry point is given is read by one rule,
`linalg.exact_rational` / `exact_int`: ints and Fractions as they are, an
integral float as its int, and anything else ValueError."""

import time
from fractions import Fraction
from functools import cache

import pytest

from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
from borcherds_kit.cyclotomic import CycScalar, e, sqrt_positive_int
from borcherds_kit.divisors import EmbeddingData, fourier_splitting_holds, modularity_pairing
from borcherds_kit.forms import WHForm
from borcherds_kit.lattice import (
    GramLattice,
    cusp_data,
    direct_sum,
    discriminant_form,
    glue_lattice,
)
from borcherds_kit.linalg import rational_gcd
from borcherds_kit.product import (
    ProductExpansion,
    WeylChamber,
    chamber_of,
    check_weyl_integrality,
    enumerate_walls,
    product_expand,
    reduce_f0,
)
from borcherds_kit.qseries import (
    FracQSeries,
    LatticeQSeries,
    delta_series,
    eisenstein,
    j_series,
    lattice_binomial,
)
from borcherds_kit.weil import build_weil_rep

A1 = GramLattice([[2]], name="A1")
A2 = GramLattice([[2, -1], [-1, 2]], name="A2")
U = GramLattice([[0, 1], [1, 0]], name="U")
UU = direct_sum([U, U], name="U+U")
CUSP_UU = cusp_data(UU, (1, 0, 0, 0))
V0 = CUSP_UU.v0
BAD = (0.1, 0.5, float("inf"), float("nan"), "1/2")


def knz_form(prec):
    """The KNZ input j(tau) - 744 on U+U: principal part q^-1, no constant."""
    j = j_series(prec)
    coeffs = {-1: 1, **{n: j.coefficient(n) for n in range(1, prec + 1)}}
    return WHForm.from_scalar_series(discriminant_form(UU), 0, FracQSeries(coeffs, prec + 1))


KNZ = knz_form(11)
KNZ0 = reduce_f0(KNZ, CUSP_UU)
CHAMBER = chamber_of((2, -1), KNZ0, CUSP_UU)
SERIES = LatticeQSeries(V0, (2, -1), 6, {(0, 1): 2, (1, 1): 3})
PAIRED = WHForm(discriminant_form(U), 0, {(-1, ()): 1, (1, ()): 5}, 2)
FSERIES = FracQSeries({-1: 1, 0: 3, 2: 5}, 4)
ZETA = e(Fraction(1, 5))
SPLIT = WHForm.from_scalar_series(discriminant_form(UU), 0, delta_series(9).inverse() * 24)


@cache
def embedding():
    """The Niemeier pair N(A1^24), N(A2^12) with thetas to q^3."""
    n1 = glue_lattice([A1] * 24, [tuple((c,) for c in r) for r in binary_golay_generators()])
    n2 = glue_lattice([A2] * 12, [tuple((c,) for c in r) for r in ternary_golay_generators()])
    return EmbeddingData(n1, n2, 3)


def _thetas(data):
    return data.precision, data.theta1, data.theta2


def _weil(rep):
    return rep.sig8, rep.level, rep.t, rep.z


def _cyc(c):
    return c.conductor, c.coeffs


# (parameter, call with the number x in that place, an integral good value);
# each call returns a value that compares by ==
ENTRY_POINTS = [
    ("enumerate_walls-w", lambda x: enumerate_walls(KNZ0, CUSP_UU, (x, -1), 2), 2),
    ("enumerate_walls-radius", lambda x: enumerate_walls(KNZ0, CUSP_UU, (2, -1), x), 2),
    ("chamber_of-w", lambda x: chamber_of((x, -1), KNZ0, CUSP_UU).wall_signs, 2),
    ("chamber_of-radius", lambda x: chamber_of((2, -1), KNZ0, CUSP_UU, x).wall_signs, 3),
    ("WeylChamber-w", lambda x: WeylChamber((x, -1), {}).w, 2),
    ("check_weyl_integrality-rho", lambda x: check_weyl_integrality((0, x), CUSP_UU), -1),
    ("product_expand-weyl",
     lambda x: product_expand(KNZ, CUSP_UU, CHAMBER, (0, x), 3).shifted_coefficients(), -1),
    ("product_expand-cutoff",
     lambda x: product_expand(KNZ, CUSP_UU, CHAMBER, (0, -1), x).shifted_coefficients(), 3),
    ("ProductExpansion-weyl_exponent",
     lambda x: ProductExpansion(SERIES, (0, x), 1, 0).weyl_exponent, -1),
    ("LatticeQSeries-w", lambda x: LatticeQSeries(V0, (x, -1), 6, {(0, 1): 2}), 2),
    ("LatticeQSeries-cutoff", lambda x: LatticeQSeries(V0, (2, -1), x, {(0, 1): 2}), 6),
    ("LatticeQSeries-alpha", lambda x: LatticeQSeries(V0, (2, -1), 6, {(0, x): 2}), 1),
    ("LatticeQSeries-coefficient", lambda x: LatticeQSeries(V0, (2, -1), 6, {(0, 1): x}), 2),
    ("LatticeQSeries.truncate-cutoff", lambda x: SERIES.truncate(x), 2),
    ("LatticeQSeries.coefficient-alpha", lambda x: SERIES.coefficient((x, 1)), 1),
    ("lattice_binomial-w", lambda x: lattice_binomial(V0, (x, -1), 6, (0, 1), 2, 3), 2),
    ("lattice_binomial-cutoff", lambda x: lattice_binomial(V0, (2, -1), x, (0, 1), 2, 3), 6),
    ("lattice_binomial-alpha", lambda x: lattice_binomial(V0, (2, -1), 6, (0, x), 2, 3), 1),
    ("lattice_binomial-zeta", lambda x: lattice_binomial(V0, (2, -1), 6, (0, 1), x, 3), 2),
    ("lattice_binomial-e", lambda x: lattice_binomial(V0, (2, -1), 6, (0, 1), 2, x), 3),
    ("eisenstein-k", lambda x: eisenstein(x, 3), 4),
    ("eisenstein-b", lambda x: eisenstein(4, x), 3),
    ("delta_series-b", delta_series, 3),
    ("j_series-b", j_series, 5),
    ("CycScalar-conductor", lambda x: _cyc(CycScalar(x, {1: 1})), 5),
    ("CycScalar-exponent", lambda x: _cyc(CycScalar(5, {x: 1})), 2),
    ("CycScalar-coefficient", lambda x: _cyc(CycScalar(5, {1: x})), 3),
    ("CycScalar.from_rational", lambda x: _cyc(CycScalar.from_rational(x)), 3),
    ("CycScalar.root_of_unity", lambda x: _cyc(CycScalar.root_of_unity(x)), 1),
    ("e", lambda x: _cyc(e(x)), -1),
    ("sqrt_positive_int", lambda x: _cyc(sqrt_positive_int(x)), 12),
    ("build_weil_rep-sig8",
     lambda x: _weil(build_weil_rep(discriminant_form(GramLattice([[-2, 1], [1, -2]])), x)), 6),
    ("EmbeddingData-precision",
     lambda x: _thetas(EmbeddingData(embedding().lambda1, embedding().lambda2, x)), 3),
    ("fourier_splitting_holds-through",
     lambda x: fourier_splitting_holds(SPLIT, embedding(), x), 1),
    ("modularity_pairing-value", lambda x: modularity_pairing(PAIRED, {(1, ()): x}), 2),
    ("rational_gcd", lambda x: rational_gcd([x, 4]), 6),
    # operators read their scalar operand by the same rule
    ("LatticeQSeries*", lambda x: SERIES * x, 2),
    ("FracQSeries*", lambda x: FSERIES * x, 2),
    ("FracQSeries+", lambda x: FSERIES + x, 2),
    ("FracQSeries-", lambda x: FSERIES - x, 2),
    ("FracQSeries**", lambda x: FSERIES ** x, 2),
    ("CycScalar*", lambda x: _cyc(ZETA * x), 2),
    ("CycScalar+", lambda x: _cyc(ZETA + x), 2),
    ("CycScalar-", lambda x: _cyc(ZETA - x), 2),
    ("CycScalar/", lambda x: _cyc(ZETA / x), 2),
    ("CycScalar**", lambda x: _cyc(ZETA ** x), 2),
    ("CycScalar==", lambda x: CycScalar.from_rational(1) == x, 1),
]


@pytest.mark.parametrize("param, call, good", ENTRY_POINTS,
                         ids=[p for p, _, _ in ENTRY_POINTS])
def test_every_entry_point_reads_numbers_exactly(param, call, good):
    # an integral float is its int
    assert call(float(good)) == call(good)
    # anything else raises ValueError at once: no TypeError, no MemoryError,
    # and no walk or expansion on a binary fraction
    for bad in BAD:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="expected an integer"):
            call(bad)
        assert time.perf_counter() - start < 1, (param, bad)


def test_floats_no_longer_read_as_binary_fractions():
    # besides the table's rows (e(0.1) asked for a conductor of 2^55, and a
    # zeta of 0.5 gave float coefficients): CycScalar read 2.5 as conductor 2,
    # and chamber_of walked at w = (1/2, -2476979795053773/2251799813685248)
    with pytest.raises(ValueError, match="expected an integer"):
        CycScalar(2.5, {1: 1})
    with pytest.raises(ValueError, match="expected an integer"):
        chamber_of((0.5, -1.1), KNZ0, CUSP_UU)
    # an exponent read exactly but off the dual grid still has coefficient 0
    assert SERIES.coefficient((Fraction(1, 3), 1)) == 0
    # CycScalar == 1.0 was False; series * 2.0 raised AttributeError
    assert CycScalar.from_rational(1) == 1.0
    assert SERIES * 2.0 == SERIES + SERIES


def test_a_number_added_to_a_lattice_series_raises_type_error():
    # a LatticeQSeries has no constant to add a number to (this was an
    # AttributeError)
    for x in (1, 1.0, Fraction(1, 2)):
        with pytest.raises(TypeError, match="cannot add"):
            SERIES + x
        with pytest.raises(TypeError, match="cannot add"):
            SERIES - x


def test_knz_job_with_integral_floats_matches_ints():
    form = knz_form(19)
    f0 = reduce_f0(form, CUSP_UU)
    by_int = chamber_of((2, -1), f0, CUSP_UU, 2)
    by_float = chamber_of((2.0, -1.0), f0, CUSP_UU, 2.0)
    assert repr(by_float) == repr(by_int)
    assert by_float.wall_signs == by_int.wall_signs
    assert (product_expand(form, CUSP_UU, by_float, (0.0, -1.0), 12.0).shifted_coefficients()
            == product_expand(form, CUSP_UU, by_int, (0, -1), 12).shifted_coefficients())


@pytest.mark.parametrize("call", [
    lambda v: enumerate_walls(KNZ0, CUSP_UU, v, 2),
    lambda v: chamber_of(v, KNZ0, CUSP_UU),
    lambda v: product_expand(KNZ, CUSP_UU, WeylChamber(v, {}), (0, -1), 3),
    lambda v: LatticeQSeries(V0, v, 6, {}),
    lambda v: LatticeQSeries(V0, (2, -1), 6, {v: 1}),
    lambda v: SERIES.coefficient(v),
    lambda v: lattice_binomial(V0, v, 6, (0, 1), 1, 3),
    lambda v: lattice_binomial(V0, (2, -1), 6, v, 1, 3),
    lambda v: ProductExpansion(SERIES, v, 1, 0),
], ids=["enumerate_walls-w", "chamber_of-w", "WeylChamber-w", "LatticeQSeries-w",
        "LatticeQSeries-alpha", "LatticeQSeries.coefficient-alpha", "lattice_binomial-w",
        "lattice_binomial-alpha", "ProductExpansion-weyl_exponent"])
def test_vectors_of_the_wrong_length_raise(call):
    # V0 has rank 2; (2, -1, 0) and (0, 1, 0) extend a valid vector by a zero,
    # and (1/3, 1, 0) is off the dual grid as well.
    # test_product.py::test_weyl_vector_of_wrong_length covers the Weyl vector
    for v in ((2, -1, 0), (0, 1, 0), (Fraction(1, 3), 1, 0), (1,), ()):
        with pytest.raises(ValueError, match=f"expected 2 coordinates, got {len(v)}"):
            call(v)
