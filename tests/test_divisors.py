from fractions import Fraction

import pytest

from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
from borcherds_kit.divisors import (
    OMEGA,
    DivisorExpr,
    EmbeddingData,
    borcherds_relation,
    embedding_trick,
    fourier_splitting_holds,
    modularity_pairing,
    pullback,
    pullback_expr,
    relation_ideal,
)
from borcherds_kit.forms import WHForm
from borcherds_kit.lattice import (
    GramLattice,
    direct_sum,
    discriminant_form,
    glue_lattice,
)
from borcherds_kit.qseries import delta_series, eisenstein

A1 = GramLattice([[2]], name="A1")
A2 = GramLattice([[2, -1], [-1, 2]], name="A2")
U = GramLattice([[0, 1], [1, 0]], name="U")
UU = direct_sum([U, U], name="U+U")
DISC_UU = discriminant_form(UU)

E8 = GramLattice([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
], name="E8")
E8UU = direct_sum([E8, U, U], name="E8+U+U")


def _niemeier_pair():
    n1 = glue_lattice([A1] * 24,
                      [tuple((c,) for c in r) for r in binary_golay_generators()],
                      name="Niemeier(A1^24)")
    n2 = glue_lattice([A2] * 12,
                      [tuple((c,) for c in r) for r in ternary_golay_generators()],
                      name="Niemeier(A2^12)")
    return n1, n2


import pytest as _pytest


@_pytest.fixture(scope="module")
def embedding():
    n1, n2 = _niemeier_pair()
    return EmbeddingData(n1, n2, precision=8)


def scalar_form(lattice, weight, series):
    return WHForm.from_scalar_series(discriminant_form(lattice), weight, series)


def test_divisor_expr_rewrites():
    expr = DivisorExpr.z(0, ())
    assert expr.terms == {OMEGA: Fraction(-1)}
    lat = direct_sum([U, A1])
    d = discriminant_form(lat)
    assert d.invariant_factors == (2,)
    assert DivisorExpr.z(0, (1,)).is_zero()
    assert DivisorExpr.z(-1, ()).is_zero()
    combo = DivisorExpr.z(1, (), 3) + DivisorExpr.z(1, (), -3)
    assert combo.is_zero()


def test_divisor_expr_linear():
    a = DivisorExpr.z(1, (), 2) + DivisorExpr.omega(5)
    b = a * Fraction(1, 2)
    assert b.coefficient((1, ())) == 1
    assert b.coefficient(OMEGA) == Fraction(5, 2)
    assert (a - a).is_zero()


def test_borcherds_relation_one_over_delta():
    f = scalar_form(UU, 0, delta_series(9).inverse())
    rel = borcherds_relation(f)
    assert rel == DivisorExpr.z(1, (), 1) + DivisorExpr.omega(-24)


def test_borcherds_relation_linear_in_f():
    f = scalar_form(UU, 0, delta_series(9).inverse())
    rel1 = borcherds_relation(f)
    rel3 = borcherds_relation(f.scale(3))
    assert rel3 == rel1 * 3
    zero = WHForm(DISC_UU, 0, {}, 1)
    assert borcherds_relation(zero).is_zero()


def test_borcherds_relation_requires_integral():
    f = scalar_form(UU, 0, delta_series(9).inverse()).scale(Fraction(1, 5))
    with pytest.raises(ValueError):
        borcherds_relation(f)


def test_pullback_rank_zero():
    zero_lat = GramLattice([])
    pb = pullback(Fraction(3, 2), ((), ()), zero_lat)
    assert pb == DivisorExpr.z(Fraction(3, 2), ())
    assert pullback(0, ((), ()), zero_lat) == DivisorExpr.omega(-1)


def test_pullback_unimodular_omega_term(embedding):
    n1 = embedding.lambda1
    assert pullback(0, ((), ()), n1) == DivisorExpr.omega(-1)
    pb = pullback(1, ((), ()), n1)
    assert pb == DivisorExpr.z(1, ()) + DivisorExpr.omega(-48)
    pb2 = pullback(2, ((), ()), n1)
    # r(0) Z(2) + r(1) Z(1) + r(2) Z(0) with Z(0,0) = -omega
    assert pb2.coefficient((2, ())) == 1
    assert pb2.coefficient((1, ())) == 48
    assert pb2.coefficient(OMEGA) == -195408


def test_pullback_nontrivial_coset():
    # Lambda = A1: D(V-hat) = D(A1) when V is unimodular; pulling back the
    # odd coset at m = Q + 1 picks up r_{A1}(1/4, g) Z(1, 0) + r_{A1}(5/4, g) Z(0,...)
    m = Fraction(5, 4)
    pb = pullback(m, ((), (1,)), A1)
    # Q values on the odd A1 coset: 1/4 (2 vectors), 9/4 (2 vectors), ...
    assert pb.coefficient((1, ())) == 2
    assert pb.coefficient((Fraction(1, 4), ())) == 0  # 5/4 - 9/4 < 0 dropped
    assert pb.coefficient(OMEGA) == 0
    pb2 = pullback(Fraction(9, 4), ((), (1,)), A1)
    assert pb2.coefficient((2, ())) == 2
    assert pb2.coefficient((1, ())) == 0
    assert pb2.coefficient(OMEGA) == -2  # m2 = 9/4 gives Z(0,0) twice


def test_pullback_expr_respects_omega(embedding):
    expr = DivisorExpr.z(1, (), 2) + DivisorExpr.omega(7)
    out = pullback_expr(expr, embedding.lambda1)
    assert out.coefficient((1, ())) == 2
    assert out.coefficient(OMEGA) == 7 - 2 * 48


def test_embedding_data_rejects_wrong_pair():
    n1, _ = _niemeier_pair()
    with pytest.raises(ValueError):
        EmbeddingData(n1, n1, precision=4)


def test_embedding_trick_24_over_delta(embedding):
    f = scalar_form(UU, 0, delta_series(9).inverse() * 24)
    assert embedding_trick(f, embedding) == borcherds_relation(f)


def test_embedding_trick_zero(embedding):
    zero = WHForm(DISC_UU, 0, {}, 5)
    assert embedding_trick(zero, embedding).is_zero()


def test_embedding_trick_e8uu(embedding):
    series = (eisenstein(4, 8) ** 2) * delta_series(10).inverse() * 24
    f = scalar_form(E8UU, -4, series)
    assert embedding_trick(f, embedding) == borcherds_relation(f)


def test_embedding_trick_vector_valued(embedding):
    # nontrivial discriminant group: V = U + U + A1, coefficients on both
    # cosets, everything divisible by 24 so the divided form stays integral
    lat = direct_sum([U, U, A1], name="U+U+A1")
    d = discriminant_form(lat)
    assert d.invariant_factors == (2,)
    f = WHForm(d, Fraction(-1, 2), {
        (Fraction(-1), (0,)): 24,
        (Fraction(-3, 4), (1,)): 24,
        (Fraction(0), (0,)): 48,
        (Fraction(1, 4), (1,)): 72,
        (Fraction(2), (0,)): 240,
        (Fraction(9, 4), (1,)): -24,
    }, 3)
    rel = borcherds_relation(f)
    assert rel.coefficient((1, (0,))) == 24
    assert rel.coefficient((Fraction(3, 4), (1,))) == 24
    assert rel.coefficient(OMEGA) == -48
    assert embedding_trick(f, embedding) == rel
    assert fourier_splitting_holds(f, embedding, 1)


def test_embedding_trick_rejects_unscaled(embedding):
    f = scalar_form(UU, 0, delta_series(9).inverse())
    with pytest.raises(ValueError):
        embedding_trick(f, embedding)


def test_fourier_splitting(embedding):
    for series, lat in [
        (delta_series(9).inverse(), UU),
        (delta_series(9).inverse() * 24, UU),
        ((eisenstein(4, 8) ** 2) * delta_series(10).inverse(), E8UU),
    ]:
        f = scalar_form(lat, 0, series)
        assert fourier_splitting_holds(f, embedding, 6)


def test_modularity_pairing_scalar():
    series = (eisenstein(4, 8) ** 2) * delta_series(10).inverse()
    f = scalar_form(E8UU, -4, series)
    assert f.coefficient(0, ()) == 504
    e6 = eisenstein(6, 1)
    values = {(0, ()): e6.coefficient(0), (1, ()): e6.coefficient(1)}
    assert modularity_pairing(f, values) == 0


def test_modularity_pairing_bilinear():
    series = (eisenstein(4, 8) ** 2) * delta_series(10).inverse()
    f = scalar_form(E8UU, -4, series)
    e6 = eisenstein(6, 1)
    values = {(0, ()): e6.coefficient(0), (1, ()): e6.coefficient(1)}
    assert modularity_pairing(f.scale(3), values) == 3 * modularity_pairing(f, values)
    doubled = {k: 2 * v for k, v in values.items()}
    assert modularity_pairing(f, doubled) == 2 * modularity_pairing(f, values)


def test_modularity_pairing_divisor_valued():
    f = scalar_form(UU, 0, delta_series(9).inverse())
    values = {(0, ()): DivisorExpr.z(0, ()), (1, ()): DivisorExpr.z(1, ())}
    paired = modularity_pairing(f, values)
    assert paired == borcherds_relation(f)
    _, contains = relation_ideal([f])
    assert contains(paired)


def test_modularity_pairing_missing_value():
    f = scalar_form(UU, 0, delta_series(9).inverse())
    with pytest.raises(KeyError):
        modularity_pairing(f, {(0, ()): Fraction(1)})


def test_modularity_pairing_zero_form():
    zero = WHForm(DISC_UU, 0, {}, 1)
    assert modularity_pairing(zero, {}) == 0


def test_relation_ideal_rank():
    inv = delta_series(9).inverse()
    f = scalar_form(UU, 0, inv)
    basis, contains = relation_ideal([f, f.scale(2)])
    assert len(basis) == 1
    assert contains(borcherds_relation(f) * Fraction(7, 3))
    assert not contains(DivisorExpr.z(1, ()))

    # distinct principal parts on U+U: independent relations
    inv2 = inv * inv  # 1/Delta^2: poles at -2 and -1
    f2 = scalar_form(UU, 0, inv2)
    basis2, contains2 = relation_ideal([f, f2])
    assert len(basis2) == 2
    assert contains2(borcherds_relation(f) - borcherds_relation(f2) * 5)
    assert not contains2(DivisorExpr.omega())

    empty_basis, empty_contains = relation_ideal([])
    assert empty_basis == []
    assert empty_contains(DivisorExpr())
    assert not empty_contains(DivisorExpr.omega())
