import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import borcherds_kit
from borcherds_kit import divisors as divisors_module
from borcherds_kit import forms as forms_module
from borcherds_kit import product as product_module

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
from borcherds_kit.forms import WHForm, divide_by_24delta
from borcherds_kit.lattice import (
    GramLattice,
    direct_sum,
    discriminant_form,
    glue_lattice,
)
from borcherds_kit.linalg import row_reduce, solve_rational, transpose
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
    assert DivisorExpr.z(0, (1,)) == DivisorExpr()
    assert DivisorExpr.z(-1, ()) == DivisorExpr()
    combo = DivisorExpr.z(1, (), 3) + DivisorExpr.z(1, (), -3)
    assert combo == DivisorExpr()


def test_divisor_expr_linear():
    a = DivisorExpr.z(1, (), 2) + DivisorExpr.omega(5)
    b = a * Fraction(1, 2)
    assert b.coefficient((1, ())) == 1
    assert b.coefficient(OMEGA) == Fraction(5, 2)
    assert a - a == DivisorExpr()


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
    assert borcherds_relation(zero) == DivisorExpr()


def test_form_sum_needs_equal_weights():
    # the sum used to keep the left operand's weight whatever the right's was
    f = scalar_form(UU, 0, delta_series(9).inverse())
    g = scalar_form(UU, -12, delta_series(9).inverse())
    assert f + f == f.scale(2)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="different weights"):
            a + b


def test_form_plus_a_number_raises_type_error():
    # 1 is no form: `+` answers NotImplemented and Python raises TypeError
    f = scalar_form(UU, 0, delta_series(9).inverse())
    for other in (1, Fraction(1, 2), None):
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            other + f


def test_form_equality_needs_the_same_group():
    # equal coefficient data on U+U and on E8+U+U: the sum raises, so the
    # two forms are not equal either; a second copy of U+U is the same group
    series = delta_series(9).inverse()
    f = scalar_form(UU, 0, series)
    g = scalar_form(direct_sum([E8, U, U]), 0, series)
    assert f.coefficients == g.coefficients
    with pytest.raises(ValueError, match="different discriminant groups"):
        f + g
    assert f != g and g != f
    assert f == scalar_form(direct_sum([U, U]), 0, series)


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
    assert embedding_trick(zero, embedding) == DivisorExpr()


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


def test_fourier_splitting_precision_edge(embedding):
    # theta1 and theta2 are read through FracQSeries.coefficient, which
    # raises past their precision instead of returning None
    f = scalar_form(UU, 0, delta_series(12).inverse() * 24)
    g = divide_by_24delta(f)
    pole = g.max_pole_order()
    largest = min(math.ceil(g.prec) - 1, embedding.precision - pole)
    assert largest + pole == embedding.precision  # the theta precision binds
    assert fourier_splitting_holds(f, embedding, largest)
    with pytest.raises(ValueError, match="not enough precision"):
        fourier_splitting_holds(f, embedding, largest + 1)
    for theta in (embedding.theta1, embedding.theta2):
        theta.coefficient(embedding.precision)
        with pytest.raises(ValueError):
            theta.coefficient(embedding.precision + 1)


# --- exact entry of symbols ---------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: DivisorExpr.z(1, (Fraction(3, 2),)),
    lambda: DivisorExpr.z(1, (1.9,)),
    lambda: DivisorExpr.z(0.1, ()),
    lambda: DivisorExpr.z(1, (), 0.1),
    lambda: DivisorExpr.omega(0.1),
    lambda: DivisorExpr({(1, (0.5,)): 1}),
    lambda: DivisorExpr({(Fraction(1, 3), (1,)): float("nan")}),
    lambda: DivisorExpr.z(1, (1,)) + DivisorExpr({(float("inf"), ()): 1}),
    lambda: DivisorExpr.z(1, (1,)) * 0.1,
    lambda: pullback(0.1, ((), ()), GramLattice([])),
], ids=["coset-3/2", "coset-1.9", "m-0.1", "coeff-0.1", "omega-0.1",
        "constructor-coset", "coeff-nan", "m-inf", "scalar-0.1", "pullback-m"])
def test_divisor_symbols_enter_exactly(build):
    with pytest.raises(ValueError):
        build()


def test_divisor_symbols_integral_floats_are_ints():
    one = DivisorExpr.z(1, (1,))
    assert DivisorExpr.z(1, (1.0,)) == one
    assert DivisorExpr.z(1.0, (Fraction(1),), 1.0) == one
    assert DivisorExpr({(Fraction(1), (1.0,)): Fraction(1)}) == one
    key, _ = one.sorted_items()[0]
    assert all(type(x) is int for x in key[1])
    assert one.coefficient((1, (1,))) == 1
    assert one.coefficient((1.0, (1.0,))) == 1
    assert one.coefficient((1, (Fraction(1),))) == 1
    for bad in ((1, (1.5,)), (1, (Fraction(3, 2),)), (0.1, (1,))):
        with pytest.raises(ValueError):
            one.coefficient(bad)


def test_divisor_lines_shared_by_repr():
    expr = (DivisorExpr.z(1, (1, 0)) + DivisorExpr.z(Fraction(1, 2), (0, 1), Fraction(2, 3))
            + DivisorExpr.omega(-3))
    assert expr.lines() == ["2/3 * Z(1/2, [0,1])", "1 * Z(1, [1,0])", "-3 * omega"]
    assert repr(expr) == " + ".join(expr.lines())
    assert DivisorExpr().lines() == ["0"]
    assert repr(DivisorExpr()) == "0"


def test_precision_error_lives_in_forms():
    assert (borcherds_kit.PrecisionError is product_module.PrecisionError
            is forms_module.PrecisionError)
    tree = ast.parse(Path(divisors_module.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "product" not in imported


# --- differential test against the former DivisorExpr -------------------
# The code below is the DivisorExpr, borcherds_relation, relation_ideal and
# cli._divisor_lines that the single-entry DivisorExpr replaced; it is the
# oracle for terms, order, relation bases and the CLI's line format.

class FormerDivisorExpr:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(key, Fraction(coeff))

    def _accumulate(self, key, coeff):
        if coeff == 0:
            return
        if key != OMEGA:
            m, mu = key
            m = Fraction(m)
            mu = tuple(int(x) for x in mu)
            if m < 0:
                return
            if m == 0:
                if any(mu):
                    return
                self._accumulate(OMEGA, -coeff)
                return
            key = (m, mu)
        self.terms[key] = self.terms.get(key, Fraction(0)) + coeff
        if self.terms[key] == 0:
            del self.terms[key]

    @classmethod
    def z(cls, m, mu=(), coeff=1):
        out = cls()
        out._accumulate((m, tuple(mu)), Fraction(coeff))
        return out

    @classmethod
    def omega(cls, coeff=1):
        out = cls()
        out._accumulate(OMEGA, Fraction(coeff))
        return out

    def __add__(self, other):
        out = FormerDivisorExpr()
        out.terms = dict(self.terms)
        for key, coeff in other.terms.items():
            out.terms[key] = out.terms.get(key, Fraction(0)) + coeff
            if out.terms[key] == 0:
                del out.terms[key]
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        out = FormerDivisorExpr()
        if scalar:
            out.terms = {k: v * scalar for k, v in self.terms.items()}
        return out

    def sorted_items(self):
        def sort_key(item):
            key, _ = item
            if key == OMEGA:
                return (1,)
            return (0, key[0], key[1])
        return sorted(self.terms.items(), key=sort_key)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_items():
            if key == OMEGA:
                parts.append(f"{coeff} * omega")
            else:
                m, mu = key
                parts.append(f"{coeff} * Z({m}, {list(mu)})")
        return " + ".join(parts)


def former_borcherds_relation(form):
    out = FormerDivisorExpr()
    for (m, mu), c in form.principal_part().items():
        out._accumulate((-m, mu), c)
    out._accumulate(OMEGA, -form.coefficient(0, form.disc.zero))
    return out


def former_relation_ideal(forms):
    relations = [former_borcherds_relation(f) for f in forms]
    keys = sorted({k for r in relations for k in r.terms},
                  key=lambda k: (1,) if k == OMEGA else (0, k[0], k[1]))
    rows = [[r.terms.get(k, Fraction(0)) for k in keys] for r in relations]
    reduced, pivots = row_reduce(rows, len(keys))
    basis_rows = reduced[:len(pivots)]
    basis = []
    for row in basis_rows:
        expr = FormerDivisorExpr()
        expr.terms = {k: v for k, v in zip(keys, row) if v != 0}
        basis.append(expr)
    columns = transpose(basis_rows)

    def contains(expr):
        if any(k not in keys for k in expr.terms):
            return False
        vec = [expr.terms.get(k, Fraction(0)) for k in keys]
        return solve_rational(columns, vec) is not None

    return basis, contains


def former_divisor_lines(expr):
    lines = []
    for key, coeff in expr.sorted_items():
        if key == "omega":
            lines.append(f"{coeff} * omega")
        else:
            m, mu = key
            mu_text = ",".join(str(x) for x in mu)
            lines.append(f"{coeff} * Z({m}, [{mu_text}])")
    if not lines:
        lines.append("0")
    return lines


def _random_rational(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))


def _assert_same(new, former):
    assert new.terms == former.terms
    assert all(type(x) is int for k in new.terms if k != OMEGA for x in k[1])
    assert new.sorted_items() == former.sorted_items()
    assert new.lines() == former_divisor_lines(former)
    assert repr(new).replace(", ", ",") == repr(former).replace(", ", ",")


def test_divisor_expr_matches_former_code():
    rng = random.Random(20261018)
    cosets = [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 1), (2, -1)]
    for _ in range(250):
        pool = [(DivisorExpr(), FormerDivisorExpr())]
        for _ in range(rng.randint(1, 12)):
            op = rng.choice(["z", "z", "omega", "add", "sub", "mul"])
            if op == "z":
                m = rng.choice([rng.randint(-2, 3),
                                Fraction(rng.randint(-4, 8), rng.choice([2, 3, 4]))])
                mu, c = rng.choice(cosets), _random_rational(rng)
                pair = (DivisorExpr.z(m, mu, c), FormerDivisorExpr.z(m, mu, c))
            elif op == "omega":
                c = _random_rational(rng)
                pair = (DivisorExpr.omega(c), FormerDivisorExpr.omega(c))
            elif op == "mul":
                (a, fa), s = rng.choice(pool), _random_rational(rng)
                pair = (a * s if rng.random() < 0.5 else s * a, fa * s)
            else:
                (a, fa), (b, fb) = rng.choice(pool), rng.choice(pool)
                pair = (a + b, fa + fb) if op == "add" else (a - b, fa - fb)
            _assert_same(*pair)
            pool.append(pair)


def test_relation_ideal_matches_former_code():
    # U+U+A1+A1: D = Z/2 x Z/2 with Q = 0, 1/4, 1/4, 1/2 on the four cosets
    lat = direct_sum([U, U, A1, A1], name="U+U+A1+A1")
    disc = discriminant_form(lat)
    cosets = list(disc.cosets())
    rng = random.Random(17)
    for _ in range(60):
        forms = []
        for _ in range(rng.randint(0, 4)):
            coeffs = {}
            for _ in range(rng.randint(0, 4)):
                mu = rng.choice(cosets)
                m = disc.q(mu) - rng.randint(1, 3)
                coeffs[(m, mu)] = rng.randint(-5, 5)
            coeffs[(Fraction(0), disc.zero)] = rng.randint(-5, 5)
            forms.append(WHForm(disc, 0, coeffs, 1))
        basis, contains = relation_ideal(forms)
        former_basis, former_contains = former_relation_ideal(forms)
        assert len(basis) == len(former_basis)
        for new, former in zip(basis, former_basis):
            _assert_same(new, former)
        probes = [borcherds_relation(f) * rng.randint(-2, 2) for f in forms]
        probes += [DivisorExpr.omega(), DivisorExpr.z(1, cosets[-1])]
        probes.append(sum(probes[:-2], DivisorExpr()))
        for probe in probes:
            former = FormerDivisorExpr(probe.terms)
            assert contains(probe) == former_contains(former)
