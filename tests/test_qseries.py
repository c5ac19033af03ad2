import random
from fractions import Fraction
from functools import reduce
from math import ceil
from operator import mul

import pytest

from borcherds_kit.cyclotomic import CycScalar, e
from borcherds_kit.forms import WHForm, divide_by_24delta
from borcherds_kit.io import load_form
from borcherds_kit.lattice import GramLattice, discriminant_form
from borcherds_kit.linalg import _power
from borcherds_kit.qseries import (
    FracQSeries,
    LatticeQSeries,
    _binomial,
    delta_series,
    eisenstein,
    j_series,
    lattice_binomial,
)


def delta_by_jacobi(b):
    """Delta as q * (eta^3 / q^(1/8))^8 on plain int dicts.

    eta(tau)^3 = q^(1/8) * sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2), so Delta =
    q * (sum ...)^8.  This is the identity `delta_series` computes with, so
    it checks the FracQSeries products, not the formula;
    `former_delta_series` (Euler's pentagonal product) checks the formula.
    """
    cube = {}
    k = 0
    while k * (k + 1) // 2 <= b:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    acc = {0: 1}
    for _ in range(8):
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in cube.items():
                if e1 + e2 <= b:
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        acc = nxt
    return {n + 1: c for n, c in acc.items() if c != 0 and n + 1 <= b}


def former_delta_series(b):
    """The former delta_series: (prod (1-q^n))^24 by Euler's pentagonal number
    theorem, four squarings and a product."""
    pent = {0: 1}
    m = 1
    while m * (3 * m - 1) // 2 < b:
        pent[m * (3 * m - 1) // 2] = pent[m * (3 * m + 1) // 2] = (-1) ** m
        m += 1
    return (FracQSeries(pent, b) ** 24).shift(1)


def former_j_series(b):
    """The former j_series: E4 * E4 * E4 / Delta, on the former Delta."""
    e4 = eisenstein(4, b + 2)
    delta = former_delta_series(b + 3)
    j = (e4 * e4 * e4) * delta.inverse()
    return j.truncate(b + 1)


# tau(1..9), frozen from the Jacobi oracle above
TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744, 8: 84480,
       9: -113643}


def test_jacobi_oracle_self_check():
    assert delta_by_jacobi(9) == TAU


def test_delta_matches_jacobi_oracle():
    d = delta_series(9)
    oracle = delta_by_jacobi(9)
    for n in range(1, 10):
        assert d.coefficient(n) == oracle.get(n, 0)


def test_delta_examples():
    d = delta_series(4)
    assert d.coefficient(1) == 1
    assert d.coefficient(2) == -24
    assert d.coefficient(3) == 252
    assert d.coefficient(4) == -1472
    assert delta_series(6).coefficient(6) == -6048


def test_delta_ramanujan_tau():
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    d = delta_series(10)
    assert d.prec == 11
    assert d.coeffs == {n: t for n, t in enumerate(tau, 1)}


def test_delta_integral_and_multiplicative():
    d = delta_series(8)
    assert d.is_integral()
    assert d.coefficient(2) * d.coefficient(3) == d.coefficient(6)


def test_eisenstein():
    e4 = eisenstein(4, 2)
    assert e4.coefficient(0) == 1
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 2160
    e6 = eisenstein(6, 1)
    assert e6.coefficient(1) == -504
    with pytest.raises(ValueError):
        eisenstein(8, 2)


def test_e4_cubed_minus_e6_squared():
    b = 6
    e4 = eisenstein(4, b)
    e6 = eisenstein(6, b)
    lhs = e4 ** 3 - e6 ** 2
    rhs = delta_series(b) * 1728
    for n in range(b + 1):
        assert lhs.coefficient(n) == rhs.coefficient(n)


def test_delta_matches_former_euler_product():
    # the former Delta is built once, to q^110, and truncated for each b
    former = former_delta_series(110)
    for b in range(1, 111):
        new, old = delta_series(b), former.truncate(b + 1)
        assert new.prec == old.prec == b + 1, b
        assert new.coeffs == old.coeffs, b


def test_j_matches_former_e4_cubed():
    # the former j is built once, to q^100, and truncated for each b
    former = former_j_series(100)
    for b in range(-2, 101):
        new, old = j_series(b), former.truncate(b + 1)
        assert new.prec == old.prec == b + 1, b
        assert new.coeffs == old.coeffs, b


def test_j_series():
    j = j_series(1)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    j5 = j_series(5)
    assert j5.coefficient(2) == 21493760
    assert j5.coefficient(3) == 864299970
    assert j5.coefficient(4) == 20245856256
    assert j5.coefficient(5) == 333202640600
    assert j_series(8).is_integral()


def test_exact_numbers_in_series():
    # ints, Fractions and integral floats are read exactly
    assert FracQSeries({1.0: 2.0, Fraction(1, 2): 3}, 3.0) == \
        FracQSeries({1: 2, Fraction(1, 2): 3}, 3)
    f = FracQSeries({0: 1, 1: 2}, 3)
    assert f.coefficient(1.0) == 2 and f.truncate(2.0) == f.truncate(2)
    assert f.shift(1.0) == f.shift(1)
    # anything else raises instead of entering as a binary fraction
    bad_calls = [lambda x: FracQSeries({x: 1}, 1), lambda x: FracQSeries({0: x}, 1),
                 lambda x: FracQSeries({}, x), f.coefficient, f.truncate, f.shift]
    for bad in (0.1, 0.5, float("inf"), float("nan"), "1/2"):
        for call in bad_calls:
            with pytest.raises(ValueError, match="expected an integer"):
                call(bad)


def test_series_equals_a_number_by_its_constant_term():
    # FracQSeries.one(5) == 1 was False, though FracQSeries.one(5) - 1 is
    # the zero series
    one = FracQSeries.one(5)
    assert one == 1 and 1 == one and one == Fraction(1) and one == 1.0
    assert one != 2 and one != 0 and FracQSeries({0: 1, 1: 1}, 5) != 1
    assert one - 1 == 0 and FracQSeries.zero(3) == 0 and FracQSeries.zero(-1) == 0
    assert FracQSeries({0: Fraction(1, 2)}, 2) == Fraction(1, 2)
    with pytest.raises(ValueError, match="expected an integer"):
        one == 0.5
    # a == b implies hash(a) == hash(b), so a number finds its series in a dict
    assert hash(one) == hash(1) and hash(FracQSeries.zero(3)) == hash(0)
    assert hash(FracQSeries({0: Fraction(1, 2)}, 2)) == hash(Fraction(1, 2))
    assert {one: "one"}[1] == "one"
    series = [FracQSeries({0: 1, 1: 2}, 3), FracQSeries({0: 1, 1: 2}, 4),
              FracQSeries({1: 2}, 3), one, FracQSeries.one(6)]
    for a in series:
        for b in series:
            assert (a == b) == (a is b)
    assert len(set(series)) == len(series)  # one(5) and one(6) share a hash


def test_equality_with_another_type_answers():
    # == read every operand by exact_rational, so these raised ValueError
    zeta = e(Fraction(1, 5))
    assert (zeta == None) is False and zeta != None  # noqa: E711
    assert zeta not in [None, [1], object()] and [None, zeta].index(zeta) == 1
    assert (FracQSeries.one(3) == None) is False and FracQSeries.one(3) != object()  # noqa: E711
    # a FracQSeries and a CycScalar compare by the CycScalar's rational value
    one = CycScalar.from_rational(1)
    assert FracQSeries.one(3) == one and one == FracQSeries.one(3)
    assert FracQSeries({0: -1}, 2) == CycScalar(4, {2: 1})  # zeta_4^2 = -1
    assert FracQSeries.zero(3) == CycScalar(5, {}) and FracQSeries.zero(3) != one
    assert FracQSeries.one(3) != zeta and zeta != FracQSeries.one(3)
    assert FracQSeries({0: 1, 1: 1}, 3) != one
    # a number or a string is still read by the one rule
    for x in (zeta, FracQSeries.one(3)):
        for bad in (0.5, float("inf"), float("nan"), "1/2", 1j):
            with pytest.raises(ValueError, match="expected an integer"):
                x == bad


def test_power_is_the_repeated_product():
    # x ** n for n in -3..9 against n-fold products of x (or of its
    # inverse), with the precision or conductor of the product; x ** 0 is one
    series = [FracQSeries({0: 1, 1: -2, 3: Fraction(1, 2)}, 6),
              FracQSeries({Fraction(1, 2): 2, 1: 1, Fraction(5, 2): -1}, 4),
              FracQSeries({Fraction(-1, 3): 1, Fraction(2, 3): 3, 2: -1}, 3)]
    scalars = [CycScalar.from_rational(Fraction(-3, 2)),
               CycScalar(5, {1: 2, 3: Fraction(-1, 3)}),
               CycScalar(12, {0: 1, 1: 1, 5: -2})]
    for x in series + scalars:
        one = FracQSeries.one(x.prec) if isinstance(x, FracQSeries) else CycScalar.from_rational(1)
        for n in range(-3, 10):
            expected = reduce(mul, [x if n > 0 else x.inverse()] * abs(n)) if n else one
            power = x ** n
            assert power == expected, (x, n)
            if isinstance(x, FracQSeries):
                assert power.prec == expected.prec and power.denominator == expected.denominator
            else:
                assert power.conductor == expected.conductor and power.coeffs == expected.coeffs


def test_mul_basic():
    one_plus = FracQSeries({0: 1, 1: 1}, 5)
    one_minus = FracQSeries({0: 1, 1: -1}, 5)
    prod = one_plus * one_minus
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0
    assert prod.coefficient(2) == -1


def test_invert_geometric():
    s = FracQSeries({0: 1, 1: -1}, 6)
    inv = s.inverse()
    for n in range(6):
        assert inv.coefficient(n) == 1


def test_invert_delta():
    d = delta_series(8)
    inv = d.inverse()
    assert inv.m_min == -1
    # 1/Delta = q^-1 + 24 + 324 q + 3200 q^2 + 25650 q^3 + 176256 q^4 + ...
    expected = {-1: 1, 0: 24, 1: 324, 2: 3200, 3: 25650, 4: 176256, 5: 1073720}
    for e, c in expected.items():
        assert inv.coefficient(e) == c
    prod = d * inv
    assert prod.coefficient(0) == 1
    for n in range(1, 5):
        assert prod.coefficient(n) == 0


def test_invert_constant():
    two = FracQSeries({0: 2}, 4)
    assert two.inverse().coefficient(0) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        FracQSeries.zero(3).inverse()


def test_delta_times_inverse_is_one():
    d = delta_series(7)
    assert (d * d.inverse()).coefficient(0) == 1


def test_fractional_exponents():
    s = FracQSeries({Fraction(1, 4): 2, Fraction(9, 4): 2}, 4)
    assert s.denominator == 4
    sq = s * s
    assert sq.coefficient(Fraction(1, 2)) == 4
    assert sq.coefficient(Fraction(5, 2)) == 8


def random_series(rng, prec=4, unit=False):
    coeffs = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for n in range(prec)}
    if unit:
        coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]))
    return FracQSeries(coeffs, prec)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.prec == rhs.prec and lhs.coeffs == rhs.coeffs
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(lhs.prec, rhs.prec)
        assert lhs.truncate(common).coeffs == rhs.truncate(common).coeffs
        lhs = a * b
        rhs = b * a
        assert lhs.coeffs == rhs.coeffs


def test_inverse_is_two_sided_random():
    rng = random.Random(12)
    for _ in range(50):
        a = random_series(rng, unit=True)
        inv = a.inverse()
        left = a * inv
        right = inv * a
        for n in range(int(min(left.prec, right.prec))):
            assert left.coefficient(n) == (1 if n == 0 else 0)
            assert right.coefficient(n) == (1 if n == 0 else 0)


def reference_inverse(series):
    """The former inverse: the geometric sum 1 - u + u^2 - ... of the tail."""
    m0 = series.m_min
    a0 = series.coeffs[m0]
    u = {e - m0: c / a0 for e, c in series.coeffs.items() if e != m0}
    span = series.prec - m0
    step = min(u) if u else span
    inv = {Fraction(0): Fraction(1)}
    if u:
        power = {Fraction(0): Fraction(1)}
        k = 0
        while k * step < span:
            k += 1
            nxt = {}
            for e1, c1 in power.items():
                for e2, c2 in u.items():
                    e = e1 + e2
                    if e < span:
                        nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
            power = nxt
            if not power:
                break
            for e, c in power.items():
                inv[e] = inv.get(e, Fraction(0)) + (-1) ** k * c
    out = {e - m0: c / a0 for e, c in inv.items()}
    return FracQSeries(out, span - m0)


def test_inverse_matches_geometric_sum_reference():
    rng = random.Random(31)
    seen = set()
    for trial in range(120):
        den = rng.choice([1, 2, 3, 4, 6])
        m_min = Fraction(rng.randint(-3, 3), den)
        lead = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 7]))
        coeffs = {m_min: lead}
        for _ in range(rng.randint(0, 6)):
            e = m_min + Fraction(rng.randint(1, 3 * den), den)
            coeffs[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        prec = m_min + Fraction(rng.randint(1, 4 * den), den)
        if trial % 4 == 0:
            prec = m_min + Fraction(rng.randint(1, 9), 5)  # off the exponent grid
        a = FracQSeries(coeffs, prec)
        inv = a.inverse()
        expected = reference_inverse(a)
        assert inv.coeffs == expected.coeffs
        assert inv.prec == expected.prec == a.prec - 2 * m_min
        assert inv.denominator == expected.denominator
        seen.add((den > 1, lead != 1, (m_min > 0) - (m_min < 0)))
    assert {(True, True, -1), (True, True, 0), (True, True, 1)} <= seen


def former_inverse(series):
    """The former FracQSeries.inverse: the reciprocal recurrence seeded with
    1, run on its own before any product."""
    if not series.coeffs:
        raise ZeroDivisionError("cannot invert the zero series")
    m0 = series.m_min
    a0 = series.coeffs[m0]
    grid = series.denominator
    span = series.prec - m0  # the normalized tail is known below span
    u = sorted((int((e - m0) * grid), c / a0)
               for e, c in series.coeffs.items() if e != m0)
    b = [Fraction(1)]
    for t in range(1, ceil(span * grid)):
        acc = 0
        for k, uk in u:
            if k > t:
                break
            acc -= uk * b[t - k]
        b.append(acc)
    out = {Fraction(t, grid) - m0: bt / a0 for t, bt in enumerate(b) if bt}
    return FracQSeries(out, span - m0)


def former_divide_by_24delta(form):
    """The former divide_by_24delta: each coset series times 1/(24 Delta)."""
    b = form.prec
    inv = former_inverse(delta_series(ceil(b) + 2)) * Fraction(1, 24)
    out = {}
    for mu in form.disc.cosets():
        series = form.coset_series(mu)
        if not series.coeffs:
            continue
        quot = series * inv
        for m, c in quot.coeffs.items():
            if m < b - 1:
                out[(m, mu)] = c
    return WHForm(form.disc, form.weight - 12, out, b - 1)


def grid_series(rng, den, unit=False):
    """A random series on the grid (1/den)Z, led by a nonzero term at a
    random m_min in [-3, 3]; every fourth precision is off that grid."""
    m_min = Fraction(rng.randint(-3, 3), den)
    coeffs = {m_min: Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 7]))}
    if unit:
        coeffs[m_min] = Fraction(1)
    for _ in range(rng.randint(0, 6)):
        coeffs[m_min + Fraction(rng.randint(1, 3 * den), den)] = \
            Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if rng.randrange(4) == 0:
        return FracQSeries(coeffs, m_min + Fraction(rng.randint(1, 9), 5))
    return FracQSeries(coeffs, m_min + Fraction(rng.randint(1, 4 * den), den))


def test_division_matches_product_by_former_inverse():
    # a / b against a * former_inverse(b), by repr: the same terms and the
    # same precision, min(P_a - m_b, P_b - 2 m_b + m_a)
    rng = random.Random(41)
    grids = (1, 2, 3, 4, 6)
    seen = set()
    for trial in range(300):
        b = grid_series(rng, rng.choice(grids))
        a = grid_series(rng, rng.choice(grids))
        if trial % 10 == 0:
            a = FracQSeries.zero(a.prec)
        quotient, expected = a / b, a * former_inverse(b)
        assert repr(quotient) == repr(expected), (a, b)
        assert quotient.prec == min(a.prec - b.m_min, b.prec - 2 * b.m_min + a.m_min)
        seen.add((a.denominator, b.denominator))
        seen.add(("laurent", a.m_min < 0, b.m_min < 0))
        seen.add(("binding", a.prec - b.m_min < b.prec - 2 * b.m_min + a.m_min))
        seen.add(("off grid", (a.prec * a.denominator).denominator > 1,
                  (b.prec * b.denominator).denominator > 1))
    assert {(x, y) for x in grids for y in grids} <= seen
    assert {("laurent", x, y) for x in (True, False) for y in (True, False)} <= seen
    assert {("binding", True), ("binding", False), ("off grid", True, True)} <= seen
    # the quotients the kit forms: 1/Delta, E4^2/Delta and E6^2/Delta
    delta = delta_series(13)
    for a in (FracQSeries.one(12), eisenstein(4, 12) ** 2, eisenstein(6, 12) ** 2):
        assert repr(a / delta) == repr(a * former_inverse(delta))


def test_inverse_and_negative_powers_match_former_inverse():
    rng = random.Random(42)
    for _ in range(80):
        b = grid_series(rng, rng.choice((1, 2, 3, 4, 6)))
        former = former_inverse(b)
        assert repr(b.inverse()) == repr(former)
        for n in range(1, 4):
            assert repr(b ** -n) == repr(_power(former, n, FracQSeries.one(b.prec)))
    assert repr(delta_series(101).inverse()) == repr(former_inverse(delta_series(101)))


def test_division_by_zero_and_by_a_number():
    a = FracQSeries({-1: 1, 0: 2}, 4)
    for zero in (FracQSeries.zero(3), FracQSeries.zero(-1)):
        with pytest.raises(ZeroDivisionError, match="zero series"):
            a / zero
    for other in (2, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            a / other
    with pytest.raises(TypeError):
        2 / a
    # as for zeta * series, CycScalar's reflected operation reads the series
    # as a number
    with pytest.raises(ValueError, match="expected an integer"):
        a / CycScalar.from_rational(2)


def test_divide_by_24delta_matches_former_body():
    forms = [load_form(name)[0] for name in ("one-over-delta", "one-over-delta-x24",
                                             "knz-input", "e4sq-over-delta",
                                             "e4sq-over-delta-x24")]
    # two cosets on the grid (1/4)Z: Q = 1/4 on the nonzero coset of A1
    a1 = discriminant_form(GramLattice([[2]], name="A1"))
    forms.append(WHForm(a1, Fraction(1, 2), {(Fraction(-3, 4), (1,)): 1, (-1, (0,)): 2,
                                             (0, (0,)): 3, (Fraction(1, 4), (1,)): -5,
                                             (Fraction(9, 4), (1,)): 7}, 11))
    for form in forms:
        for prec in (Fraction(3, 2), 2, 11, form.prec):
            if prec > form.prec:
                continue
            f = WHForm(form.disc, form.weight, form.coefficients, prec)
            new, old = divide_by_24delta(f), former_divide_by_24delta(f)
            assert new == old and new.prec == prec - 1
            assert repr(sorted(new.coefficients.items())) == \
                repr(sorted(old.coefficients.items()))


U_GRAM = GramLattice(((0, 1), (1, 0)), name="U")
W = (2, -1)


def test_lattice_binomial_basic():
    alpha = (1, 1)
    s = lattice_binomial(U_GRAM, W, 6, alpha, 1, 1)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 1)) == -1
    t = lattice_binomial(U_GRAM, W, 6, alpha, 1, -1)
    prod = s * t
    assert prod.coefficient((0, 0)) == 1
    assert prod.coefficient((1, 1)) == 0
    assert prod.coefficient((2, 2)) == 0


def test_lattice_binomial_power_24():
    # coefficient of q_{2 alpha} in (1 - q_alpha)^24 is C(24, 2) = 276
    alpha = (1, 1)
    s = lattice_binomial(U_GRAM, W, 2, alpha, 1, 24)
    assert s.coefficient((2, 2)) == 276


def test_lattice_binomial_geometric():
    alpha = (-1, 1)  # grading 3 with w = (2, -1)
    s = lattice_binomial(U_GRAM, W, 10, alpha, 1, -1)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((-1, 1)) == 1
    assert s.coefficient((-2, 2)) == 1
    assert s.coefficient((-3, 3)) == 1
    assert s.coefficient((-4, 4)) == 0  # grading 12 > cutoff


def test_lattice_binomial_inverse_pairs_random():
    rng = random.Random(13)
    for _ in range(50):
        a = rng.randint(-3, 3)
        b = rng.randint(max(1, a + 1), 4)  # ensure positive grading cone membership
        alpha = (a, b)
        if U_GRAM.bilinear(alpha, W) <= 0:
            continue
        e = rng.randint(1, 6)
        s = lattice_binomial(U_GRAM, W, 8, alpha, 1, e)
        t = lattice_binomial(U_GRAM, W, 8, alpha, 1, -e)
        prod = s * t
        zero = tuple([Fraction(0)] * 2)
        for key, val in prod.coeffs.items():
            assert val == (1 if key == zero else 0)


def test_lattice_series_times_a_cyclotomic_scalar():
    # the scalar branch raised "expected an integer, got z5^1"
    zeta = e(Fraction(1, 5))
    assert (LatticeQSeries.one(U_GRAM, W, 5) * zeta).coeffs == {(0, 0): zeta}
    s = lattice_binomial(U_GRAM, W, 6, (1, 1), zeta, 2)  # 1 - 2 zeta q + zeta^2 q^2
    assert (s * zeta).coeffs == {(0, 0): zeta, (1, 1): -2 * zeta ** 2,
                                 (2, 2): zeta ** 3}
    assert s * zeta ** 4 * zeta == s
    rational = lattice_binomial(U_GRAM, W, 6, (1, 1), 1, 2)  # 1 - 2q + q^2
    assert (rational * zeta).coeffs == {(0, 0): zeta, (1, 1): -2 * zeta, (2, 2): zeta}
    assert rational * zeta * (zeta ** 4) == rational
    # the reflected product raised "expected an integer, got LatticeQSeries(...)"
    one = LatticeQSeries.one(U_GRAM, W, 5)
    assert (zeta * one).coeffs == (one * zeta).coeffs == {(0, 0): zeta}
    assert (zeta * s).coeffs == (s * zeta).coeffs
    assert (zeta ** 4) * (zeta * rational) == rational
    # FracQSeries coefficients are rational, so a CycScalar does not scale one
    with pytest.raises(ValueError, match="expected an integer"):
        zeta * FracQSeries.one(3)


def test_grading_mismatch_rejected():
    s = lattice_binomial(U_GRAM, W, 4, (1, 1), 1, 1)
    t = lattice_binomial(U_GRAM, (3, -1), 4, (1, 1), 1, 1)
    with pytest.raises(ValueError):
        s * t
    with pytest.raises(ValueError):
        lattice_binomial(U_GRAM, W, 4, (1, 0), 1, 1)  # grading -1


def test_lattice_series_validates_only_in_the_public_constructor(monkeypatch):
    with pytest.raises(ValueError, match="nonpositive grading"):
        LatticeQSeries(U_GRAM, W, 6, {(1, 0): 1})  # grading -1
    with pytest.raises(ValueError, match="off the grid"):
        LatticeQSeries(U_GRAM, W, 6, {(Fraction(1, 2), 1): 1})  # U is unimodular
    with pytest.raises(ValueError, match="light cone"):
        LatticeQSeries(U_GRAM, (1, 1), 6, {})
    s = lattice_binomial(U_GRAM, W, 6, (1, 1), 1, -1)
    assert s.coefficient((Fraction(1, 2), 1)) == 0
    constructed = []
    real_init = LatticeQSeries.__init__

    def counted(self, *args):
        constructed.append(args)
        real_init(self, *args)

    monkeypatch.setattr(LatticeQSeries, "__init__", counted)
    prod = (s * s + s).truncate(4) * 3
    assert constructed == []
    # integer exponents and coefficients inside; Fractions in `coeffs`
    assert all(type(x) is int for a in prod._terms for x in a)
    assert all(type(c) is int and type(g) is int for c, g in prod._terms.values())
    assert prod.coeffs == {(Fraction(k), Fraction(k)): Fraction(3 * (k + 2))
                           for k in range(5)}
    assert all(type(c) is Fraction for c in prod.coeffs.values())


def former_binomial(e, k):
    """The hand-rolled C(e, k) over Fraction that math.comb replaced."""
    num = 1
    for i in range(k):
        num *= e - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return Fraction(num, den)


def test_binomial_matches_former_loop():
    for e in range(-12, 13):
        for k in range(13):
            value = _binomial(e, k)
            assert type(value) is int
            assert value == former_binomial(e, k), (e, k)
