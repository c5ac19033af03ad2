import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from borcherds_kit import weil
from borcherds_kit.codes import BINARY_GOLAY_POLY, TERNARY_GOLAY_POLY, _divides_x_n_minus_1
from borcherds_kit.cyclotomic import (
    CycScalar,
    _monic_divmod,
    _sqrt_prime,
    cyclotomic_polynomial,
    e,
    sqrt_positive_int,
)
from borcherds_kit.forms import WHForm, divide_by_24delta
from borcherds_kit.lattice import GramLattice, direct_sum, discriminant_form
from borcherds_kit.linalg import mat_mul
from borcherds_kit.qseries import delta_series
from borcherds_kit.weil import (
    WeilRepData,
    _pack_matrix,
    _packed_mat_mul,
    braid_holds,
    build_weil_rep,
    conjugate_rep,
    milgram_sum,
    s_fourth_power_scalar,
)

A1 = GramLattice([[2]], name="A1")
A2 = GramLattice([[2, -1], [-1, 2]], name="A2")
U = GramLattice([[0, 1], [1, 0]], name="U")
A1A2 = direct_sum([A1, A2], name="A1+A2")


def test_cyc_scalar_basics():
    i = e(Fraction(1, 4))
    assert i * i == -1
    assert i ** 4 == 1
    assert (1 + i) * (1 - i) == 2
    assert e(Fraction(1, 3)) + e(Fraction(2, 3)) == -1
    z = e(Fraction(1, 5))
    assert z.inverse() * z == 1
    assert (z + 2).conjugate().conjugate() == z + 2


def test_cyc_scalar_equality_across_conductors():
    assert e(Fraction(1, 4)) == e(Fraction(2, 8))
    assert e(Fraction(3, 12)) == e(Fraction(1, 4))
    assert not e(Fraction(1, 8)) == e(Fraction(1, 4))


def test_cyc_scalar_random_field_axioms():
    rng = random.Random(31)
    for _ in range(40):
        def rand_scalar():
            m = rng.choice([1, 2, 3, 4, 6, 8, 12])
            return CycScalar(m, {rng.randrange(m): Fraction(rng.randint(-3, 3))
                                 for _ in range(2)})
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_sqrt_positive_int():
    for n in range(1, 201):
        assert sqrt_positive_int(n) ** 2 == n


# The former `CycScalar.__mul__`, copied under a new name: every term pair
# multiplied and added as Fractions, the reference of the integer product
# below.  Its rational branch now builds through the reducing constructor.
def _former_mul(self, other):
    if isinstance(other, (int, Fraction)):
        return CycScalar(self.conductor,
                         {e: c * other for e, c in self.coeffs.items()
                          if c * other != 0})
    a, b = self._pair(other)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return CycScalar(a.conductor, out)


def test_integer_mul_matches_former_fraction_loop():
    # random elements of Q(zeta_m), m = 1..60, with Fraction coefficients,
    # times elements of the same field, of a field of another conductor
    # (promoted to the least common one) and rationals, zero included
    rng = random.Random(47)

    def rand_scalar(m):
        return CycScalar(m, {rng.randrange(m): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                             for _ in range(rng.randint(0, m))})

    products = 0
    for m in range(1, 61):
        for _ in range(3):
            a = rand_scalar(m)
            other = rng.choice([d for d in range(1, 61) if lcm(m, d) <= 120])
            for b in (rand_scalar(m), rand_scalar(other), a,
                      Fraction(rng.randint(-5, 5), rng.randint(1, 5)), rng.randint(-3, 3)):
                new, old = a * b, _former_mul(a, b)
                assert (new.conductor, list(new.coeffs.items())) == \
                    (old.conductor, list(old.coeffs.items())), (a, b)
                products += not new.is_zero()
    assert products > 600  # not vacuous


def _assert_canonical(r):
    """r is stored as the constructor stores it: reduced, with no zero."""
    assert isinstance(r, CycScalar)
    assert CycScalar(r.conductor, r.coeffs).coeffs == r.coeffs, r
    assert all(c != 0 for c in r.coeffs.values()), r


def test_every_arithmetic_result_is_reduced():
    # + - * / ** inverse and conjugate on random elements of Q(zeta_m),
    # m = 1..60, with elements of the same field, of another conductor and
    # rationals, zero included, on either side
    rng = random.Random(48)

    def rand_scalar(m, terms):
        return CycScalar(m, {rng.randrange(-m, 2 * m): Fraction(rng.randint(-4, 4),
                                                                 rng.randint(1, 4))
                             for _ in range(rng.randint(0, terms))})

    def rand_divisor(m):
        x = rand_scalar(m, 3)
        return x if not x.is_zero() else rand_divisor(m)

    results = 0
    for m in range(1, 61):
        a = rand_scalar(m, m)
        other = rng.choice([d for d in range(1, 61) if lcm(m, d) <= 120])
        for b in (rand_scalar(m, m), rand_scalar(other, other), -a,
                  Fraction(rng.randint(-5, 5), rng.randint(1, 5)), rng.randint(-3, 3)):
            outs = [a + b, b + a, a - b, b - a, a * b, b * a, a ** 2, a ** 0]
            outs += [x.conjugate() for x in outs] + [-x for x in outs]
            for r in outs:
                _assert_canonical(r)
            results += len(outs)
        # the inverse solves a linear system of size phi(M): one division
        # per conductor, by ** -1, a rational over x and x over another field
        # in turn
        x = rand_divisor(m)
        inv = x ** -1 if m % 3 == 0 else 3 / x if m % 3 == 1 else rand_divisor(other) / x
        outs = [a / 3, inv, inv.conjugate(), inv * inv, -inv]
        for r in outs:
            _assert_canonical(r)
        results += len(outs)
    assert results > 3000  # not vacuous


def test_the_constructor_is_the_one_reducing_entry():
    assert CycScalar(4, {2: 1}) == -1
    assert CycScalar(4, {2: 1}).coeffs == {0: -1}
    assert CycScalar(3, {0: 1, 1: 1, 2: 1}).coeffs == {}
    with pytest.raises(TypeError):
        CycScalar(4, {2: 1}, reduced=True)
    with pytest.raises(TypeError):
        CycScalar.from_rational(1, 4)


def _former_sqrt_prime(p):
    if p == 2:
        return e(Fraction(1, 8)) + e(Fraction(-1, 8))
    gauss = CycScalar.from_rational(0)
    for a in range(p):
        gauss = gauss + e(Fraction(a * a, p))
    if p % 4 == 1:
        return gauss
    return e(Fraction(-1, 4)) * gauss


def test_gauss_sum_in_one_step_matches_former_loop():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97):
        new, old = _sqrt_prime(p), _former_sqrt_prime(p)
        assert (new.conductor, new.coeffs) == (old.conductor, old.coeffs)


def test_cyclotomic_polynomial_cache_is_bounded():
    assert cyclotomic_polynomial.cache_info().maxsize == 128
    before = [cyclotomic_polynomial(m) for m in range(1, 301)]
    assert cyclotomic_polynomial.cache_info().currsize <= 128
    cyclotomic_polynomial.cache_clear()
    assert [cyclotomic_polynomial(m) for m in range(1, 301)] == before
    assert all(cyclotomic_polynomial(m) == _former_cyclotomic_polynomial(m)
               for m in range(1, 61))


def test_gauss_sum_sign_conventions():
    # sqrt(p) must be the positive real root; check via known identities:
    # (sqrt 2)^2 = 2 together with sqrt2 = zeta8 + zeta8^-1 pins positivity,
    # and for odd p the value squares correctly with the e(-1/4) twist
    assert sqrt_positive_int(2) == e(Fraction(1, 8)) + e(Fraction(-1, 8))
    s3 = sqrt_positive_int(3)
    # sqrt(3) = -i * (1 + 2 e(1/3)) = e(-1/4) * Gauss sum mod p=3
    assert s3 == e(Fraction(-1, 4)) * (1 + 2 * e(Fraction(1, 3)))


SIG8 = {"U": (U, 0), "A1": (A1, 1), "A2": (A2, 2), "A1+A2": (A1A2, 3)}
A1_CUBED = direct_sum([A1] * 3, name="A1^3")
A4 = GramLattice([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
                 name="A4")
D4 = GramLattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
                 name="D4")


# The CycScalar-matrix Weil code that the exponent representation replaced,
# kept as the reference of the differential tests below.  Its Q and [,] are
# the Fraction route the integer discriminant form replaced: the rank-n form
# on rational coset lifts, mod 1.

def _fraction_form(disc, c1, c2):
    x, y = disc.rep(c1), disc.rep(c2)
    return sum(Fraction(x[i]) * g * y[j] for i, row in enumerate(disc.lattice.gram)
               for j, g in enumerate(row))


def _fraction_pairing(disc, c1, c2):
    return _fraction_form(disc, c1, c2) % 1


def _fraction_q(disc, c):
    return (_fraction_form(disc, c, c) / 2) % 1


def _reference_matrices(disc, sig8):
    cosets = list(disc.cosets())
    rho_t = [[CycScalar.from_rational(0)] * len(cosets) for _ in cosets]
    for i, c in enumerate(cosets):
        rho_t[i][i] = e(_fraction_q(disc, c))
    front = e(Fraction(-sig8, 8)) / sqrt_positive_int(disc.order)
    rho_s = [[front * e(-_fraction_pairing(disc, c1, c2)) for c2 in cosets]
             for c1 in cosets]
    return rho_t, rho_s


def _reference_milgram_sum(disc):
    total = CycScalar.from_rational(0)
    for c in disc.cosets():
        total = total + e(_fraction_q(disc, c))
    return total


def _reference_braid_holds(rho_t, rho_s):
    st = mat_mul(rho_s, rho_t)
    return mat_mul(mat_mul(st, st), st) == mat_mul(rho_s, rho_s)


def _reference_s_fourth_power_scalar(rho_s):
    s2 = mat_mul(rho_s, rho_s)
    s4 = mat_mul(s2, s2)
    n = len(s4)
    scalar = s4[0][0]
    for i in range(n):
        for j in range(n):
            expected = scalar if i == j else CycScalar.from_rational(0)
            if not s4[i][j] == expected:
                return None
    return scalar


DIFFERENTIAL = {**SIG8, "A1^3": (A1_CUBED, 3)}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_exponent_rep_matches_cyc_scalar_reference(name):
    lat, sig = DIFFERENTIAL[name]
    disc = discriminant_form(lat)
    rep = build_weil_rep(disc, sig)
    cosets = list(disc.cosets())
    for i, mu in enumerate(cosets):
        assert Fraction(rep.t[i], rep.level) == _fraction_q(disc, mu)
        for j, nu in enumerate(cosets):
            assert Fraction(rep.z[i][j], rep.level) == (-_fraction_pairing(disc, mu, nu)) % 1
    assert repr(milgram_sum(disc)) == repr(_reference_milgram_sum(disc))
    rho_t, rho_s = _reference_matrices(disc, sig)
    # same conductors and coefficients, so the printed entries are identical
    assert [[repr(x) for x in row] for row in rep.rho_t] == \
        [[repr(x) for x in row] for row in rho_t]
    assert [[repr(x) for x in row] for row in rep.rho_s] == \
        [[repr(x) for x in row] for row in rho_s]
    conj = conjugate_rep(rep)
    assert [[repr(x) for x in row] for row in conj.rho_s] == \
        [[repr(x.conjugate()) for x in row] for row in rho_s]
    assert braid_holds(rep) is _reference_braid_holds(rho_t, rho_s) is True
    assert repr(s_fourth_power_scalar(rep)) == \
        repr(_reference_s_fourth_power_scalar(rho_s))
    # a representation built with any other signature, and so with the wrong
    # scalar e(-sig8/8)/sqrt|D|, fails the braid relation in both codes
    for wrong in range(8):
        if wrong == sig % 8:
            continue
        rho_t, rho_s = _reference_matrices(disc, wrong)
        bad = WeilRepData(disc, wrong, rep.t, rep.z)
        assert braid_holds(bad) is _reference_braid_holds(rho_t, rho_s) is False


def _z_perturbations(rep):
    """`rep` with one entry z_ij moved to z_ij + 1, for every i, j."""
    for i, row in enumerate(rep.z):
        for j in range(len(row)):
            z = [list(r) for r in rep.z]
            z[i][j] = (z[i][j] + 1) % rep.level
            yield WeilRepData(rep.disc, rep.sig8, rep.t, z)


def _t_perturbations(rep):
    """`rep` with one exponent t_i moved to t_i + 1, for every i."""
    for i in range(len(rep.t)):
        t = list(rep.t)
        t[i] = (t[i] + 1) % rep.level
        yield WeilRepData(rep.disc, rep.sig8, t, rep.z)


def test_braid_fails_for_a_perturbed_t_exponent():
    for lat, sig in (SIG8["A1"], SIG8["A2"], SIG8["A1+A2"], (A1_CUBED, 3)):
        rep = build_weil_rep(discriminant_form(lat), sig)
        assert all(not braid_holds(bad) for bad in _t_perturbations(rep))


def test_braid_fails_for_a_perturbed_z_exponent():
    for lat, sig in (SIG8["A1"], SIG8["A2"], SIG8["A1+A2"], (A1_CUBED, 3)):
        rep = build_weil_rep(discriminant_form(lat), sig)
        assert all(not braid_holds(bad) for bad in _z_perturbations(rep))


def test_s_fourth_power_is_not_scalar_for_a_perturbed_z_exponent():
    # on A1 two of the four perturbations keep Z^4 scalar, so A1 is left out
    for lat, sig in (SIG8["A2"], SIG8["A1+A2"], (A1_CUBED, 3)):
        rep = build_weil_rep(discriminant_form(lat), sig)
        assert all(s_fourth_power_scalar(bad) is None for bad in _z_perturbations(rep))


# The braid check that compared the two sides as integer vectors in a
# hand-built Q(zeta_M), kept as the reference of the differential test below.

def _unpack(packed, level, width):
    mask = (1 << width) - 1
    return [(packed >> (r * width)) & mask for r in range(level)]


def _former_braid_holds(rep):
    """(rho_S rho_T)^3 == rho_S^2, exactly, over every entry.

    Entries are compared as pairs ((Z T)^3 entry, Z^2 entry); each distinct
    pair is decided once.
    """
    n = rep.level
    width = (rep.disc.order ** 3).bit_length()
    z = _pack_matrix(rep.z, width)
    z2 = _packed_mat_mul(z, z, n, width)
    zt = _pack_matrix([[(x + tj) % n for x, tj in zip(row, rep.t)] for row in rep.z],
                      width)
    zt3 = _packed_mat_mul(_packed_mat_mul(zt, zt, n, width), zt, n, width)

    sqrt_d = sqrt_positive_int(rep.disc.order)
    m = lcm(n, 8, sqrt_d.conductor)
    den = lcm(*(c.denominator for c in sqrt_d.coeffs.values()))
    sqrt_terms = [(x * (m // sqrt_d.conductor), int(c * den))
                  for x, c in sqrt_d.coeffs.items()]
    step, turn = m // n, (-rep.sig8 * m // 8) % m
    decided = {}

    def sides_agree(lhs, rhs):
        # den * e(-sig8/8) * lhs - (den * sqrt|D|) * rhs over Z/M, then mod Phi_M
        diff = {}
        for r, a in enumerate(_unpack(lhs, n, width)):
            if a:
                x = (r * step + turn) % m
                diff[x] = diff.get(x, 0) + den * a
        for r, b in enumerate(_unpack(rhs, n, width)):
            if b:
                for y, s in sqrt_terms:
                    x = (r * step + y) % m
                    diff[x] = diff.get(x, 0) - b * s
        return CycScalar(m, diff).is_zero()

    for row3, row2 in zip(zt3, z2):
        for pair in zip(row3, row2):
            agree = decided.get(pair)
            if agree is None:
                agree = decided[pair] = sides_agree(*pair)
            if not agree:
                return False
    return True


def _niemeier_a1():
    from borcherds_kit.codes import binary_golay_generators
    from borcherds_kit.lattice import glue_lattice
    return glue_lattice([A1] * 24,
                        [tuple((c,) for c in r) for r in binary_golay_generators()])


def test_braid_matches_former_integer_vector_check():
    # every (lattice, sig8) of this file: each signature on the groups of
    # order at most 8, with every perturbation of t and z, and the true and
    # the next signature on |D| = 81 and 75, where one check takes 0.2 s
    small = [lat for lat, _ in SIG8.values()] + [A1_CUBED, D4, UA1, _niemeier_a1()]
    large = [direct_sum([A2] * 4), direct_sum([A4, A4, A2])]
    outcomes = Counter()
    for lat in small + large:
        disc = discriminant_form(lat)
        rep = build_weil_rep(disc, disc.signature_mod8)
        sigs = range(8) if lat in small else (rep.sig8, rep.sig8 + 1)
        cases = [WeilRepData(disc, sig, rep.t, rep.z) for sig in sigs]
        if lat in small:
            cases += [*_t_perturbations(rep), *_z_perturbations(rep)]
        for case in cases:
            got = braid_holds(case)
            assert got is _former_braid_holds(case), (lat.name, case.sig8)
            outcomes[got] += 1
    assert outcomes[True] >= len(small + large) and outcomes[False] > 100


def test_braid_compares_every_entry(monkeypatch):
    # one more zeta^0 in the last entry of the last packed row product (one
    # per row), so only the last entry of Z T Z changes
    real = weil._packed_row_mul
    rep = build_weil_rep(discriminant_form(A1A2), 3)
    order = rep.disc.order
    calls = []

    def corrupt_last_row(row, cols, level, width):
        out = real(row, cols, level, width)
        calls.append(level)
        if len(calls) == order:
            out[-1] += 1
        return out

    assert braid_holds(rep)
    monkeypatch.setattr(weil, "_packed_row_mul", corrupt_last_row)
    assert not braid_holds(rep)
    assert len(calls) == order


def test_braid_stops_at_the_first_failing_row(monkeypatch):
    # a wrong signature on A2^4 (|D| = 81) is rejected before the product
    # is complete: fewer packed row products than rows, where the full
    # Z T Z takes |D| of them, one per row
    disc = discriminant_form(direct_sum([A2] * 4))
    rep = build_weil_rep(disc, disc.signature_mod8)
    real = weil._packed_row_mul
    calls = []

    def counted(row, cols, level, width):
        calls.append(level)
        return real(row, cols, level, width)

    monkeypatch.setattr(weil, "_packed_row_mul", counted)
    for sig in range(rep.sig8 + 1, rep.sig8 + 8):
        calls.clear()
        assert not braid_holds(WeilRepData(disc, sig, rep.t, rep.z))
        assert 0 < len(calls) < disc.order, sig
    calls.clear()
    assert braid_holds(rep)
    assert len(calls) == disc.order


def test_s_fourth_power_compares_every_entry(monkeypatch):
    # one more zeta^0 in the last entry of the first row of Z^4, the second
    # packed product, so only an off-diagonal entry changes
    real = weil._packed_mat_mul
    calls = []

    def corrupt_z4(a, b, level, width):
        out = real(a, b, level, width)
        calls.append(level)
        if len(calls) == 2:
            out[0][-1] += 1
        return out

    rep = build_weil_rep(discriminant_form(A1A2), 3)
    assert s_fourth_power_scalar(rep) == e(Fraction(-3, 2))
    monkeypatch.setattr(weil, "_packed_mat_mul", corrupt_z4)
    assert s_fourth_power_scalar(rep) is None and len(calls) == 2


@pytest.mark.parametrize("blocks, order, sig", [
    ([A2] * 4, 81, 0),
    ([A4, A4, A2], 75, 2),
    ([D4], 4, 4),
])
def test_weil_identities_at_larger_discriminant(blocks, order, sig):
    disc = discriminant_form(direct_sum(blocks))
    assert disc.order == order
    assert disc.signature_mod8 == sig
    assert milgram_sum(disc) == sqrt_positive_int(order) * e(Fraction(sig, 8))
    rep = build_weil_rep(disc, sig)
    assert braid_holds(rep)
    assert s_fourth_power_scalar(rep) == e(Fraction(-sig, 2))
    assert braid_holds(conjugate_rep(rep))
    with pytest.raises(ValueError):
        build_weil_rep(disc, sig + 1)


def test_milgram_for_shipped_lattices():
    for lat, sig in SIG8.values():
        d = discriminant_form(lat)
        assert d.signature_mod8 == sig % 8
        assert milgram_sum(d) == sqrt_positive_int(d.order) * e(Fraction(sig, 8))


def test_build_weil_rep_examples():
    d = discriminant_form(U)
    rep = build_weil_rep(d, 0)
    assert rep.rho_t == [[CycScalar.from_rational(1)]] or rep.rho_t[0][0] == 1
    assert rep.rho_s[0][0] == 1

    d1 = discriminant_form(A1)
    rep1 = build_weil_rep(d1, 1)
    i = e(Fraction(1, 4))
    assert rep1.rho_t[0][0] == 1
    assert rep1.rho_t[1][1] == i
    assert rep1.rho_t[0][1] == 0


def test_build_weil_rep_rejects_wrong_signature():
    with pytest.raises(ValueError):
        build_weil_rep(discriminant_form(A1), 3)
    with pytest.raises(ValueError):
        build_weil_rep(discriminant_form(A2), 0)


def test_rho_s_symmetric():
    for lat, sig in (SIG8["A1"], SIG8["A2"], SIG8["A1+A2"]):
        rep = build_weil_rep(discriminant_form(lat), sig)
        n = len(rep.rho_s)
        for i in range(n):
            for j in range(n):
                assert rep.rho_s[i][j] == rep.rho_s[j][i]


def test_braid_relation():
    for lat, sig in SIG8.values():
        rep = build_weil_rep(discriminant_form(lat), sig)
        assert braid_holds(rep)


def test_s_fourth_power():
    for lat, sig in SIG8.values():
        rep = build_weil_rep(discriminant_form(lat), sig)
        scalar = s_fourth_power_scalar(rep)
        assert scalar is not None
        assert scalar == e(Fraction(-sig, 2))


def test_conjugate_rep():
    i = e(Fraction(1, 4))
    rep = build_weil_rep(discriminant_form(A1), 1)
    conj = conjugate_rep(rep)
    assert conj.rho_t[1][1] == -i
    assert braid_holds(conj)
    double = conjugate_rep(conj)
    assert double.rho_t == rep.rho_t
    assert double.rho_s == rep.rho_s


def test_conjugate_rep_twice_is_identity_on_exponents():
    for lat, sig in (*SIG8.values(), (A1_CUBED, 3)):
        rep = build_weil_rep(discriminant_form(lat), sig)
        conj = conjugate_rep(rep)
        assert conj.sig8 == (-sig) % 8
        assert conj.t == tuple((-x) % rep.level for x in rep.t)
        double = conjugate_rep(conj)
        assert (double.level, double.sig8, double.t, double.z) == \
            (rep.level, rep.sig8, rep.t, rep.z)


def test_weil_rep_unitary_like():
    # rho_S * conj(rho_S)^T = identity (S-matrix is unitary with exact entries)
    for lat, sig in (SIG8["A1"], SIG8["A2"]):
        rep = build_weil_rep(discriminant_form(lat), sig)
        conj_t = [[rep.rho_s[j][i].conjugate() for j in range(len(rep.rho_s))]
                  for i in range(len(rep.rho_s))]
        prod = mat_mul(rep.rho_s, conj_t)
        for i in range(len(prod)):
            for j in range(len(prod)):
                assert prod[i][j] == (1 if i == j else 0)


def test_support_enforced_at_construction():
    d = discriminant_form(GramLattice([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        WHForm(d, 0, {(Fraction(1, 2), ()): 1}, 2)


def test_is_integral():
    d = discriminant_form(GramLattice([[0, 1], [1, 0]]))
    inv_delta = delta_series(6).inverse()
    f = WHForm.from_scalar_series(d, 0, inv_delta)
    assert f.is_integral()
    assert WHForm(d, 0, {}, 1).is_integral()  # zero form
    g = f.scale(Fraction(1, 24))
    assert not g.is_integral()


UA1 = direct_sum([U, A1], name="U+A1")


def test_support_enforced_on_nontrivial_group():
    # D(U+A1) = Z/2 with Q(1) = 1/4: the odd coset lives at m = 1/4 mod 1
    d = discriminant_form(UA1)
    f = WHForm(d, 0, {(Fraction(-3, 4), (1,)): 1, (Fraction(0), (0,)): 2}, 2)
    assert f.coefficient(Fraction(-3, 4), (1,)) == 1
    with pytest.raises(ValueError, match="support condition"):
        WHForm(d, 0, {(Fraction(0), (1,)): 1}, 2)
    with pytest.raises(ValueError, match="support condition"):
        WHForm(d, 0, {(Fraction(-3, 4), (0,)): 1}, 2)
    with pytest.raises(ValueError, match="precision must be positive"):
        WHForm(d, 0, {}, 0)


def test_exact_numbers_in_forms():
    d = discriminant_form(UA1)
    # ints, Fractions and integral floats are read exactly
    f = WHForm(d, -2.0, {(Fraction(-3, 4), (1,)): 2.0, (1.0, (0,)): 5}, 2.0)
    assert f == WHForm(d, -2, {(Fraction(-3, 4), (1,)): 2, (1, (0,)): 5}, 2)
    assert f.coefficient(1.0, (0,)) == 5
    # anything else raises instead of entering as a binary fraction
    bad_calls = [lambda x: WHForm(d, x, {}, 1), lambda x: WHForm(d, 0, {}, x),
                 lambda x: WHForm(d, 0, {(x, (0,)): 1}, 1),
                 lambda x: WHForm(d, 0, {(0, (0,)): x}, 1),
                 lambda x: f.coefficient(x, (0,))]
    for bad in (0.1, 0.5, float("inf"), float("nan")):
        for call in bad_calls:
            with pytest.raises(ValueError, match="expected an integer"):
                call(bad)


def test_derived_forms_keep_support_on_nontrivial_group():
    # scale, + and divide_by_24delta rebuild through the checking constructor
    d = discriminant_form(UA1)
    f = WHForm(d, 0, {(Fraction(-3, 4), (1,)): 24, (Fraction(1, 4), (1,)): 48,
                      (Fraction(0), (0,)): 24, (Fraction(1), (0,)): 24}, 3)
    doubled = f.scale(2)
    assert doubled.coefficient(Fraction(1, 4), (1,)) == 96
    total = f + doubled
    assert total.coefficients == f.scale(3).coefficients
    g = divide_by_24delta(f)
    assert g.prec == 2 and g.weight == -12
    assert g.coefficient(Fraction(-7, 4), (1,)) == 1
    assert g.coefficient(Fraction(-1), (0,)) == 1
    assert all((m - d.q(mu)).denominator == 1 for m, mu in g.coefficients)


def test_milgram_niemeier_trivial():
    from borcherds_kit.codes import binary_golay_generators
    from borcherds_kit.lattice import glue_lattice
    n1 = glue_lattice([A1] * 24,
                      [tuple((c,) for c in r) for r in binary_golay_generators()])
    d = discriminant_form(n1)
    assert d.order == 1
    assert milgram_sum(d) == 1
    rep = build_weil_rep(d, 0)
    assert braid_holds(rep)


# ---------------------------------------------------------------------------
# differential check of the one monic long division against the three loops
# it replaced: the exact division that built the cyclotomic polynomials, the
# inline reduction modulo Phi_m, and the Golay check of `codes` over Z/p
# ---------------------------------------------------------------------------

def _former_poly_div_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


_FORMER_PHI = {1: (-1, 1)}


def _former_cyclotomic_polynomial(m):
    if m not in _FORMER_PHI:
        poly = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                poly = _former_poly_div_exact(poly, _former_cyclotomic_polynomial(d))
        _FORMER_PHI[m] = tuple(poly)
    return _FORMER_PHI[m]


def _former_reduce_mod_cyclotomic(coeffs, m):
    phi = _former_cyclotomic_polynomial(m)
    deg = len(phi) - 1
    dense = [Fraction(0)] * m
    for ex, c in coeffs.items():
        dense[ex % m] += c
    for i in range(m - 1, deg - 1, -1):
        c = dense[i]
        if c:
            for j in range(len(phi)):
                dense[i - deg + j] -= c * phi[j]
    return {ex: c for ex, c in enumerate(dense[:deg]) if c != 0}


def _former_divides_x_n_minus_1(divisor, n, modulus):
    rem = [0] * (n + 1)
    rem[0] = (-1) % modulus
    rem[n] = 1
    deg_d = len(divisor) - 1
    inv_lead = pow(divisor[-1], -1, modulus)
    for i in range(n, deg_d - 1, -1):
        c = rem[i] % modulus
        if c:
            f = (c * inv_lead) % modulus
            for j, dj in enumerate(divisor):
                rem[i - deg_d + j] = (rem[i - deg_d + j] - f * dj) % modulus
    return all(x % modulus == 0 for x in rem)


def test_cyclotomic_polynomials_match_former_exact_division():
    for m in range(1, 61):
        assert cyclotomic_polynomial(m) == _former_cyclotomic_polynomial(m)


def test_monic_divmod_matches_former_exact_division():
    rng = random.Random(43)
    for _ in range(200):
        den = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))] + [1]
        quot = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        rem = [rng.randint(-3, 3) for _ in range(len(den) - 1)]
        num = [0] * (len(den) + len(quot) - 1)
        for i, a in enumerate(quot):
            for j, b in enumerate(den):
                num[i + j] += a * b
        q, r = _monic_divmod(num, den)
        assert q == _former_poly_div_exact(num, den) and not any(r)
        num = [a + (rem[i] if i < len(rem) else 0) for i, a in enumerate(num)]
        q2, r2 = _monic_divmod(num, den)
        assert q2 == q and r2 == rem
    with pytest.raises(ValueError, match="monic"):
        _monic_divmod([1, 2, 3], [1, 2])


def test_reduction_mod_cyclotomic_matches_former_loop():
    rng = random.Random(44)
    for m in range(1, 61):
        for _ in range(3):
            coeffs = {rng.randrange(-m, 3 * m): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(rng.randint(0, m + 2))}
            assert CycScalar(m, coeffs).coeffs == _former_reduce_mod_cyclotomic(coeffs, m)


def test_golay_divisibility_matches_former_loop():
    rng = random.Random(45)
    cases = [(BINARY_GOLAY_POLY, 23, 2), (TERNARY_GOLAY_POLY, 11, 3)]
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        divisor = tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))) + (1,)
        cases.append((divisor, rng.randint(1, 30), p))
    for p in (2, 3, 5):  # x - 1 divides every x^n - 1, x + 1 the even ones
        cases += [((p - 1, 1), 7, p), ((1, 1), 6, p), ((1, 1), 7, p)]
    seen = set()
    for divisor, n, p in cases:
        got = _divides_x_n_minus_1(divisor, n, p)
        assert got == _former_divides_x_n_minus_1(divisor, n, p)
        seen.add(got)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# differential check of the inverse solved on the multiplication matrix
# against the extended-Euclid inverse it replaced
# ---------------------------------------------------------------------------

def _former_poly_degree(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _former_poly_divmod(num, den):
    num = list(num)
    dd = _former_poly_degree(den)
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(_former_poly_degree(num) - dd, -1, -1):
        c = num[i + dd] / den[dd]
        q[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return q, num[:dd] if dd > 0 else [Fraction(0)]


def _former_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _former_poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
            for i in range(n)]


def _former_inverse(x):
    """The extended-Euclid inverse of a nonzero CycScalar, as reduced coefficients."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(x.conductor)]
    r0, r1 = phi, [Fraction(0)] * (len(phi) - 1)
    for ex, c in x.coeffs.items():
        r1[ex] = c
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _former_poly_degree(r1) > 0:
        q, rem = _former_poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _former_poly_sub(s0, _former_poly_mul(q, s1))
    c = r1[0]
    return {ex: v / c for ex, v in enumerate(s1) if v != 0}


def test_inverse_matches_former_euclid():
    rng = random.Random(46)
    for m in [*range(1, 25), 60, 120]:
        for _ in range(3 if m <= 24 else 2):
            x = CycScalar(m, {rng.randrange(m): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(rng.randint(1, 6))})
            if x.is_zero():
                continue
            inv = x.inverse()
            assert inv.coeffs == _former_inverse(x)
            assert x * inv == 1
    with pytest.raises(ZeroDivisionError):
        CycScalar(12, {}).inverse()
