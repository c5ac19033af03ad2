import random
from fractions import Fraction

import pytest

from borcherds_kit.cyclotomic import e
from borcherds_kit.forms import WHForm, divide_by_24delta
from borcherds_kit.lattice import (
    CuspData,
    GramLattice,
    _qf_enumerate,
    cusp_data,
    direct_sum,
    discriminant_form,
)
from borcherds_kit.product import (
    PrecisionError,
    WeylChamber,
    chamber_of,
    constant_a,
    enumerate_walls,
    product_expand,
    reduce_f0,
)
from borcherds_kit.linalg import (
    invert_rational,
    mat_mul,
    rational_gcd,
    smith_normal_form,
    solve_rational,
    transpose,
)
from borcherds_kit.qseries import (
    FracQSeries,
    LatticeQSeries,
    delta_series,
    j_series,
    lattice_binomial,
)

U = GramLattice([[0, 1], [1, 0]], name="U")
A1 = GramLattice([[2]], name="A1")
UU = direct_sum([U, U], name="U+U")
CUSP_UU = cusp_data(UU, (1, 0, 0, 0))
DISC_UU = discriminant_form(UU)


def _with_k(data, k):
    """The cusp `data` with another k, which `cusp_data` never picks: k must
    pair to N with ell and k/N lie in L', or e([lift, k]/N) would depend on
    the lift and not on the coset alone."""
    lat = data.lattice
    assert lat.bilinear(data.ell, k) == data.n_value
    assert not any(x % data.n_value for x in lat.image(k))
    return CuspData(lat, data.ell, data.n_value, tuple(k), data.k0, data.v0,
                    data.lift_rows)


def knz_form(prec=11):
    """Weight-0 input with principal part q^-1 and zero constant term."""
    j = j_series(prec)
    coeffs = {Fraction(-1): Fraction(1)}
    for n in range(1, prec + 1):
        coeffs[Fraction(n)] = j.coefficient(n)
    return WHForm.from_scalar_series(DISC_UU, 0, FracQSeries(coeffs, prec + 1))


def one_over_delta_form(prec=9):
    inv = delta_series(prec).inverse()
    return WHForm.from_scalar_series(DISC_UU, 0, inv)


def test_reduce_f0_trivial_disc():
    f = one_over_delta_form()
    f0 = reduce_f0(f, CUSP_UU)
    assert f0.coefficients == f.coefficients
    assert f0.disc is discriminant_form(CUSP_UU.v0)


def test_reduce_f0_a1_coset():
    lat = direct_sum([U, A1])
    data = cusp_data(lat, (1, 0, 0))
    d = discriminant_form(lat)
    f = WHForm(d, Fraction(1, 2), {
        (Fraction(-1), (0,)): 2,
        (Fraction(-3, 4), (1,)): 5,
        (Fraction(0), (0,)): 7,
    }, 1)
    f0 = reduce_f0(f, data)
    assert f0.coefficient(Fraction(-3, 4), (1,)) == 5
    assert f0.coefficient(-1, (0,)) == 2
    assert f0.coefficient(0, (0,)) == 7


def test_reduce_f0_drops_liftless_cosets():
    # N = 2 lattice where odd-pairing cosets admit no lift
    lat = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
    data = cusp_data(lat, (1, 0, 0))
    d = discriminant_form(lat)
    target = None
    for c in d.cosets():
        if lat.bilinear(d.rep(c), data.ell) % 2 != 0:
            target = c
            break
    assert target is not None
    f = WHForm(d, 0, {(d.q(target) - 1, target): 3}, 1)
    f0 = reduce_f0(f, data)
    assert not f0.coefficients


def test_enumerate_walls_knz():
    f0 = reduce_f0(one_over_delta_form(), CUSP_UU)
    walls = enumerate_walls(f0, CUSP_UU, (2, -1), 2)
    assert (Fraction(1), Fraction(1)) in walls
    assert (Fraction(-1), Fraction(-1)) in walls
    for x in walls:
        assert CUSP_UU.v0.q(x) == 1


def test_enumerate_walls_empty_for_holomorphic():
    f = WHForm(DISC_UU, 0, {(Fraction(0), ()): 24}, 2)
    f0 = reduce_f0(f, CUSP_UU)
    assert enumerate_walls(f0, CUSP_UU, (2, -1), 3) == []


def test_enumerate_walls_rejects_a_negative_radius():
    # the radius is squared, so -2 would quietly give the walls of radius 2
    f0 = reduce_f0(one_over_delta_form(), CUSP_UU)
    for radius in (-2, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            enumerate_walls(f0, CUSP_UU, (2, -1), radius)
    # radius 0 keeps the walls orthogonal to w
    assert enumerate_walls(f0, CUSP_UU, (2, -1), 0) == []
    assert enumerate_walls(f0, CUSP_UU, (1, -1), 0) == [(Fraction(-1), Fraction(-1)),
                                                        (Fraction(1), Fraction(1))]


def test_walls_monotone_in_radius():
    # a pole at -4 puts walls on the divisor-pair hyperbola ab = 4, some of
    # which only enter at larger radius
    f = WHForm(DISC_UU, 0, {(Fraction(-4), ()): 1, (Fraction(-1), ()): 1}, 1)
    f0 = reduce_f0(f, CUSP_UU)
    small = set(enumerate_walls(f0, CUSP_UU, (2, -1), 2))
    large = set(enumerate_walls(f0, CUSP_UU, (2, -1), 4))
    assert small <= large
    assert len(large) > len(small)
    assert (Fraction(1), Fraction(4)) in large and (Fraction(1), Fraction(4)) not in small


def test_chamber_of():
    f0 = reduce_f0(one_over_delta_form(), CUSP_UU)
    ch = chamber_of((2, -1), f0, CUSP_UU)
    assert ch.wall_signs[(Fraction(1), Fraction(1))] == 1
    ch2 = chamber_of((3, -1), f0, CUSP_UU)
    assert ch.wall_signs == {k: v for k, v in ch2.wall_signs.items()
                             if k in ch.wall_signs}
    with pytest.raises(ValueError):
        chamber_of((1, -1), f0, CUSP_UU)  # lies on the wall through (1, 1)


def test_chamber_independence_of_walls():
    rng = random.Random(41)
    f0 = reduce_f0(one_over_delta_form(), CUSP_UU)
    v0 = CUSP_UU.v0
    count = 0
    while count < 50:
        s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        t = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
        w = (s, t)
        if v0.q(w) >= 0 or s + t <= 0:  # stay in the chamber of (2, -1)
            continue
        walls_a = enumerate_walls(f0, CUSP_UU, (2, -1), 3)
        walls_b = enumerate_walls(f0, CUSP_UU, w, 3)
        qa, qb = v0.q((2, -1)), v0.q(w)
        for x in walls_a:
            pa = v0.bilinear(x, w)
            if pa * pa <= 9 * v0.q(x) * (-qb):
                assert x in walls_b
        for x in walls_b:
            pa = v0.bilinear(x, (2, -1))
            if pa * pa <= 9 * v0.q(x) * (-qa):
                assert x in walls_a
        # sign data must agree inside one chamber
        for x in set(walls_a) & set(walls_b):
            assert (v0.bilinear(x, w) > 0) == (v0.bilinear(x, (2, -1)) > 0)
        count += 1


def test_constant_a_trivial():
    f = one_over_delta_form()
    assert constant_a(f, CUSP_UU) == 1


def test_constant_a_n2():
    # lattice with N = 2 at ell = e1: c(0, ell/2 coset) = e gives A = 2^e
    lat = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
    data = cusp_data(lat, (1, 0, 0))
    assert data.n_value == 2
    d = discriminant_form(lat)
    half_ell = d.coset_of_dual((Fraction(1, 2), 0, 0))
    f = WHForm(d, 0, {(Fraction(0), half_ell): 3}, 1)
    assert constant_a(f, data) == 8
    zero_f = WHForm(d, 0, {}, 1)
    assert constant_a(zero_f, data) == 1


def test_zeta_mu_trivial_and_k_integral():
    # the root of unity of coset mu is e(data.reduction[mu][1])
    assert e(CUSP_UU.reduction[()][1]) == 1
    lat = direct_sum([U, A1])
    data = cusp_data(lat, (1, 0, 0))
    for c in discriminant_form(lat).cosets():
        assert e(data.reduction[c][1]) == 1  # k integral forces zeta = 1


def test_zeta_mu_nontrivial():
    # N = 2 instance with an explicit k off the default: [lift, k]/N = 1/2
    # occurs and zeta = -1
    lat = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
    data = _with_k(cusp_data(lat, (1, 0, 0)), (0, 1, 1))
    assert data.n_value == 2
    d = discriminant_form(lat)
    values = {e(data.reduction[c][1]).try_rational() for c in d.cosets()
              if lat.bilinear(d.rep(c), data.ell) % 2 == 0}
    assert values == {Fraction(1), Fraction(-1)}


def test_zeta_mu_lift_independence():
    lat = direct_sum([U, A1])
    data = cusp_data(lat, (1, 0, 0))
    d = discriminant_form(lat)
    lifted = former_lift_of_coset((1,), data)
    # shifting the lift by kernel vectors must not change zeta; the kernel is
    # spanned by the columns of v past the rank 1 of the Smith form of the
    # row G ell, as `cusp_data` reads it
    gl = list(lat.image(data.ell))
    for kv in transpose(smith_normal_form([gl])[2])[1:]:
        moved = tuple(a + b for a, b in zip(lifted, kv))
        val1 = sum(Fraction(a) * b for a, b in
                   zip(lat.image(lifted), data.k))
        val2 = sum(Fraction(a) * b for a, b in
                   zip(lat.image(moved), data.k))
        assert e(val1) == e(val2)


@pytest.mark.parametrize("t, a", [(4, 2), (9, 3)])
def test_root_at_cusp_with_n_above_one_is_lift_independent(t, a):
    # on U+U+<2t>, the cusp g + a e1 - a f1 (a^2 = t) has N = a, and k0/N is
    # off L', so cusp_data takes a dual k with z' = k/N in L': moving a
    # coset's lift into ell-perp by any vector of ell-perp in L keeps
    # e([lift, k]/N), and some coset has a root other than 1
    lat = direct_sum([U, U, GramLattice([[2 * t]])])
    data = cusp_data(lat, (a, -a, 0, 0, 1))
    assert data.n_value == a and data.k != data.k0
    kernel = transpose(smith_normal_form([list(lat.image(data.ell))])[2])[1:]
    roots = set()
    for mu, (_, expo) in data.reduction.items():
        lifted = former_lift_of_coset(mu, data)
        for kv in kernel:
            moved = tuple(x + y for x, y in zip(lifted, kv))
            assert e(lat.bilinear(moved, data.k) / a) == e(expo) == former_zeta_mu(mu, data)
        roots.add(expo)
    assert len(roots) > 1


def arrow_up(g, lattice, basis):
    """The up arrow of a form g on M to a sublattice L of finite index, whose
    basis `basis` lists in M's coordinates: a coset mu of D(L) whose
    representative lies in M' (mu in H^perp, H = M/L) takes g's
    coefficients at its coset of D(M), and every other coset is 0."""
    disc = discriminant_form(lattice)
    coeffs = {}
    for mu in disc.cosets():
        y = [sum(c * row[j] for c, row in zip(disc.rep(mu), basis)) for j in range(len(basis))]
        try:
            nu = g.disc.coset_of_dual(y)
        except ValueError:
            continue
        coeffs.update({(m, mu): c for (m, gnu), c in g.coefficients.items() if gnu == nu})
    return WHForm(disc, g.weight, coeffs, g.prec)


def test_arrow_body_at_cusp_with_n_three():
    # L = E8+U+U(3) in M = E8+U+U, with the basis of M but 3 f2; at
    # ell = 3 f2, N = 3 and V0 is M's at f2.  Each V0 factor of E4^2/Delta
    # lifted to L comes from the three cosets of H = M/L, with the roots
    # e([lift, k]/N) = 1, e(1/3), e(2/3), so (1 - q^x)(1 - z q^x)(1 - z^2 q^x)
    # = 1 - q^(3x): L's body is M's with every exponent tripled (the N-th
    # powers of those roots would give the cube of M's body instead)
    from borcherds_kit.io import load_form, load_lattice
    m_lat = load_lattice("e8-plus-2u")
    g, _ = load_form("e4sq-over-delta")
    basis = [[(3 if i == 11 else 1) * (i == j) for j in range(12)] for i in range(12)]
    l_lat = GramLattice(mat_mul(mat_mul(basis, m_lat.gram), transpose(basis)))
    assert discriminant_form(l_lat).invariant_factors == (3, 3)
    lifted = arrow_up(g, l_lat, basis)
    ell = (0,) * 11 + (1,)
    data_m, data_l = cusp_data(m_lat, ell), cusp_data(l_lat, ell)
    assert (data_m.n_value, data_l.n_value) == (1, 3)
    assert data_l.v0.gram == data_m.v0.gram
    # the cusp-expand fixture point w2, in the coordinates of this V0
    w = (1260, 1650, 2025, 1365, 690, 1020, 123, -985, 435, 855)
    chamber = chamber_of(w, reduce_f0(g, data_m), data_m)
    assert chamber_of(w, reduce_f0(lifted, data_l), data_l).wall_signs == chamber.wall_signs
    rho = (0,) * 10
    for cutoff, terms in ((4, 7), (6, 21)):
        body_m = product_expand(g, data_m, chamber, rho, cutoff).body
        pe_l = product_expand(lifted, data_l, chamber, rho, 3 * cutoff)
        assert len(body_m.coeffs) == terms
        assert pe_l.body.coeffs == {tuple(3 * a for a in alpha): c
                                    for alpha, c in body_m.coeffs.items()}
        assert pe_l.weight_out == 252
    # (1 - e(1/3))^504 (1 - e(2/3))^504 = 3^504
    assert pe_l.constant == 3 ** 504


def v0_map(data_m, data_l, basis):
    """x -> x T^-1, from M's V0 coordinates to L's at one isotropic ell of L
    in M, `basis` listing L's basis in M's coordinates: row i of T holds M's
    V0 coordinates of L's V0 basis vector i, whose lift row, moved into M,
    is solved against M's lift rows and ell."""
    columns = transpose(list(data_m.lift_rows) + [list(data_m.ell)])
    t = [solve_rational(columns, mat_mul([list(row)], basis)[0])[:-1]
         for row in data_l.lift_rows]
    t_inv = invert_rational(t)
    return lambda x: tuple(mat_mul([list(x)], t_inv)[0])


@pytest.mark.parametrize("m_name, form_name, ell, scaled, factor, w, rho, cutoff, terms", [
    # U+U(2) in U+U at ell = e1, KNZ's input, where M's (a, b) is L's (a, b/2)
    ("u-plus-u", "knz-input", (1, 0, 0, 0), 3, 2, (2, -1), (0, -1), 8, 11),
    # E8+U+U(3) in E8+U+U at ell = e1, E4^2/Delta at the cusp-expand point
    # w* (the 95-term golden/body-w-star-8.txt), where M's (..., b) is L's
    # (..., b/3)
    ("e8-plus-2u", "e4sq-over-delta", (0,) * 8 + (1, 0, 0, 0), 11, 3,
     (840, 1100, 1350, 910, 460, 680, 570, 290, 74, -1055), (0,) * 10, 8, 95),
], ids=["u-plus-u2", "e8-plus-u-plus-u3"])
def test_arrow_body_at_cusp_with_n_one(m_name, form_name, ell, scaled, factor, w, rho,
                                       cutoff, terms):
    # L has the basis of M with one U vector scaled by `factor`, and N = 1 at
    # ell on both.  g on M lifted to L by the arrow gives M's body, read in
    # L's V0 coordinates, at the same absolute grading bound: L's gradings
    # are finer, so its cutoff is counted in units of rational_gcd(w_L).
    # In the integral dual coordinates G x the map is (..., b) -> (..., factor b).
    from borcherds_kit.io import load_form, load_lattice
    m_lat = load_lattice(m_name)
    g, _ = load_form(form_name)
    n = m_lat.rank
    basis = [[(factor if i == scaled else 1) * (i == j) for j in range(n)] for i in range(n)]
    l_lat = GramLattice(mat_mul(mat_mul(basis, m_lat.gram), transpose(basis)))
    assert discriminant_form(l_lat).invariant_factors == (factor, factor)
    lifted = arrow_up(g, l_lat, basis)
    data_m, data_l = cusp_data(m_lat, ell), cusp_data(l_lat, ell)
    assert (data_m.n_value, data_l.n_value) == (1, 1)
    to_l = v0_map(data_m, data_l, basis)
    w_l = to_l(w)
    assert w_l == w[:-1] + (Fraction(w[-1], factor),)
    pe_m = product_expand(g, data_m, chamber_of(w, reduce_f0(g, data_m), data_m), rho, cutoff)
    chamber_l = chamber_of(w_l, reduce_f0(lifted, data_l), data_l)
    pe_l = product_expand(lifted, data_l, chamber_l, to_l(rho),
                          cutoff * rational_gcd(w) / rational_gcd(w_l))
    assert len(pe_m.body.coeffs) == terms
    assert pe_l.body.coeffs == {to_l(alpha): c for alpha, c in pe_m.body.coeffs.items()}
    assert (pe_l.constant, pe_l.weight_out) == (pe_m.constant, pe_m.weight_out)


def knz_expansion(cutoff=5, prec=11):
    f = knz_form(prec)
    f0 = reduce_f0(f, CUSP_UU)
    ch = chamber_of((2, -1), f0, CUSP_UU)
    return product_expand(f, CUSP_UU, ch, (0, -1), cutoff)


def knz_oracle(prec=11):
    """j(p) - j(q) as exponent-vector data: p = q_(0,1), q = q_(-1,0)."""
    j = j_series(prec)
    oracle = {}
    for n in range(-1, prec + 1):
        c = Fraction(1) if n == -1 else (Fraction(0) if n == 0 else j.coefficient(n))
        if c:
            key_p = (Fraction(0), Fraction(n))
            key_q = (Fraction(-n), Fraction(0))
            oracle[key_p] = oracle.get(key_p, 0) + c
            oracle[key_q] = oracle.get(key_q, 0) - c
    return {k: v for k, v in oracle.items() if v != 0}


def test_product_expand_knz_matches_j_difference():
    pe = knz_expansion()
    assert pe.constant == 1
    assert pe.weight_out == 0
    shifted = pe.shifted_coefficients()
    oracle = knz_oracle()
    v0 = CUSP_UU.v0
    w = (2, -1)
    grading = lambda a: v0.bilinear(a, w)
    # every product term of grading <= 5 - 2 (weyl shift) matches the oracle
    for key, val in shifted.items():
        assert val == oracle.get(key, 0), f"mismatch at {key}"
    # every oracle term within the covered grading window appears
    window = Fraction(5) + grading((0, -1))
    for key, val in oracle.items():
        if grading(key) <= window:
            assert shifted.get(key, 0) == val, f"missing {key}"


@pytest.mark.parametrize("c00, weight", [(24, 12), (5, Fraction(5, 2)), (0, 0)])
def test_weight_out_is_half_the_constant_term(c00, weight):
    # Borcherds' weight is c(0, 0)/2: 1/Delta = q^-1 + 24 + ... gives 12
    base = knz_form()
    zero = DISC_UU.zero
    coeffs = {k: v for k, v in base.coefficients.items() if k != (0, zero)}
    if c00:
        coeffs[(Fraction(0), zero)] = Fraction(c00)
    f = WHForm(DISC_UU, 0, coeffs, base.prec)
    ch = chamber_of((2, -1), reduce_f0(f, CUSP_UU), CUSP_UU)
    pe = product_expand(f, CUSP_UU, ch, (0, -1), 3)
    assert pe.weight_out == weight
    assert f"weight={weight})" in repr(pe)


def test_product_expand_empty_principal_part():
    f = WHForm(DISC_UU, 0, {}, 2)
    f0 = reduce_f0(f, CUSP_UU)
    ch = chamber_of((2, -1), f0, CUSP_UU)
    pe = product_expand(f, CUSP_UU, ch, (0, 0), 4)
    assert pe.shifted_coefficients() == {(Fraction(0), Fraction(0)): Fraction(1)}


def test_product_integrality():
    pe = knz_expansion()
    for coeff in pe.body.coeffs.values():
        assert Fraction(coeff).denominator == 1


def test_product_constant_term_one():
    pe = knz_expansion()
    zero = (Fraction(0), Fraction(0))
    assert pe.body.coeffs[zero] == 1


def test_product_support_positive_grading():
    pe = knz_expansion()
    v0 = CUSP_UU.v0
    for alpha in pe.body.coeffs:
        if any(alpha):
            assert v0.bilinear(alpha, (2, -1)) > 0


def test_prefix_stability():
    big = knz_expansion(cutoff=5)
    small = knz_expansion(cutoff=3)
    assert big.truncate(small.body.cutoff).body.coeffs == small.body.coeffs


def test_prefix_stability_random():
    rng = random.Random(42)
    cached = {}
    for _ in range(50):
        hi = rng.randint(2, 6)
        lo = rng.randint(1, hi)
        if hi not in cached:
            cached[hi] = knz_expansion(cutoff=hi)
        if lo not in cached:
            cached[lo] = knz_expansion(cutoff=lo)
        assert cached[hi].truncate(cached[lo].body.cutoff).body.coeffs == \
            cached[lo].body.coeffs


def test_product_requires_integral_form():
    f = knz_form().scale(Fraction(1, 7))
    f0 = reduce_f0(f, CUSP_UU)
    ch = WeylChamber((2, -1), {})
    with pytest.raises(ValueError):
        product_expand(f, CUSP_UU, ch, (0, -1), 3)


@pytest.mark.parametrize("cutoff", [0, -1, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 1000)])
def test_product_rejects_nonpositive_cutoff(cutoff):
    # an empty grading range would leave only the Weyl prefactor; over V0'
    # the gradings are the multiples of rational_gcd(w), so a cutoff below 1
    # keeps no factor either
    f = knz_form()
    ch = chamber_of((2, -1), reduce_f0(f, CUSP_UU), CUSP_UU)
    with pytest.raises(ValueError, match="cutoff must be positive"):
        product_expand(f, CUSP_UU, ch, (0, -1), cutoff)


def test_product_rejects_nonintegral_weyl():
    f = knz_form()
    ch = WeylChamber((2, -1), {})
    with pytest.raises(ValueError, match="Weyl vector must lie in the dual"):
        product_expand(f, CUSP_UU, ch, (Fraction(1, 2), 0), 3)


def test_weyl_vector_of_wrong_length():
    # a wrong length raises, so it cannot read as "off the dual lattice";
    # (0, -1, 0) extends the integral (0, -1) by a zero
    f = knz_form()
    chamber = chamber_of((2, -1), reduce_f0(f, CUSP_UU), CUSP_UU)
    for rho, n in (((0, -1, 0), 3), ((0,), 1), ((), 0)):
        with pytest.raises(ValueError, match=f"expected 2 coordinates, got {n}"):
            product_expand(f, CUSP_UU, chamber, rho, 3)


def test_product_precision_guard():
    f = knz_form(prec=3)
    f0 = reduce_f0(f, CUSP_UU)
    ch = chamber_of((2, -1), f0, CUSP_UU)
    with pytest.raises(PrecisionError):
        product_expand(f, CUSP_UU, ch, (0, -1), 12)


def test_product_with_nontrivial_zeta():
    # N = 2 lattice of signature (3, 2) whose scaled block has a 2-torsion
    # coset with Q = 1/2; a dual (non-integral) k, with k/N in L', makes
    # zeta = e([lift, k]/N) = -1 there,
    # flipping the sign of the linear wall factors but not the zeta^2
    # cross-term
    lat = GramLattice([[0, 2, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                       [0, 0, 1, 0, 0], [0, 0, 0, 0, 4]])
    d = discriminant_form(lat)
    target = d.coset_of_dual((0, 0, 0, 0, Fraction(1, 2)))
    assert d.q(target) == Fraction(1, 2)
    f = WHForm(d, Fraction(-1, 2), {(Fraction(-1, 2), target): 1}, 1)
    w = (2, -1, Fraction(1, 4))
    half = Fraction(1, 2)
    bodies = {}
    default = cusp_data(lat, (1, 0, 0, 0, 0))
    for data, zeta_expected in ((default, 1),
                                (_with_k(default, (0, 1, 0, 0, Fraction(1, 2))), -1)):
        assert data.n_value == 2
        assert e(data.reduction[target][1]).try_rational() == zeta_expected
        f0 = reduce_f0(f, data)
        chamber = chamber_of(w, f0, data)
        pe = product_expand(f, data, chamber, (0, 0, 0), 4)
        assert pe.constant == 1
        bodies[zeta_expected] = pe.body.coeffs
    zero = (Fraction(0), Fraction(0), Fraction(0))
    for z, body in bodies.items():
        assert body[zero] == 1
        assert body[(Fraction(0), Fraction(0), half)] == -z
        assert body[(Fraction(-1), Fraction(0), -half)] == -z
        assert body[(Fraction(-1), Fraction(0), Fraction(0))] == 1  # zeta^2


def test_divide_by_24delta():
    d = DISC_UU
    delta = delta_series(8)
    f = WHForm.from_scalar_series(d, 12, delta * 24)
    g = divide_by_24delta(f)
    assert g.coefficient(0, ()) == 1
    assert all(c == 0 for (m, _), c in g.coefficients.items() if m != 0)

    one = WHForm(d, 0, {(Fraction(0), ()): 1}, 6)
    h = divide_by_24delta(one)
    assert h.coefficient(-1, ()) == Fraction(1, 24)
    assert h.coefficient(0, ()) == 1  # 24/24
    assert h.prec == 5
    assert h.weight == -12

    for prec in (1, Fraction(1, 2)):
        low = WHForm(d, 0, {(Fraction(-1), ()): 1}, prec)
        with pytest.raises(ValueError, match=f"precision > 1, got precision {prec}"):
            divide_by_24delta(low)
    assert divide_by_24delta(WHForm(d, 0, {(Fraction(-1), ()): 1}, Fraction(3, 2))).prec \
        == Fraction(1, 2)

    f24 = WHForm.from_scalar_series(d, 0, delta_series(8).inverse() * 24)
    g24 = divide_by_24delta(f24)
    assert all(Fraction(c).denominator == 1 for c in g24.coefficients.values())


# ---------------------------------------------------------------------------
# differential check of the cusp reduction, computed once per CuspData,
# against the per-coset code it replaced: every call lifted its coset into
# ell-perp by a Smith normal form (`_former_solve_int`), then projected the
# lift to V0 or paired it with k
# ---------------------------------------------------------------------------

def _former_solve_int(m, b):
    """One integer solution x of m x = b, or None when unsolvable: the former
    `linalg.solve_int`, by a Smith normal form, kept as part of the reference."""
    d, u, v = smith_normal_form(m)
    ub = [sum(a * c for a, c in zip(row, b)) for row in u]
    cols = len(m[0])
    y = [0] * cols
    for i in range(len(m)):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return [sum(a * c for a, c in zip(row, y)) for row in v]


def former_lift_of_coset(mu, data):
    rep = discriminant_form(data.lattice).rep(mu)
    gl = list(data.lattice.image(data.ell))
    r = int(sum(a * b for a, b in zip(rep, gl)))
    if r % data.n_value != 0:
        return None
    v = _former_solve_int([gl], [-r])
    return tuple(a + b for a, b in zip(rep, v))


def former_coset_reduce(mu, data):
    lifted = former_lift_of_coset(mu, data)
    if lifted is None:
        return None
    cols = [list(data.ell)] + [list(r) for r in data.lift_rows]
    sol = solve_rational(transpose(cols), list(lifted))
    return discriminant_form(data.v0).coset_of_dual(tuple(sol[1:]))


def former_zeta_mu(mu, data):
    return e(data.lattice.bilinear(former_lift_of_coset(mu, data), data.k) / data.n_value)


N2_LATTICE = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
REDUCTION_CASES = {
    "U+A1": lambda: cusp_data(direct_sum([U, A1]), (1, 0, 0)),
    # Q(ell) = -1 + 1 = 0; the A1 coset pairs to 1 with ell, so its lift moves
    "U+A1-diagonal-ell": lambda: cusp_data(direct_sum([U, A1]), (1, -1, 1)),
    "V0-Z4": lambda: _nontrivial_zeta_case()[1],
    "V0-Z4-integral-k": lambda: cusp_data(_nontrivial_zeta_case()[1].lattice,
                                          (1, 0, 0, 0, 0)),
    "N2-dual-k": lambda: _with_k(cusp_data(GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 4]]),
                                           (1, 0, 0)), (0, 1, Fraction(1, 2))),
    "N2": lambda: cusp_data(N2_LATTICE, (1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_cusp_reduction_matches_per_coset_lifts(name):
    data = REDUCTION_CASES[name]()
    disc = discriminant_form(data.lattice)
    coeffs = {}
    # the reduction reads each coset off the inverse of (k0, ell, lift rows),
    # which must be a basis of L with [k0, ell] = N and the rest in ell-perp
    assert all(x.denominator == 1
               for row in invert_rational((data.k0, data.ell) + data.lift_rows) for x in row)
    assert data.lattice.bilinear(data.k0, data.ell) == data.n_value
    assert all(data.lattice.bilinear(r, data.ell) == 0 for r in data.lift_rows)
    for i, mu in enumerate(disc.cosets()):
        lam = former_coset_reduce(mu, data)
        lifted = former_lift_of_coset(mu, data)
        if lam is None:
            assert mu not in data.reduction and lifted is None
        else:
            assert data.reduction[mu][0] == lam
            assert data.lattice.bilinear(lifted, data.ell) == 0
            assert all(Fraction(a - b).denominator == 1
                       for a, b in zip(lifted, disc.rep(mu)))
            # any two lifts differ by a vector of ell-perp in L, so they give
            # the same V0 coset, of the same norm, and, k/N lying in L', the
            # same [lift, k]/N mod 1
            assert data.reduction[mu] == (
                lam, data.lattice.bilinear(lifted, data.k) / data.n_value % 1)
            assert discriminant_form(data.v0).q(lam) == disc.q(mu)
            assert e(data.reduction[mu][1]) == former_zeta_mu(mu, data)
        coeffs[(disc.q(mu) - 1, mu)] = i + 1
    # reduce_f0 against the sum over the former reductions
    form = WHForm(disc, 0, coeffs, 1)
    expected = {}
    for (m, mu), c in form.coefficients.items():
        lam = former_coset_reduce(mu, data)
        if lam is not None:
            expected[(m, lam)] = expected.get((m, lam), 0) + c
    assert reduce_f0(form, data).coefficients == expected


def test_cusp_reduction_lifts_each_coset_once(monkeypatch):
    # each coset's representative is read once per cusp, by the reduction
    form, data, w, cutoff = _nontrivial_zeta_case()
    disc = discriminant_form(data.lattice)
    calls = []
    real = disc.rep
    monkeypatch.setattr(disc, "rep", lambda mu: calls.append(mu) or real(mu))
    f0 = reduce_f0(form, data)
    chamber = chamber_of(w, f0, data)
    product_expand(form, data, chamber, (0,) * data.v0.rank, cutoff)
    assert sorted(calls) == sorted(disc.cosets())


# ---------------------------------------------------------------------------
# differential check of the cone walk against the two-loop enumeration it
# replaced: one majorant walk per caller, Q(x) and [x, w] recomputed per
# point as Fraction sums
# ---------------------------------------------------------------------------

def _reference_majorant(v0, w):
    qw = v0.q(w)
    gw = [sum(Fraction(g) * c for g, c in zip(row, w)) for row in v0.gram]
    return [[Fraction(v0.gram[i][j]) + gw[i] * gw[j] / -qw for j in range(v0.rank)]
            for i in range(v0.rank)]


def _reference_walls(f0, data, w, radius):
    v0 = data.v0
    w = tuple(Fraction(x) for x in w)
    qw = v0.q(w)
    radius = Fraction(radius)
    a = _reference_majorant(v0, w)
    walls = []
    by_coset = {}
    for (m, lam), c in f0.principal_part().items():
        if c != 0:
            by_coset.setdefault(lam, []).append(-m)
    for lam, ms in sorted(by_coset.items()):
        rep = discriminant_form(data.v0).rep(lam)
        bound = (2 + radius * radius) * max(ms)
        for x, _ in _qf_enumerate(a, rep, bound):
            x = tuple(Fraction(c) for c in x)
            qx = v0.q(x)
            if qx not in ms:
                continue
            pair = v0.bilinear(x, w)
            if pair * pair <= radius * radius * qx * (-qw):
                walls.append(x)
    walls.sort()
    return walls


def _reference_expansion(form, data, chamber, cutoff):
    """The body and skipped count from the former factor loop."""
    v0 = data.v0
    w = chamber.w
    qw = v0.q(w)
    cutoff_abs = Fraction(cutoff) * rational_gcd(w)
    by_lam = {}
    for mu in discriminant_form(data.lattice).cosets():
        lam = former_coset_reduce(mu, data)
        if lam is not None:
            z = former_zeta_mu(mu, data)
            zr = z.try_rational()
            by_lam.setdefault(lam, []).append((mu, zr if zr is not None else z))
    a = _reference_majorant(v0, w)
    bound = 2 * form.max_pole_order() + cutoff_abs * cutoff_abs / (-qw)
    factors = []
    skipped = 0
    for lam in sorted(by_lam):
        for x, _ in _qf_enumerate(a, discriminant_form(data.v0).rep(lam), bound):
            x = tuple(Fraction(c) for c in x)
            g = v0.bilinear(x, w)
            if g <= 0 or g > cutoff_abs:
                continue
            qx = v0.q(x)
            for mu, zeta in by_lam[lam]:
                c = form.coefficient(-qx, mu)
                if c == 0:
                    skipped += 1
                    continue
                factors.append((x, mu, zeta, int(c)))
    factors.sort(key=lambda f: (f[0], f[1]))
    body = LatticeQSeries.one(v0, w, cutoff_abs)
    for x, _, zeta, expo in factors:
        body = body * lattice_binomial(v0, w, cutoff_abs, x, zeta, expo)
    return body, skipped


def _nontrivial_zeta_case():
    lat = GramLattice([[0, 2, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                       [0, 0, 1, 0, 0], [0, 0, 0, 0, 4]])
    d = discriminant_form(lat)
    target = d.coset_of_dual((0, 0, 0, 0, Fraction(1, 2)))
    # two poles in the zero coset, so the radius filter on [x, w] is not
    # implied by the majorant bound
    f = WHForm(d, Fraction(-1, 2), {(Fraction(-1, 2), target): 1,
                                     (Fraction(-1), d.zero): 2,
                                     (Fraction(-2), d.zero): 1}, 3)
    data = _with_k(cusp_data(lat, (1, 0, 0, 0, 0)), (0, 1, 0, 0, Fraction(1, 2)))
    # rational_gcd(w) = 1/14, so cutoff 42 bounds the grading by 3
    return f, data, (Fraction(5, 2), -1, Fraction(1, 7)), 42


def _e8_cusp_case():
    from borcherds_kit.io import load_form, load_lattice
    from borcherds_kit.lattice import isotropic_line
    lat = load_lattice("e8-plus-2u")
    form, _ = load_form("e4sq-over-delta")
    data = cusp_data(lat, isotropic_line(lat))
    w_star = (840, 1100, 1350, 910, 460, 680, 570, 290, 74, -1055)
    return form, data, w_star, 6


@pytest.mark.parametrize("case, radii", [
    (lambda: (knz_form(), CUSP_UU, (2, -1), 5), (2, 3)),
    (_nontrivial_zeta_case, (2, 3)),
    (_e8_cusp_case, (1,)),
], ids=["knz", "nontrivial-zeta", "e8-w-star"])
def test_cone_walk_matches_former_loops(case, radii):
    form, data, w, cutoff = case()
    f0 = reduce_f0(form, data)
    v0 = data.v0
    for radius in radii:
        walls = enumerate_walls(f0, data, w, radius)
        assert repr(walls) == repr(_reference_walls(f0, data, w, radius))
        assert walls
        signs = {x: 1 if v0.bilinear(x, w) > 0 else -1 for x in walls}
        if radius == 2:  # the walls chamber_of signs
            assert chamber_of(w, f0, data).wall_signs == signs
    chamber = WeylChamber(w, signs)
    pe = product_expand(form, data, chamber, (0,) * v0.rank, cutoff)
    body, skipped = _reference_expansion(form, data, chamber, cutoff)
    assert pe.skipped == skipped
    assert repr(list(pe.body.coeffs.items())) == repr(list(body.coeffs.items()))
    assert len(pe.body.coeffs) > 1


def test_product_expand_rejects_inconsistent_chamber():
    # a hand-built chamber whose signs disagree with its interior point
    f = knz_form()
    f0 = reduce_f0(f, CUSP_UU)
    good = chamber_of((2, -1), f0, CUSP_UU)
    flipped = {x: -s for x, s in good.wall_signs.items()}
    with pytest.raises(ValueError, match="inconsistent"):
        product_expand(f, CUSP_UU, WeylChamber((2, -1), flipped), (0, -1), 3)


def test_one_reduction_per_majorant(monkeypatch):
    # the cone walk of every V0 coset (here D(V0) = Z/4) shares one LLL and
    # LDL reduction of the majorant
    from borcherds_kit import lattice as lattice_module
    calls = []
    real = lattice_module.lll_reduce_gram

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    form, data, w, cutoff = _nontrivial_zeta_case()
    assert discriminant_form(data.v0).order == 4
    f0 = reduce_f0(form, data)
    chambers = [chamber_of(w, f0, data),
                chamber_of((Fraction(5, 2), -1, Fraction(1, 5)), f0, data)]
    monkeypatch.setattr(lattice_module, "lll_reduce_gram", counted)
    monkeypatch.setattr(lattice_module, "_QF_REDUCE_CACHE",
                        type(lattice_module._QF_REDUCE_CACHE)(8))
    rho = (0,) * data.v0.rank
    product_expand(form, data, chambers[0], rho, cutoff)
    assert len(calls) == 1
    chamber_of(w, f0, data)  # the same majorant
    product_expand(form, data, chambers[0], rho, cutoff)
    assert len(calls) == 1
    product_expand(form, data, chambers[1], rho, cutoff)  # a second one
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# differential check of the integer cusp expansion against the Fraction code
# it replaced: the former LatticeQSeries (exponent tuples of Fractions,
# every term re-graded and re-validated), its lattice_binomial, and the
# former wall filter and chamber signs on Fraction values of Q(x) and [x, w]
# ---------------------------------------------------------------------------

class FormerLatticeQSeries:
    def __init__(self, lattice, w, cutoff, coeffs):
        self.lattice = lattice
        self.w = tuple(Fraction(x) for x in w)
        if lattice.q(self.w) >= 0:
            raise ValueError("grading point must lie in the light cone")
        self._gw = lattice.image(self.w)
        self.cutoff = Fraction(cutoff)
        out = {}
        for alpha, c in coeffs.items():
            alpha = tuple(Fraction(x) for x in alpha)
            if c == 0:
                continue
            g = self.grading(alpha)
            if any(alpha):
                if g <= 0:
                    raise ValueError("exponent with nonpositive grading")
                if g > self.cutoff:
                    continue
            out[alpha] = c
        self.coeffs = out

    def grading(self, alpha):
        return sum(a * g for a, g in zip(alpha, self._gw))

    def __mul__(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        right = [(a2, c2, other.grading(a2)) for a2, c2 in other.coeffs.items()]
        out = {}
        for a1, c1 in self.coeffs.items():
            g1 = self.grading(a1)
            for a2, c2, g2 in right:
                if g1 + g2 > cutoff:
                    continue
                a = tuple(x + y for x, y in zip(a1, a2))
                out[a] = out[a] + c1 * c2 if a in out else c1 * c2
        return FormerLatticeQSeries(self.lattice, self.w, cutoff, out)


def former_lattice_binomial(lattice, w, cutoff, alpha, zeta, e):
    alpha = tuple(Fraction(x) for x in alpha)
    g = lattice.bilinear(alpha, w)
    assert g > 0
    out = {}
    k = 0
    zeta_pow = 1
    while k * g <= cutoff:
        binom = Fraction(1)
        for i in range(k):
            binom = binom * (e - i) / (i + 1)
        out[tuple(k * x for x in alpha)] = binom * (-1) ** k * zeta_pow
        if e >= 0 and k == e:
            break
        k += 1
        zeta_pow = zeta_pow * zeta
    return FormerLatticeQSeries(lattice, w, cutoff, out)


def _former_cone_points(data, w, bounds):
    v0 = data.v0
    nqw = -v0.q(w)
    gw = v0.image(w)
    a = _reference_majorant(v0, w)
    for lam in sorted(bounds):
        for x, val in _qf_enumerate(a, discriminant_form(data.v0).rep(lam), bounds[lam]):
            pair = sum(c * g for c, g in zip(x, gw))
            yield lam, x, (val - pair * pair / nqw) / 2, pair


def former_enumerate_walls(f0, data, w, radius):
    w = tuple(Fraction(x) for x in w)
    r2 = Fraction(radius) ** 2
    by_coset = {}
    for (m, lam), c in f0.principal_part().items():
        if c != 0:
            by_coset.setdefault(lam, []).append(-m)
    bounds = {lam: (2 + r2) * max(ms) for lam, ms in by_coset.items()}
    nqw = -data.v0.q(w)
    return sorted(tuple(Fraction(c) for c in x)
                  for lam, x, qx, pair in _former_cone_points(data, w, bounds)
                  if qx in by_coset[lam] and pair * pair <= r2 * qx * nqw)


def former_chamber_of(w, f0, data, radius=2):
    w = tuple(Fraction(x) for x in w)
    signs = {}
    for x in former_enumerate_walls(f0, data, w, radius):
        s = data.v0.bilinear(x, w)
        if s == 0:
            raise ValueError(f"chamber point lies on the wall through {x}")
        signs[x] = 1 if s > 0 else -1
    return WeylChamber(w, signs)


def former_body(form, data, chamber, cutoff):
    """The former product loop, on the former series."""
    v0 = data.v0
    w = chamber.w
    qw = v0.q(w)
    cutoff_abs = Fraction(cutoff) * rational_gcd(w)
    by_lam = {}
    for mu in discriminant_form(data.lattice).cosets():
        lam = former_coset_reduce(mu, data)
        if lam is not None:
            z = former_zeta_mu(mu, data)
            zr = z.try_rational()
            by_lam.setdefault(lam, []).append((mu, zr if zr is not None else z))
    bound = 2 * form.max_pole_order() + cutoff_abs * cutoff_abs / (-qw)
    factors = []
    for lam, x, qx, g in _former_cone_points(data, w, dict.fromkeys(by_lam, bound)):
        if 0 < g <= cutoff_abs:
            for mu, zeta in by_lam[lam]:
                c = form.coefficient(-qx, mu)
                if c != 0:
                    factors.append((x, mu, zeta, int(c)))
    factors.sort(key=lambda f: (f[0], f[1]))
    body = FormerLatticeQSeries(v0, w, cutoff_abs, {(0,) * v0.rank: Fraction(1)})
    for x, _, zeta, expo in factors:
        body = body * former_lattice_binomial(v0, w, cutoff_abs, x, zeta, expo)
    return body


def assert_same_series(new, former):
    """The same terms, exponent types and coefficient types; `coeffs` lists
    them sorted by exponent."""
    assert repr(list(new.coeffs.items())) == \
        repr(sorted(former.coeffs.items(), key=lambda t: t[0]))
    assert new.cutoff == former.cutoff and new.w == former.w


def _knz_bundled_case():
    from borcherds_kit.io import load_form, load_lattice
    form, _ = load_form("knz-input")
    return form, cusp_data(load_lattice("u-plus-u"), (1, 0, 0, 0)), (2, -1), 12


@pytest.mark.parametrize("case, radii", [
    (_knz_bundled_case, (2, 3)),
    (_nontrivial_zeta_case, (2, 3)),
    (_e8_cusp_case, (2,)),
], ids=["knz", "nontrivial-zeta", "e8-w-star"])
def test_integer_cusp_matches_former_fraction_code(case, radii):
    form, data, w, cutoff = case()
    f0 = reduce_f0(form, data)
    for radius in radii:
        walls = enumerate_walls(f0, data, w, radius)
        assert walls and repr(walls) == repr(former_enumerate_walls(f0, data, w, radius))
        former = former_chamber_of(w, f0, data, radius)
        assert set(former.wall_signs.values()) == {-1, 1}
        if radius == 2:  # the walls chamber_of signs
            chamber = chamber_of(w, f0, data)
            assert repr(chamber) == repr(former)
            assert repr(chamber.wall_signs) == repr(former.wall_signs)
    pe = product_expand(form, data, chamber, (0,) * data.v0.rank, cutoff)
    assert len(pe.body.coeffs) > 3
    assert_same_series(pe.body, former_body(form, data, chamber, cutoff))


def test_lattice_binomial_products_match_former_fraction_code():
    # zeta = e(1/3) with exponents of both signs, and on U + A1 (D = Z/2) a
    # grid (1/2)Z and a grading point with G w off the integers; several
    # products land exactly on the cutoff
    zeta = e(Fraction(1, 3))
    cases = [
        (U, (2, -1), 6, [((1, 1), -2), ((-1, 1), 3), ((0, 1), -1), ((1, 2), 2)]),
        (direct_sum([U, A1]), (Fraction(3, 2), -1, Fraction(1, 3)), Fraction(11, 2),
         [((0, 1, Fraction(1, 2)), -1), ((-1, 1, 0), 2), ((0, 1, 0), -3),
          ((Fraction(0), 0, Fraction(1, 2)), 1)]),
    ]
    at_cutoff = 0
    for lat, w, cutoff, factors in cases:
        new = LatticeQSeries.one(lat, w, cutoff)
        former = FormerLatticeQSeries(lat, w, cutoff, {(0,) * lat.rank: Fraction(1)})
        for z in (zeta, 1):
            for alpha, expo in factors:
                b_new = lattice_binomial(lat, w, cutoff, alpha, z, expo)
                b_former = former_lattice_binomial(lat, w, cutoff, alpha, z, expo)
                assert_same_series(b_new, b_former)
                new, former = new * b_new, former * b_former
                assert_same_series(new, former)
        at_cutoff += sum(former.grading(a) == former.cutoff for a in former.coeffs)
    assert at_cutoff >= 2


def test_wall_on_the_radius_boundary_is_kept():
    # x = (1, 1) at w = (4, -1): [x, w]^2 = 9 = (3/2)^2 * Q(x) * |Q(w)|
    f0 = reduce_f0(one_over_delta_form(), CUSP_UU)
    walls = enumerate_walls(f0, CUSP_UU, (4, -1), Fraction(3, 2))
    assert (1, 1) in walls
    assert walls == former_enumerate_walls(f0, CUSP_UU, (4, -1), Fraction(3, 2))
    assert (1, 1) not in enumerate_walls(f0, CUSP_UU, (4, -1), Fraction(7, 5))
