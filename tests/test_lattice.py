import copy
import pickle
import random
from fractions import Fraction
from math import floor, lcm

import pytest

from borcherds_kit import lattice as lattice_module
from borcherds_kit.lattice import (
    GramLattice,
    _glue_classes,
    _span,
    _theta_by_glue,
    _qf_value_counts,
    _theta_prec,
    coset_reduce,
    coset_theta,
    cusp_data,
    direct_sum,
    discriminant_form,
    glue_lattice,
    is_maximal,
    isotropic_line,
    overlattice_witness,
    representation_count,
    short_vectors,
    theta_series,
    vectors_below,
)
from borcherds_kit.linalg import invert_rational, smith_normal_form

A1 = GramLattice([[2]], name="A1")
A2 = GramLattice([[2, -1], [-1, 2]], name="A2")
U = GramLattice([[0, 1], [1, 0]], name="U")
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
UU = direct_sum([U, U], name="U+U")


def test_quadratic_value_examples():
    assert A1.q((1,)) == 1
    assert E8.q((0,) * 8) == 0
    mins = short_vectors(E8, 1)
    assert mins and all(E8.q(v) == 1 for v in mins)
    with pytest.raises(ValueError):
        A1.q((1, 0))


def test_bilinear_identity_random():
    rng = random.Random(21)
    for lat in (A1, A2, U, E8):
        for _ in range(30):
            x = [rng.randint(-4, 4) for _ in range(lat.rank)]
            y = [rng.randint(-4, 4) for _ in range(lat.rank)]
            lhs = lat.bilinear(x, y)
            rhs = lat.q([a + b for a, b in zip(x, y)]) - lat.q(x) - lat.q(y)
            assert lhs == rhs


def test_gram_validation():
    with pytest.raises(ValueError):
        GramLattice([[1]])  # odd diagonal
    with pytest.raises(ValueError):
        GramLattice([[2, 1], [0, 2]])  # not symmetric


def test_non_integers_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="integer"):
        GramLattice([[Fraction(5, 2)]])  # would truncate to A1
    with pytest.raises(ValueError, match="integer"):
        GramLattice([[2.9, 1], [1, 2]])  # would truncate to A2
    d = discriminant_form(A2)
    with pytest.raises(ValueError, match="integer"):
        d.normalize((Fraction(1, 2),))  # would give (0,)
    with pytest.raises(ValueError, match="integer"):
        d.q((Fraction(4, 3),))  # would give Q of coset 1
    # integral values of any type are still accepted
    assert GramLattice([[2.0, Fraction(1)], [1, 2]]).gram == ((2, 1), (1, 2))
    assert d.normalize((Fraction(4),)) == (1,) and d.q((4,)) == Fraction(1, 3)


def test_infinite_and_nan_entries_are_rejected():
    # int(inf) raises OverflowError and int(nan) a differently worded
    # ValueError; both report a non-integer like every other entry
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="expected an integer"):
            GramLattice([[bad]])


def test_zero_shift_walks_without_a_solve(monkeypatch):
    # T is unimodular, so the zero coset needs no solve of T^T y = shift
    calls = []
    real = lattice_module.solve_rational

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice_module, "solve_rational", counted)
    monkeypatch.setattr(lattice_module, "_REP_COUNT_CACHE",
                        type(lattice_module._REP_COUNT_CACHE)(8))
    assert representation_count(E8, 2) == 2160
    assert representation_count(A2, 1, (0, 0)) == 6
    assert coset_theta(A2, None, 3).coefficient(1) == 6
    assert coset_theta(E8, (0,) * 8, 1).coefficient(1) == 240
    assert calls == []
    rep = discriminant_form(A2).rep((1,))
    assert representation_count(A2, Fraction(1, 3), rep) == 3
    assert len(calls) == 1  # a nonzero shift still solves


def test_rank_zero_lattice():
    zero = GramLattice([])
    assert zero.signature_pair == (0, 0) and zero.is_positive_definite
    d = discriminant_form(zero)
    assert d.order == 1 and list(d.cosets()) == [()]
    assert d.coset_of_dual(()) == ()
    assert isotropic_line(zero) is None
    assert repr(theta_series(zero, 3)) == "1 + O(q^4)"


def test_discriminant_form_examples():
    assert discriminant_form(E8).order == 1
    assert discriminant_form(U).order == 1
    d = discriminant_form(A2)
    assert d.invariant_factors == (3,)
    assert d.q((1,)) == Fraction(1, 3)
    d1 = discriminant_form(A1)
    assert d1.invariant_factors == (2,)
    assert d1.q((1,)) == Fraction(1, 4)


def test_discriminant_group_order_equals_det():
    rng = random.Random(22)
    for _ in range(20):
        # random even lattice: G = B + B^T with random integer B, fixed up to
        # be nonsingular
        n = rng.randint(1, 3)
        while True:
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            gram = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
            try:
                lat_det = GramLattice(gram)
            except ValueError:
                continue
            break
        assert discriminant_form(lat_det).order == abs(lat_det.det)


def test_q_descends_to_cosets():
    rng = random.Random(23)
    for lat in (A1, A2, GramLattice([[4, 1], [1, 4]])):
        d = discriminant_form(lat)
        for c in d.cosets():
            rep = d.rep(c)
            base = d.q(c)
            for _ in range(10):
                shift = [rng.randint(-3, 3) for _ in range(lat.rank)]
                moved = tuple(r + s for r, s in zip(rep, shift))
                q = lat.q(moved)
                assert (q - base).denominator == 1
    # pairing mod 1 matches Q(x+y)-Q(x)-Q(y)
    d = discriminant_form(A2)
    for c1 in d.cosets():
        for c2 in d.cosets():
            lhs = d.pairing(c1, c2)
            rhs = (d.q(d.add(c1, c2)) - d.q(c1) - d.q(c2)) % 1
            assert lhs == rhs


# ---------------------------------------------------------------------------
# differential check of the integer discriminant form against the Fraction
# route it replaced: Q and [,] of rational coset lifts under the rank-n form,
# mod 1
# ---------------------------------------------------------------------------

def _fraction_form(lat, x, y):
    """x^T G y summed as Fractions over the full Gram matrix."""
    return sum(Fraction(x[i]) * g * y[j]
               for i, row in enumerate(lat.gram) for j, g in enumerate(row))


def _fraction_q(lat, x):
    return (_fraction_form(lat, x, x) / 2) % 1


A3 = GramLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], name="A3")
A4 = GramLattice([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
                 name="A4")
D4 = GramLattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
                 name="D4")
U2 = GramLattice([[0, 2], [2, 0]], name="U(2)")
DISC_CASES = {  # name: (lattice, level)
    "A1": (A1, 4), "A2": (A2, 3), "A3": (A3, 8), "A4": (A4, 5), "D4": (D4, 2),
    "A1^3": (direct_sum([A1] * 3), 4), "A2+A4": (direct_sum([A2, A4]), 15),
    "U(2)+A1": (direct_sum([U2, A1]), 4), "[4]": (GramLattice([[4]]), 8),
    "A1+[4]": (direct_sum([A1, GramLattice([[4]])]), 8),
    "[[4,1],[1,4]]": (GramLattice([[4, 1], [1, 4]]), 15),
    "E8": (E8, 1),
}


@pytest.mark.parametrize("name", sorted(DISC_CASES))
def test_integer_discriminant_form_matches_fraction_route(name):
    lat, level = DISC_CASES[name]
    d = discriminant_form(lat)
    assert d.level == level
    cosets = list(d.cosets())
    reps = [d.rep(c) for c in cosets]
    values = []
    for c, x in zip(cosets, reps):
        ref = _fraction_q(lat, x)
        assert d.q(c) == ref and d.q_exponent(c) == ref * level
        row = d.pairing_row(c)
        for c2, y in zip(cosets, reps):
            ref2 = _fraction_form(lat, x, y) % 1
            assert d.pairing(c, c2) == ref2
            assert sum(a * b for a, b in zip(row, c2)) % level == ref2 * level
            values += [ref, ref2]
    # the level is the least N with N Q and N [,] integral on all of D
    assert level == lcm(*(v.denominator for v in values))


def test_glue_isotropy_matches_fraction_route():
    # random codes on mixed blocks: the block-form check rejects a code
    # exactly when some generator has Q != 0 or two pair to nonzero mod 1
    # on the rank-n lifts
    rng = random.Random(41)
    blocks = [A1, A2, A3, GramLattice([[4]]), A1]
    base = direct_sum(blocks)
    discs = [b.discriminant_form() for b in blocks]
    outcomes = set()
    for _ in range(150):
        gens = [tuple((rng.randrange(d.invariant_factors[0]),) for d in discs)
                for _ in range(rng.randint(1, 3))]
        lifts = [[x for d, c in zip(discs, g) for x in d.rep(c)] for g in gens]
        isotropic = all(_fraction_q(base, x) == 0 for x in lifts) and all(
            _fraction_form(base, x, y) % 1 == 0 for x in lifts for y in lifts)
        try:
            glue_lattice(blocks, gens)
            outcomes.add(True)
            assert isotropic
        except ValueError as exc:
            outcomes.add(False)
            assert "not isotropic" in str(exc) and not isotropic
    assert outcomes == {True, False}


def test_coset_of_dual_roundtrip():
    for lat in (A1, A2, GramLattice([[8]]), direct_sum([A1, A2])):
        d = discriminant_form(lat)
        for c in d.cosets():
            assert d.coset_of_dual(d.rep(c)) == c
    with pytest.raises(ValueError):
        discriminant_form(A2).coset_of_dual((Fraction(1, 2), Fraction(0)))


def _coset_via_u(d, y):
    """The coset of a dual vector read off the Smith form U G V = D: since
    D V^-1 = U G, y = sum_i m_i (column i of V) / d_i with m = U G y."""
    lat = d.lattice
    if len(y) != lat.rank:
        raise ValueError("dimension mismatch")
    gy = lat.image(y)
    if any(v.denominator != 1 for v in gy):
        raise ValueError("vector is not in the dual lattice")
    diag, u, _ = smith_normal_form(lat.gram)
    return tuple(sum(a * b for a, b in zip(row, gy)) % diag[i][i]
                 for i, row in enumerate(u) if diag[i][i] > 1)


def _random_even_grams(rng, count):
    """Nonsingular even Grams of rank <= 5: B + B^T, half of them made
    positive definite by a diagonal shift."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        shift = 2 * rng.randint(4, 6) if len(out) % 2 else 0
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        gram = [[b[i][j] + b[j][i] + shift * (i == j) for j in range(n)] for i in range(n)]
        try:
            out.append(GramLattice(gram))
        except ValueError:
            continue
    return out


def test_coset_of_dual_matches_u_g_y():
    rng = random.Random(15)
    u3 = GramLattice([[0, 3], [3, 0]], name="U(3)")
    lats = [D4, direct_sum([A2, A2]), direct_sum([u3, A1]), A4, U2, E8]
    lats += _random_even_grams(rng, 60)
    kinds = set()
    for lat in lats:
        d = discriminant_form(lat)
        kinds.add((lat.is_positive_definite, len(d.invariant_factors)))
        ginv = invert_rational([list(r) for r in lat.gram])
        cosets = list(d.cosets())
        for c in rng.sample(cosets, min(len(cosets), 30)):
            y = tuple(r + rng.randint(-2, 2) for r in d.rep(c))
            assert d.coset_of_dual(y) == _coset_via_u(d, y) == c
        for _ in range(10):
            # a random dual vector G^-1 x
            x = [rng.randint(-9, 9) for _ in range(lat.rank)]
            y = tuple(sum(a * b for a, b in zip(row, x)) for row in ginv)
            assert d.coset_of_dual(y) == _coset_via_u(d, y)
        # G e_0 / k is not integral when k exceeds every entry of column 0
        k = 1 + max(abs(row[0]) for row in lat.gram)
        off = (Fraction(1, k),) + (0,) * (lat.rank - 1)
        for route in (d.coset_of_dual, lambda y: _coset_via_u(d, y)):
            with pytest.raises(ValueError, match="dual lattice"):
                route(off)
            with pytest.raises(ValueError):
                route((0,) * (lat.rank + 1))
    # definite and indefinite forms, trivial, cyclic and non-cyclic groups
    assert {(p, min(f, 2)) for p, f in kinds} == {
        (p, f) for p in (True, False) for f in (0, 1, 2)}


def test_is_maximal():
    assert is_maximal(U)
    assert is_maximal(A1)
    assert is_maximal(A2)
    assert is_maximal(E8)
    assert not is_maximal(GramLattice([[8]]))


def test_overlattice_witness():
    result = overlattice_witness(GramLattice([[8]]))
    assert result is not None
    coset, over = result
    assert coset == (4,)
    assert over.gram == ((2,),)
    assert overlattice_witness(E8) is None
    # witness lattice is Z-valued by construction (GramLattice enforces it)
    big = direct_sum([GramLattice([[8]]), A2])
    res = overlattice_witness(big)
    assert res is not None
    _, over2 = res
    assert abs(over2.det) < abs(big.det)


def test_short_vectors_examples():
    assert short_vectors(A1, 0) == [(0,)]
    assert representation_count(E8, 1) == 240
    d = discriminant_form(A2)
    assert representation_count(A2, Fraction(1, 3), d.rep((1,))) == 3
    # m not congruent to Q(mu) mod 1: empty
    assert representation_count(A2, Fraction(1, 2), d.rep((1,))) == 0
    with pytest.raises(ValueError):
        short_vectors(U, 1)


def test_short_vectors_negation_symmetry():
    rng = random.Random(24)
    trials = 0
    while trials < 50:
        n = rng.randint(1, 3)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [[b[i][j] + b[j][i] + 4 * int(i == j) for j in range(n)] for i in range(n)]
        try:
            lat = GramLattice(gram)
        except ValueError:
            continue
        if not lat.is_positive_definite:
            continue
        d = discriminant_form(lat)
        cosets = list(d.cosets())
        c = cosets[rng.randrange(len(cosets))]
        m = d.q(c) + rng.randint(0, 2)
        r_plus = representation_count(lat, m, d.rep(c))
        r_minus = representation_count(lat, m, d.rep(d.neg(c)))
        assert r_plus == r_minus
        trials += 1


def test_enumeration_consistent_with_dual_lattice():
    # sum over cosets of coset counts = counts of the dual lattice (rescaled)
    for lat in (A2, GramLattice([[4, 1], [1, 4]]), direct_sum([A1, A2])):
        d = discriminant_form(lat)
        bound = 2
        total = {}
        for c in d.cosets():
            for _, val in vectors_below(lat, bound, d.rep(c)):
                total[val] = total.get(val, 0) + 1
        # dual lattice Gram: G^{-1} scaled; enumerate x in Z^n with
        # Q_dual(x) = x^T G^{-1} x / 2 <= bound
        ginv = invert_rational([list(r) for r in lat.gram])
        dual_counts = {}
        from borcherds_kit.lattice import _qf_value_counts
        for val, cnt in _qf_value_counts(ginv, None, 2 * Fraction(bound)).items():
            dual_counts[val / 2] = dual_counts.get(val / 2, 0) + cnt
        assert total == dual_counts


def test_theta_series_examples():
    zero_lat = GramLattice([])
    t = theta_series(zero_lat, 3)
    assert t.coefficient(0) == 1
    assert t.coefficient(1) == 0
    a1 = theta_series(A1, 4)
    assert [a1.coefficient(n) for n in range(5)] == [1, 2, 0, 0, 2]
    e8 = theta_series(E8, 2)
    assert [e8.coefficient(n) for n in range(3)] == [1, 240, 2160]


def test_theta_matches_eisenstein_for_e8():
    from borcherds_kit.qseries import eisenstein
    e4 = eisenstein(4, 4)
    th = theta_series(E8, 4)
    for n in range(5):
        assert th.coefficient(n) == e4.coefficient(n)


def test_witt_pair_share_theta_e4_squared():
    # Witt's pair, the even unimodular lattices of rank 16: E8+E8 by the
    # direct walk and D16+ (D16 glued along a spinor coset) by the glue
    # route both give theta = E4^2 through q^4
    from borcherds_kit.qseries import eisenstein
    gram = [[2 * (i == j) for j in range(16)] for i in range(16)]
    for i, j in [(i, i + 1) for i in range(14)] + [(13, 15)]:
        gram[i][j] = gram[j][i] = -1
    d16 = GramLattice(gram, name="D16")
    disc = discriminant_form(d16)
    assert disc.order == 4
    # the two spinor cosets have Q = 16/8 = 0 mod 1, the vector coset 1/2
    spinor = [c for c in disc.cosets() if c != disc.zero and disc.q(c) == 0]
    assert len(spinor) == 2
    d16_plus = glue_lattice([d16], [(spinor[0],)], name="D16+")
    e8_e8 = direct_sum([E8, E8])
    assert abs(d16_plus.det) == abs(e8_e8.det) == 1
    assert e8_e8.glue is None and d16_plus.glue is not None
    e4 = eisenstein(4, 4)
    e4_squared = [sum(e4.coefficient(k) * e4.coefficient(n - k) for k in range(n + 1))
                  for n in range(5)]
    assert e4_squared == [1, 480, 61920, 1050240, 7926240]
    for lat in (e8_e8, d16_plus):
        theta = theta_series(lat, 4)
        assert [theta.coefficient(n) for n in range(5)] == e4_squared, lat.name
        assert theta.prec == 5


@pytest.mark.parametrize("name", ["_THETA_CACHE", "_REP_COUNT_CACHE"])
def test_caches_are_bounded_and_keep_warm_entries(monkeypatch, name):
    module_cache = getattr(lattice_module, name)
    size = module_cache.size
    assert size >= 8
    # fresh caches of the same kind, so the test neither reads nor evicts
    # entries that other tests stored (the glue route also fills the count
    # memo with its blocks' counts)
    for cache_name in ("_THETA_CACHE", "_REP_COUNT_CACHE"):
        fresh = type(getattr(lattice_module, cache_name))(getattr(lattice_module, cache_name).size)
        monkeypatch.setattr(lattice_module, cache_name, fresh)
    cache = getattr(lattice_module, name)

    if name == "_THETA_CACHE":
        # the glue route's cache holds glued lattices only (here each glued
        # by the empty code); a theta series recomputed runs `_theta_by_glue`
        lats = [glue_lattice([GramLattice([[2 * k]])], []) for k in range(1, size + 4)]
        fill, compute = (lambda lat: theta_series(lat, 2)), "_theta_by_glue"
    else:
        lats = [GramLattice([[2 * k]]) for k in range(1, size + 4)]
        fill, compute = (lambda lat: representation_count(lat, 1)), "_qf_value_counts"
    for lat in lats:
        fill(lat)
        assert len(cache) <= size
    # oldest out: the first three are gone, the last `size` are held in order
    held = [key if name == "_THETA_CACHE" else key[0] for key in cache]
    assert held == [lat.gram for lat in lats[3:]]

    def no_recompute(*args, **kwargs):
        raise AssertionError("a warm entry must not be recomputed")

    monkeypatch.setattr(lattice_module, compute, no_recompute)
    assert fill(lats[-1]) == fill(lats[-1])  # hits, so no recompute
    assert fill(lats[3]) is not None  # the oldest entry still held
    with pytest.raises(AssertionError, match="warm entry"):
        fill(lats[0])  # evicted, so it is computed again


def test_glue_identity_code():
    lat = glue_lattice([E8], [])
    assert lat.gram == E8.gram


def test_glue_rejects_bad_code():
    # a non-isotropic glue vector: the A1 coset with Q = 1/4
    with pytest.raises(ValueError):
        glue_lattice([A1, A1], [((1,), (0,))])


def _bfs_span(generators, factors):
    """Reference span: breadth-first closure under adding generators."""
    zero = (0,) * len(factors)
    words = {zero}
    frontier = [zero]
    while frontier:
        w = frontier.pop()
        for g in generators:
            nw = tuple((a + b) % f for a, b, f in zip(w, g, factors))
            if nw not in words:
                words.add(nw)
                frontier.append(nw)
    return words


def _flat(word):
    return sum(word, ())


def _check_span(generators, factors):
    """_span on nested words against the BFS oracle on the flattened ones."""
    words, basis = _span(generators, factors)
    assert len(words) == len(set(words))
    flat_factors = [f for block in factors for f in block]
    assert set(map(_flat, words)) == _bfs_span([_flat(g) for g in generators],
                                               flat_factors)
    assert all(g in generators for g in basis)
    # every basis element enlarges the span of the ones before it
    assert _span(basis, factors) == (words, basis)
    return words, basis


def test_span_matches_bfs_on_golay_codes():
    from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
    rng = random.Random(11)
    for rows, modulus, size in ((binary_golay_generators(), 2, 4096),
                                (ternary_golay_generators(), 3, 729)):
        gens = [tuple((c,) for c in r) for r in rows]
        factors = [(modulus,)] * len(gens[0])
        words, basis = _check_span(gens, factors)
        assert len(words) == size and len(basis) == len(gens)
        # repeats and redundant sums change neither the span nor the basis size
        sums = [tuple(((a + b) % modulus,) for (a,), (b,) in zip(g, h))
                for g, h in zip(gens, gens[1:])]
        noisy = gens + sums + gens[:3]
        rng.shuffle(noisy)
        words2, basis2 = _check_span(noisy, factors)
        assert set(words2) == set(words) and len(basis2) == len(gens)


def test_span_matches_bfs_mixed_factors():
    # blocks of one and of two invariant factors, two of them equal
    rng = random.Random(5)
    factors = [(4, 2), (2,), (3, 6), (2,)]
    for _ in range(40):
        gens = [tuple(tuple(rng.randrange(f) for f in block) for block in factors)
                for _ in range(rng.randint(0, 4))]
        _check_span(gens, factors)


def test_glue_mixed_invariant_factors():
    # A3 has discriminant Z/4 with Q(2) = 1/2; A1 has Z/2 with Q(1) = 1/4
    a3 = GramLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], name="A3")
    blocks = [a3, a3, A1, A1]
    gens = [((2,), (2,), (0,), (0,)), ((2,), (0,), (1,), (1,))]
    lat = glue_lattice(blocks, gens)
    factors = [4, 4, 2, 2]
    expected = _bfs_span([sum(g, ()) for g in gens], factors)
    assert {sum(w, ()) for w in lat.glue.words} == expected
    assert len(lat.glue.words) == 4 and abs(lat.det) == 4 * 4 * 2 * 2 // 16
    redundant = gens + [((0,), (2,), (1,), (1,)), gens[0]]
    assert glue_lattice(blocks, redundant).gram == lat.gram
    th_glue = theta_series(lat, 3)
    assert th_glue.coeffs == coset_theta(lat, None, 3).coeffs


def test_glue_isotropy_checks_pairings():
    # each word has Q = 4 * 1/4 = 1, but the two words pair to 1/2 mod 1
    w1 = tuple((int(c),) for c in "11110000")
    w2 = tuple((int(c),) for c in "10001110")
    glue_lattice([A1] * 8, [w1])
    glue_lattice([A1] * 8, [w2])
    with pytest.raises(ValueError, match="not isotropic"):
        glue_lattice([A1] * 8, [w1, w2])

def test_isotropic_line():
    assert isotropic_line(U) == (1, 0)
    assert isotropic_line(E8) is None
    assert isotropic_line(A2) is None
    ua1 = direct_sum([U, A1])
    ell = isotropic_line(ua1)
    assert ell == (1, 0, 0)
    assert ua1.q(ell) == 0
    # an indefinite diagonal lattice with no zero diagonal entry
    lat = GramLattice([[2, 0], [0, -2]])
    ell = isotropic_line(lat)
    assert ell is not None
    assert lat.q(ell) == 0
    from math import gcd
    assert gcd(*(abs(c) for c in ell)) == 1


def test_isotropic_search_budget_warning(monkeypatch):
    # x^2 + y^2 = 7 z^2 has no nonzero solution (mod 8 descent), so the
    # shell search exhausts its budget and warns
    lat = GramLattice([[2, 0, 0], [0, 2, 0], [0, 0, -14]])
    monkeypatch.setattr(lattice_module, "ISOTROPIC_SEARCH_BUDGET", 5000)
    with pytest.warns(RuntimeWarning):
        assert isotropic_line(lat) is None


def test_vectors_below_negative_bound():
    assert vectors_below(A1, -1) == []
    assert short_vectors(A1, Fraction(-1, 2)) == []


def test_cusp_data_u_plus_u():
    data = cusp_data(UU, (1, 0, 0, 0))
    assert data.n_value == 1
    assert UU.q(data.k) == 0
    assert data.ell_star == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert UU.bilinear(data.ell, data.ell_star) == 1
    assert UU.q(data.ell_star) == 0
    assert data.v0.gram == U.gram


def test_cusp_data_invariants_various():
    for lat, ell in [
        (UU, (1, 0, 0, 0)),
        (direct_sum([E8, U]), tuple([0] * 8 + [1, 0])),
        (direct_sum([U, A1]), (1, 0, 0)),
    ]:
        data = cusp_data(lat, ell)
        assert lat.bilinear(data.ell, data.ell_star) == data.n_value
        assert lat.q(data.ell_star) == 0
        # lifts land in ell-perp
        for row in data.lift_rows:
            assert lat.bilinear(list(row), data.ell) == 0


def test_cusp_data_e8_u_quotient():
    lat = direct_sum([E8, U])
    data = cusp_data(lat, tuple([0] * 8 + [1, 0]))
    assert data.v0.rank == 8
    assert abs(data.v0.det) == 1
    assert data.v0.signature_pair == (8, 0)
    assert representation_count(data.v0, 1) == 240


def test_cusp_data_rejects_bad_input():
    with pytest.raises(ValueError):
        cusp_data(UU, (2, 0, 0, 0))  # imprimitive
    with pytest.raises(ValueError):
        cusp_data(UU, (1, 1, 0, 0))  # not isotropic
    # ell is read exactly, not truncated to the cusp of (1, 0, 0, 0)
    for ell in [(Fraction(3, 2), 0, 0, 0), (1.9, 0, 0, 0)]:
        with pytest.raises(ValueError, match="expected an integer"):
            cusp_data(UU, ell)


def test_cusp_data_reads_ell_and_k_exactly():
    data, ref = cusp_data(UU, (1.0, 0, 0, 0)), cusp_data(UU, (1, 0, 0, 0))
    assert data.ell == ref.ell and all(type(x) is int for x in data.ell)
    assert data.k0 == ref.k0
    assert data.lift_rows == ref.lift_rows
    assert data.v0.gram == ref.v0.gram
    # a dual k with a half-integral entry, given as a Fraction; as a float
    # it raises like every other inexact coordinate
    n2 = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
    dual_k = cusp_data(n2, (1, 0, 0), k=(0, 1, Fraction(1, 2)))
    assert dual_k.k == (0, 1, Fraction(1, 2))
    assert dual_k.n_value == 2
    with pytest.raises(ValueError):
        cusp_data(n2, (1, 0, 0), k=(0, 1, 0.5))


def test_cusp_data_maximal_forces_n_one():
    # maximal lattices have N = 1 for every primitive isotropic ell
    for lat, ell in [(UU, (1, 0, 0, 0)), (direct_sum([U, A1]), (1, 0, 0))]:
        assert is_maximal(lat)
        assert cusp_data(lat, ell).n_value == 1


def test_coset_reduce_trivial():
    data = cusp_data(UU, (1, 0, 0, 0))
    assert coset_reduce((), data) == ()


def test_coset_reduce_a1_coset():
    lat = direct_sum([U, A1])
    data = cusp_data(lat, (1, 0, 0))
    d = discriminant_form(lat)
    d0 = discriminant_form(data.v0)
    assert d.invariant_factors == (2,)
    assert d0.invariant_factors == (2,)
    lam = coset_reduce((1,), data)
    assert lam == (1,)
    assert d0.q(lam) == d.q((1,))
    # k = k0 is integral, so both roots of unity are 1
    assert data.reduction == {(0,): ((0,), 0), (1,): ((1,), 0)}


def test_coset_reduce_lift_independent():
    # shifting a lift by any kernel vector of [., ell] lands in the same
    # coset: write the moved lift as c ell + sum c_i lift_i and read off c_i
    from borcherds_kit.linalg import kernel_basis, mat_vec, solve_rational, transpose
    lat = direct_sum([U, A1])
    data = cusp_data(lat, (1, 0, 0))
    lifted = discriminant_form(lat).rep((1,))
    assert lat.bilinear(lifted, data.ell) == 0
    target = coset_reduce((1,), data)
    cols = transpose([data.ell, *data.lift_rows])
    gl = mat_vec([list(r) for r in lat.gram], list(data.ell))
    for kv in kernel_basis([gl]):
        for scale in (-2, 1, 3):
            moved = [a + scale * b for a, b in zip(lifted, kv)]
            coords = solve_rational(cols, moved)
            assert data.disc_v0.coset_of_dual(coords[1:]) == target


def test_coset_reduce_no_lift():
    # non-maximal lattice with N = 2: gram [[0,2],[2,0]] + A1; ell = e1 pairs
    # to 2Z with the lattice, and the odd A1 coset has [mu, ell] odd
    lat = GramLattice([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
    data = cusp_data(lat, (1, 0, 0))
    assert data.n_value == 2
    d = discriminant_form(lat)
    # find a coset whose pairing with ell is not divisible by N
    found_none = False
    for c in d.cosets():
        rep = d.rep(c)
        r = lat.bilinear(rep, data.ell)
        if r % 2 != 0:
            assert coset_reduce(c, data) is None
            found_none = True
    assert found_none


def test_niemeier_construction_and_theta():
    from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
    from borcherds_kit.qseries import delta_series, eisenstein

    n1 = glue_lattice([A1] * 24,
                      [tuple((c,) for c in row) for row in binary_golay_generators()],
                      name="Niemeier(A1^24)")
    n2 = glue_lattice([A2] * 12,
                      [tuple((c,) for c in row) for row in ternary_golay_generators()],
                      name="Niemeier(A2^12)")
    assert n1.det == 1 and n2.det == 1
    assert is_maximal(n1) and is_maximal(n2)
    assert representation_count(n1, 1) == 48
    assert representation_count(n2, 1) == 72

    th1 = theta_series(n1, 4)
    th2 = theta_series(n2, 4)
    # a weight-12 form is fixed by its first two coefficients:
    # theta = E4^3 + (r(1) - 720) Delta
    e4cubed = eisenstein(4, 4) ** 3
    delta = delta_series(4)
    for theta, roots in ((th1, 48), (th2, 72)):
        for n in range(5):
            expected = e4cubed.coefficient(n) + (roots - 720) * delta.coefficient(n)
            assert theta.coefficient(n) == expected

    # glue-theta equals direct enumeration through q^2
    for lat, theta in ((n1, th1), (n2, th2)):
        for n in (1, 2):
            assert representation_count(lat, n) == theta.coefficient(n)


def test_glue_theta_small_case():
    # gluing two A1 blocks along the diagonal coset gives a lattice whose
    # theta can be checked directly: requires isotropy, so use A1 + A1(-1)?
    # Instead: the 4-fold A1 with the all-ones glue word (Q = 4 * 1/4 = 1 ≡ 0)
    gens = [((1,), (1,), (1,), (1,))]
    lat = glue_lattice([A1] * 4, gens)
    assert abs(lat.det) == 2 ** 4 // 4
    th_glue = theta_series(lat, 3)
    th_direct = coset_theta(lat, None, 3)
    assert th_glue.coeffs == th_direct.coeffs


A3 = GramLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], name="A3")


def _niemeier(kind):
    from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
    block, rows = {"a1": (A1, binary_golay_generators()),
                   "a2": (A2, ternary_golay_generators())}[kind]
    return glue_lattice([block] * len(rows[0]), [tuple((c,) for c in r) for r in rows])


def _former_theta_by_glue(glue, bound, prec):
    """The glue theta as computed before the weight-enumerator form: every
    word's coset series frozen and sorted, words grouped by that multiset."""
    from borcherds_kit.qseries import FracQSeries
    blocks = glue.blocks
    theta_cache = {}

    def block_theta(bi, coset):
        key = (blocks[bi].gram, coset)
        if key not in theta_cache:
            rep = blocks[bi].discriminant_form().rep(coset)
            theta_cache[key] = coset_theta(blocks[bi], rep, bound)
        return theta_cache[key]

    freeze_to_series = {}
    class_counts = {}
    for word in glue.words:
        keys = []
        for bi, coset in enumerate(word):
            s = block_theta(bi, coset)
            fz = (s.denominator, s.prec, tuple(sorted(s.coeffs.items())))
            freeze_to_series[fz] = s
            keys.append(fz)
        cls = tuple(sorted(keys))
        class_counts[cls] = class_counts.get(cls, 0) + 1

    total = FracQSeries.zero(prec)
    for cls, count in class_counts.items():
        prod = None
        mult = {}
        for fz in cls:
            mult[fz] = mult.get(fz, 0) + 1
        for fz, e in mult.items():
            p = freeze_to_series[fz] ** e
            prod = p if prod is None else prod * p
        total = total + prod * count
    return total.truncate(prec)


# A2 in the basis (e1, e1 + e2): an equal coset series from another Gram
A2_REBASED = GramLattice([[2, 1], [1, 2]], name="A2'")
# the tetracode glues A2^4 to E8; half its blocks re-based
TETRACODE = [((1,), (1,), (1,), (0,)), ((0,), (1,), (2,), (1,))]


def _glue_case(name):
    if name.startswith("niemeier"):
        return _niemeier(name[-2:])
    if name == "a3-a1":
        return glue_lattice([A3, A3, A1, A1], [((2,), (2,), (0,), (0,)),
                                               ((2,), (0,), (1,), (1,))])
    if name == "e8-hamming":
        rows = ["11110000", "00111100", "00001111", "01010101"]
        return glue_lattice([A1] * 8, [tuple((int(c),) for c in r) for r in rows])
    return glue_lattice([A2, A2_REBASED, A2, A2_REBASED], TETRACODE)


@pytest.mark.parametrize("name, bound", [
    ("niemeier-a1", 3), ("niemeier-a1", Fraction(5, 2)),
    ("niemeier-a2", 3), ("niemeier-a2", Fraction(5, 2)),
    ("a3-a1", 3), ("e8-hamming", 3), ("a2-rebased", 3),
], ids=str)
def test_glue_theta_matches_former_grouping(name, bound):
    lat = _glue_case(name)
    prec = _theta_prec(lat, None, bound)
    new = _theta_by_glue(lat.glue, bound, prec)
    assert repr(new) == repr(_former_theta_by_glue(lat.glue, bound, prec))
    if name in ("e8-hamming", "a2-rebased"):
        assert abs(lat.det) == 1
        assert [new.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]


def test_glue_classes_are_the_golay_weight_enumerators():
    # SPLAG ch. 3: W(y) = 1 + 759y^8 + 2576y^12 + 759y^16 + y^24 for the
    # binary Golay code and 1 + 264y^6 + 440y^9 + 24y^12 for the ternary one;
    # id 0 is the zero coset, the first block coset of the sorted zero word
    series, classes = _glue_classes(_niemeier("a1").glue, 2)
    assert len(series) == 2 and series[0].coefficient(0) == 1
    assert classes == {(24 - k, k): n for k, n in
                       ((0, 1), (8, 759), (12, 2576), (16, 759), (24, 1))}
    series, classes = _glue_classes(_niemeier("a2").glue, 2)
    assert len(series) == 2 and series[0].coefficient(0) == 1
    assert classes == {(12 - k, k): n for k, n in
                       ((0, 1), (6, 264), (9, 440), (12, 24))}
    disc = discriminant_form(A2)
    assert coset_theta(A2, disc.rep((1,)), 2) == series[1]
    assert coset_theta(A2, disc.rep((2,)), 2) == series[1]


def test_glue_classes_share_series_across_grams():
    lat = _glue_case("a2-rebased")
    series, classes = _glue_classes(lat.glue, 3)
    assert len(series) == 2  # zero coset and one nonzero series for both Grams
    assert classes == {(4, 0): 1, (1, 3): 8}


@pytest.mark.parametrize("name, walks", [("niemeier-a2", 2), ("a2-rebased", 4)])
def test_glue_classes_walk_one_of_mu_and_minus_mu(monkeypatch, name, walks):
    # theta_{L - mu} = theta_{L + mu}: of the A2 cosets 1 and 2 only the one
    # met first is walked, once per block Gram.  That each coset still gets
    # its own series is checked against the former grouping, which walks
    # every coset (test_glue_theta_matches_former_grouping).
    lat = _glue_case(name)
    walked = []
    real = lattice_module.coset_theta

    def counted(block, rep, bound):
        walked.append((block.gram, block.discriminant_form().coset_of_dual(rep)))
        return real(block, rep, bound)

    monkeypatch.setattr(lattice_module, "coset_theta", counted)
    _glue_classes(lat.glue, 3)
    assert len(walked) == walks and len(set(walked)) == walks
    for gram in {g for g, _ in walked}:
        cosets = {c for g, c in walked if g == gram}
        assert (0,) in cosets and len(cosets & {(1,), (2,)}) == 1


def _former_span_nested(blocks, generators):
    """The code span as built before words stayed nested: flat words added
    entry by entry mod the flat factors, then cut into blocks."""
    discs = [b.discriminant_form() for b in blocks]
    factors = [f for d in discs for f in d.invariant_factors]
    zero = (0,) * len(factors)
    words, members, basis = [zero], {zero}, []
    for g in (sum(g, ()) for g in generators):
        if g in members:
            continue
        basis.append(g)
        old = len(words)
        kg = g
        while kg not in members:
            for w in words[:old]:
                nw = tuple((a + b) % f for a, b, f in zip(w, kg, factors))
                words.append(nw)
                members.add(nw)
            kg = tuple((a + b) % f for a, b, f in zip(kg, g, factors))
    cuts = [0]
    for d in discs:
        cuts.append(cuts[-1] + len(d.invariant_factors))

    def nest(flat):
        return tuple(flat[a:b] for a, b in zip(cuts, cuts[1:]))

    return [nest(w) for w in words], [nest(g) for g in basis]


def _former_glue_classes(glue, bound):
    """The composition tally as computed before the per-block tables: one
    series_id call per block of every word."""
    from collections import Counter
    ids, by_coset = {}, {}

    def series_id(block, coset):
        key = (block.gram, coset)
        if key not in by_coset:
            disc = block.discriminant_form()
            sid = by_coset.get((block.gram, disc.neg(coset)))
            if sid is None:
                sid = ids.setdefault(coset_theta(block, disc.rep(coset), bound), len(ids))
            by_coset[key] = sid
        return by_coset[key]

    words = [[series_id(b, c) for b, c in zip(glue.blocks, word)] for word in glue.words]
    return list(ids), Counter(tuple(map(w.count, range(len(ids)))) for w in words)


@pytest.mark.parametrize("name", ["niemeier-a1", "niemeier-a2", "a3-a1", "a2-rebased"])
def test_glue_span_and_classes_match_former_flat_code(name):
    lat = _glue_case(name)
    glue = lat.glue
    factors = [b.discriminant_form().invariant_factors for b in glue.blocks]
    words, basis = _span(glue.generators, factors)
    former_words, former_basis = _former_span_nested(glue.blocks, glue.generators)
    assert words == former_words and basis == former_basis
    assert set(words) == set(former_words)
    assert list(glue.words) == sorted(former_words)
    assert all(type(w) is tuple and all(type(c) is tuple for c in w) for w in glue.words)
    for bound in (2, Fraction(5, 2)):
        assert _glue_classes(glue, bound) == _former_glue_classes(glue, bound)


@pytest.mark.parametrize("copier", [
    lambda lat: pickle.loads(pickle.dumps(lat)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_lattices_pickle_and_copy(copier):
    for lat in (A2, _glue_case("a3-a1"), _niemeier("a1")):
        disc = lat.discriminant_form()
        twin = copier(lat)
        assert twin == lat and hash(twin) == hash(lat)
        assert (twin.name, twin.det, twin.signature_pair) == (
            lat.name, lat.det, lat.signature_pair)
        if lat.glue is None:
            assert twin.glue is None
        else:
            assert twin.glue.words == lat.glue.words
            assert twin.glue.generators == lat.glue.generators
            assert twin.glue.blocks == lat.glue.blocks
        # the copy builds its own discriminant form, equal to the original's
        assert twin._disc is None
        twin_disc = twin.discriminant_form()
        assert twin_disc is not disc
        assert twin_disc.invariant_factors == disc.invariant_factors
        assert [twin_disc.q(c) for c in twin_disc.cosets()] == [disc.q(c) for c in disc.cosets()]
    with pytest.raises(AttributeError, match="immutable"):
        copy.copy(A2).name = "B2"


@pytest.fixture
def lll_calls(monkeypatch):
    """A fresh `_qf_reduce` cache of 4 entries; the list holds one entry per
    `lll_reduce_gram` call made since."""
    calls = []
    real = lattice_module.lll_reduce_gram

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice_module, "lll_reduce_gram", counted)
    monkeypatch.setattr(lattice_module, "_QF_REDUCE_CACHE",
                        type(lattice_module._QF_REDUCE_CACHE)(4))
    monkeypatch.setattr(lattice_module, "_REP_COUNT_CACHE",
                        type(lattice_module._REP_COUNT_CACHE)(8))
    return calls


def test_qf_reduce_once_per_matrix(lll_calls):
    disc = discriminant_form(A3)
    thetas = [coset_theta(A3, disc.rep(c), 2) for c in disc.cosets()]
    assert len(thetas) == 4 and len(lll_calls) == 1
    lattice_module._QF_REDUCE_CACHE.clear()
    counts = [representation_count(A3, m) for m in (1, 2, 3)]
    assert counts == [12, 6, 24] and len(lll_calls) == 2
    # warm and cold walks agree
    a = [list(r) for r in A3.gram]
    warm = lattice_module._qf_enumerate(a, disc.rep((1,)), 4)
    lattice_module._QF_REDUCE_CACHE.clear()
    assert lattice_module._qf_enumerate(a, disc.rep((1,)), 4) == warm
    assert len(lll_calls) == 3


def test_qf_reduce_below_rank_3(lll_calls):
    # rank 1 and 2 take the same LLL route as every other rank
    disc = discriminant_form(A2)
    thetas = [coset_theta(A2, disc.rep(c), 3) for c in disc.cosets()]
    assert thetas[1] == thetas[2] and len(lll_calls) == 1
    assert representation_count(A1, 4) == 2 and len(lll_calls) == 2


def test_qf_reduce_cache_is_bounded(lll_calls):
    cache = lattice_module._QF_REDUCE_CACHE
    grams = [[[2 * k, -1, 0], [-1, 2, -1], [0, -1, 2]] for k in range(2, cache.size + 5)]
    for g in grams:
        lattice_module._qf_value_counts(g, None, 4)
        assert len(cache) <= cache.size
    assert len(lll_calls) == len(grams)
    # an equal matrix with Fraction entries hits, a different one misses
    lattice_module._qf_value_counts([[Fraction(x) for x in r] for r in grams[-1]], None, 4)
    assert len(lll_calls) == len(grams)
    lattice_module._qf_value_counts(grams[0], None, 4)  # evicted
    assert len(lll_calls) == len(grams) + 1
    lattice_module._qf_value_counts(A3.gram, None, 4)
    assert len(lll_calls) == len(grams) + 2


@pytest.mark.parametrize("lat", [A1, A2, A3], ids=lambda lat: lat.name)
@pytest.mark.parametrize("bound", [0, 1, 2, Fraction(5, 2), Fraction(7, 3), 3], ids=str)
def test_coset_theta_precision_matches_representation_count(lat, bound):
    # the claimed precision is the first point past `bound` of the grid
    # Q(rep) + (1/d)Z, and every grid coefficient below it is a true count
    disc = discriminant_form(lat)
    reps = [disc.rep(c) for c in disc.cosets()]
    reps.append(tuple(Fraction(k + 1, 3) for k in range(lat.rank)))  # not dual: d = 3
    for rep in reps:
        d = lcm(*(Fraction(sum(g * c for g, c in zip(row, rep))).denominator
                  for row in lat.gram))
        q0 = lat.q(rep)
        th = coset_theta(lat, rep, bound)
        assert th.prec > bound
        assert th.prec - Fraction(1, d) <= bound
        assert ((th.prec - q0) * d).denominator == 1
        e = q0 - Fraction(floor(q0 * d), d)  # the smallest grid point >= 0
        while e < th.prec:
            assert th.coefficient(e) == representation_count(lat, e, rep), (rep, e)
            e += Fraction(1, d)


def test_coset_theta_claims_no_unenumerated_coefficient():
    rep_a2 = discriminant_form(A2).rep((1,))
    th = coset_theta(A2, rep_a2, 1)
    assert th.prec == Fraction(4, 3)
    assert representation_count(A2, Fraction(4, 3), rep_a2) == 3
    with pytest.raises(ValueError):
        th.coefficient(Fraction(4, 3))
    rep_a1 = discriminant_form(A1).rep((1,))
    assert coset_theta(A1, rep_a1, 2).prec == Fraction(9, 4)
    assert coset_theta(A1, rep_a1, 3).coefficient(Fraction(9, 4)) == 2
    assert representation_count(A1, Fraction(9, 4), rep_a1) == 2


def test_lattice_theta_precision_rule(monkeypatch):
    monkeypatch.setattr(lattice_module, "_THETA_CACHE", type(lattice_module._THETA_CACHE)(8))
    assert theta_series(A2, 3).prec == 4  # integer bound: bound + 1, as before
    assert theta_series(A2, Fraction(5, 2)).prec == 3  # a count-memo hit
    assert theta_series(A1, Fraction(5, 2)).prec == 3
    # the glue route follows the same rule: E8 as A1^8 glued by the
    # extended Hamming code
    rows = ["11110000", "00111100", "00001111", "01010101"]
    e8 = glue_lattice([A1] * 8, [tuple((int(c),) for c in r) for r in rows])
    assert abs(e8.det) == 1
    for bound in (Fraction(5, 2), 2):
        th = theta_series(e8, bound)
        assert th.prec == 3
        assert [th.coefficient(n) for n in range(3)] == [1, 240, 2160]


@pytest.fixture
def memo_walks(monkeypatch):
    """A fresh count memo of 16 entries and a fresh glue-route cache; the
    list holds the bound of each `_qf_value_counts` walk made since."""
    walks = []
    real = lattice_module._qf_value_counts

    def counted(a, shift, bound):
        walks.append(bound)
        return real(a, shift, bound)

    monkeypatch.setattr(lattice_module, "_qf_value_counts", counted)
    monkeypatch.setattr(lattice_module, "_REP_COUNT_CACHE",
                        type(lattice_module._REP_COUNT_CACHE)(16))
    monkeypatch.setattr(lattice_module, "_THETA_CACHE", type(lattice_module._THETA_CACHE)(8))
    return walks


def test_one_count_memo_serves_theta_and_counts(memo_walks):
    # six calls, two walks: each first call walks at its largest bound, and
    # the rest are read from the same memo (six walks before it was shared)
    rep = discriminant_form(A2).rep((1,))
    assert theta_series(E8, 3).coeffs == {0: 1, 1: 240, 2: 2160, 3: 6720}
    assert representation_count(E8, 2) == 2160
    assert representation_count(E8, 3) == 6720
    assert coset_theta(A2, rep, 2).coeffs == {Fraction(1, 3): 3, Fraction(4, 3): 3}
    assert representation_count(A2, Fraction(1, 3), rep) == 3
    assert representation_count(A2, Fraction(4, 3), rep) == 3
    assert memo_walks == [6, 4]
    # the zero representative is the zero coset, in any form
    assert representation_count(E8, 1, (0,) * 8) == 240
    assert coset_theta(E8, [Fraction(0)] * 8, 1) == theta_series(E8, 1)
    assert theta_series(E8, 4).coefficient(4) == 17520  # a larger bound walks again
    assert memo_walks == [6, 4, 8]
    assert theta_series(E8, 3) == coset_theta(E8, None, 3)
    assert memo_walks == [6, 4, 8]
    assert E8.gram not in lattice_module._THETA_CACHE


def test_wrong_length_representative_raises():
    # a representative one coordinate short or long is an error, not a
    # zero-padded or truncated coset
    calls = [lambda rep: representation_count(A2, 1, rep),
             lambda rep: representation_count(A2, -1, rep),
             lambda rep: coset_theta(A2, rep, 2),
             lambda rep: vectors_below(A2, 1, rep),
             lambda rep: short_vectors(A2, 1, rep)]
    for rep in ((1,), (1, 0, 0), (Fraction(1, 3),), (0, 0, 0)):
        for call in calls:
            with pytest.raises(ValueError, match=f"expected 2 coordinates, got {len(rep)}"):
                call(rep)


def test_float_coordinates_are_exact_or_rejected():
    d = discriminant_form(A2)
    # integral floats read as ints
    assert A2.image((1.0, 0.0)) == (2, -1)
    assert all(type(c) is int for c in A2.image((1.0, 0.0)))
    assert A2.bilinear((1.0, 0), (1, 0)) == 2 and A2.q((1.0, 1.0)) == 1
    assert d.coset_of_dual((1.0, 0.0)) == d.zero
    assert representation_count(A2, 1, (1.0, 0.0)) == 6
    assert len(vectors_below(A2, 1, (0.0, 0.0))) == 7
    # the others raise instead of entering as binary fractions
    calls = [A2.image, lambda x: A2.bilinear(x, (1, 0)), lambda x: A2.bilinear((1, 0), x),
             A2.q, d.coset_of_dual, lambda x: representation_count(A2, 1, x)]
    for bad in (0.1, 0.5, float("inf"), float("nan")):
        for call in calls:
            with pytest.raises(ValueError, match="expected an integer"):
                call((bad, 0))
    # exact non-integers are unchanged
    assert A2.q((Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 3)


def test_float_values_and_bounds_are_exact_or_rejected():
    # an integral float m or bound is read as its int
    assert representation_count(E8, 1.0) == representation_count(E8, 1) == 240
    assert coset_theta(A2, None, 2.0) == coset_theta(A2, None, 2)
    assert theta_series(E8, 1.0) == theta_series(E8, 1)
    assert vectors_below(A2, 1.0) == vectors_below(A2, 1)
    assert short_vectors(A2, 1.0) == short_vectors(A2, 1)
    # any other float raises instead of entering as a binary fraction
    calls = [lambda x: representation_count(E8, x), lambda x: coset_theta(A2, None, x),
             lambda x: theta_series(E8, x), lambda x: vectors_below(A2, x),
             lambda x: short_vectors(A2, x)]
    for bad in (0.1, 0.5, float("inf"), float("nan")):
        for call in calls:
            with pytest.raises(ValueError, match="expected an integer"):
                call(bad)


def _cold_counts(lat, rep, bound):
    """{Q value: count} through bound, from one cold `_qf_value_counts` walk."""
    counts = _qf_value_counts([list(r) for r in lat.gram], rep, 2 * Fraction(bound))
    return {v / 2: c for v, c in counts.items()}


def test_count_memo_matches_cold_walks(memo_walks):
    # random definite even Grams of rank <= 4, random cosets and bounds,
    # called in random order on a memo small enough to evict
    rng = random.Random(16)
    definite, indefinite = [], []
    while len(definite) < 60 or len(indefinite) < 10:
        n = rng.randint(1, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        shift = 2 * rng.randint(0, 5)
        gram = [[b[i][j] + b[j][i] + shift * (i == j) for j in range(n)] for i in range(n)]
        try:
            lat = GramLattice(gram)
        except ValueError:
            continue
        (definite if lat.is_positive_definite else indefinite).append(lat)
    calls = []
    for lat in definite[:60]:
        d = discriminant_form(lat)
        reps = [None, (0,) * lat.rank] + [d.rep(c) for c in d.cosets()][1:4]
        reps.append(tuple(Fraction(rng.randint(-3, 3), 4) for _ in range(lat.rank)))
        for _ in range(6):
            kind = rng.choice(["count", "coset_theta", "theta_series"])
            bound = Fraction(rng.randint(-1, 12), rng.choice([1, 2, 3]))
            calls.append((kind, lat, rng.choice(reps), bound))
    rng.shuffle(calls)
    for kind, lat, rep, bound in calls:
        cold = _cold_counts(lat, rep, bound)
        if kind == "count":
            m = rng.choice(sorted(cold)) if cold and rng.random() < 0.7 else bound
            assert representation_count(lat, m, rep) == cold.get(m, 0), (lat.gram, rep, m)
            continue
        if kind == "coset_theta":
            th = coset_theta(lat, rep, bound)
            assert th.prec == _theta_prec(lat, rep, bound)
        else:
            th = theta_series(lat, bound)
            cold = _cold_counts(lat, None, bound)
            assert th.prec == _theta_prec(lat, None, bound)
        assert th.coeffs == cold, (kind, lat.gram, rep, bound)
    # the memo served some calls, and cold walks are one per call
    assert len(calls) == 360 and 0 < len(memo_walks) < len(calls)
    assert lattice_module._THETA_CACHE.keys().isdisjoint(lat.gram for lat in definite)
    # an indefinite lattice raises for every m, also below zero
    for lat in indefinite[:10]:
        for m in (-1, Fraction(-1, 3), 0, 1, Fraction(5, 2)):
            with pytest.raises(ValueError, match="positive-definite"):
                representation_count(lat, m)
            with pytest.raises(ValueError, match="positive-definite"):
                coset_theta(lat, None, m)
            with pytest.raises(ValueError, match="positive-definite"):
                theta_series(lat, m)


def test_isotropic_line_rank5_never_returns_none(monkeypatch):
    # an indefinite form of rank >= 5 is isotropic (Meyer): a search that
    # runs out raises instead of returning None
    lat = GramLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                       [0, 0, 0, 2, 0], [0, 0, 0, 0, -14]])
    with monkeypatch.context() as patch:
        patch.setattr(lattice_module, "ISOTROPIC_SEARCH_BUDGET", 20)
        with pytest.raises(ValueError, match="isotropic search exhausted"):
            isotropic_line(lat)
    ell = isotropic_line(lat)
    assert ell == (1, -2, -1, -1, -1)
    assert lat.q(ell) == 0
