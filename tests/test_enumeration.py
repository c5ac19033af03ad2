"""Fuzz the short-vector engine against a rigorous brute-force oracle.

For strictly diagonally dominant Gram matrices, y^T G y >= sum_i r_i y_i^2
with r_i = g_ii - sum_{j != i} |g_ij| > 0, so a finite coordinate box
provably contains every solution.  The oracle enumerates that box directly.

The value counts walk each pair {v, -v} once when 2 shift is integral; they
are also compared with the per-leaf tally of the full walk they replace, and
with the former node-by-node walk that the state tally replaced.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import pytest

from borcherds_kit import lattice as lattice_module
from borcherds_kit.io import load_lattice
from borcherds_kit.lattice import (
    GramLattice,
    _qf_enumerate,
    _qf_leaves,
    _qf_prepare,
    _qf_value_counts,
    discriminant_form,
)
from borcherds_kit.linalg import (
    invert_rational,
    lll_reduce_gram,
    mat_mul,
    smith_normal_form,
    transpose,
)


def dominant_gram(rng, n, slack=2):
    while True:
        off = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                off[i][j] = off[j][i] = rng.randint(-2, 2)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            row_abs = sum(abs(off[i][j]) for j in range(n))
            gram[i][i] = 2 * ((row_abs + slack + 1) // 2 + rng.randint(0, 2))
            for j in range(n):
                if i != j:
                    gram[i][j] = off[i][j]
        try:
            return GramLattice(gram)
        except ValueError:
            continue


def brute_force(gram, shift, bound):
    """Every y in the box with Q(y) <= bound, as {y: Q(y)}.

    All in integers: with den the common denominator of the shift, the point
    y = shift + x is Y / den for the integer vector Y, and Q(y) <= bound
    exactly when Y^T G Y <= floor(2 * bound * den^2).  The value Y^T G Y is
    accumulated one coordinate at a time; Fractions are built only for the
    points found.
    """
    n = len(gram)
    radii = [gram[i][i] - sum(abs(gram[i][j]) for j in range(n) if j != i)
             for i in range(n)]
    assert all(r > 0 for r in radii)
    found = {}
    # |y_i| <= sqrt(2*bound / r_i); with shift s, x ranges so that y = s + x
    # covers the ball
    ranges = []
    for i in range(n):
        r = isqrt(int(2 * bound / radii[i])) + 2
        lo = -r - 1
        hi = r + 1
        ranges.append(range(lo, hi + 1))
    shift = [Fraction(s) for s in shift]
    den = lcm(*(s.denominator for s in shift))
    base = [s.numerator * (den // s.denominator) for s in shift]
    bound = Fraction(bound)
    limit = 2 * bound.numerator * den * den // bound.denominator

    def rec(i, big, value):
        if i == n:
            if value <= limit:
                found[tuple(Fraction(c, den) for c in big)] = Fraction(value, 2 * den * den)
            return
        row = gram[i]
        cross = 2 * sum(row[j] * big[j] for j in range(i))
        for x in ranges[i]:
            yi = base[i] + den * x
            rec(i + 1, big + [yi], value + yi * (row[i] * yi + cross))

    rec(0, [], 0)
    return found


def former_value_counts(a, shift, bound):
    """The value counts as tallied before the half walk: one per leaf of the
    full point walk, v and -v each counted where the walk meets it."""
    walked = _qf_leaves(a, shift, bound)
    if walked is None:
        return {}
    zden, leaves = walked[2:]
    return {Fraction(used, zden): c for used, c in Counter(used for _, used in leaves).items()}


# The former `_qf_value_counts`, copied verbatim under a new name: the
# node-by-node walk with only the level-1 tally, the reference of the
# state tally that replaced it.
def level_walk_value_counts(a, shift, bound):
    """Map exact form value -> number of solutions, tallied by integer budget.

    The walk of `_qf_leaves`, tallied per node, with no list of leaves.  The
    level-0 values below a level-1 node depend only on the budget left and
    on p0 mod s0 (p0 = s0 x0 + sk0), so the walk counts level-1 nodes by
    these and tallies each distinct level-0 range once, times its count.

    When 2 shift is integral, v -> -v maps the coset to itself and negates
    every level's p = s x + sk.  The walk then takes only p >= 0 at a level
    while every p above it is 0, so it meets one vector of each pair
    {v, -v}: the one whose top nonzero p is positive.  Its tallies are
    doubled, and the zero vector, its own negative, is counted once.
    """
    n = len(a)
    bound = Fraction(bound)
    if bound < 0:
        return {}
    if n == 0:
        return {Fraction(0): 1}
    shift = [Fraction(c) for c in shift or [0] * n]
    _, scales, lint, cint, zden, weights = _qf_prepare(a, shift)
    total_budget = (bound.numerator * zden) // bound.denominator
    levels = list(zip(weights, scales, lint, cint))
    w0, s0, row0, _ = levels[0]
    ranges = {}  # (budget left, p0 mod s0, half) -> number of level-1 nodes
    rget = ranges.get
    nonzero = []

    def descend(level, remaining, half):
        w, s, row, sk = levels[level]
        for j, xj in nonzero:
            sk += row[j] * xj
        froot = isqrt(remaining // w)
        lo = -(sk // s) if half else -((sk + froot) // s)
        hi = (froot - sk) // s
        if level == 1:
            sk0 = cint[0]
            for j, xj in nonzero:
                sk0 += row0[j] * xj
            row01 = row0[1]
            for xv in range(lo, hi + 1):
                p = s * xv + sk
                key = (remaining - w * p * p, (sk0 + row01 * xv) % s0, half and not p)
                ranges[key] = rget(key, 0) + 1
        else:
            for xv in range(lo, hi + 1):
                p = s * xv + sk
                rem = remaining - w * p * p
                if xv:
                    nonzero.append((level, xv))
                    descend(level - 1, rem, half and not p)
                    nonzero.pop()
                else:
                    descend(level - 1, rem, half and not p)

    half = all((2 * c).denominator == 1 for c in shift)
    if n == 1:  # the whole walk is one level-0 range
        ranges[(total_budget, cint[0] % s0, half)] = 1
    else:
        descend(n - 1, total_budget, half)
    counts = {}
    get = counts.get
    for (rem, r, h), mult in ranges.items():
        froot0 = isqrt(rem // w0)
        used = total_budget - rem
        start = r if h else r - s0 * ((r + froot0) // s0)
        for p0 in range(start, froot0 + 1, s0):
            key = used + w0 * p0 * p0
            counts[key] = get(key, 0) + mult
    if half:
        counts = {used: 2 * c for used, c in counts.items()}
        if all(c.denominator == 1 for c in shift):
            counts[0] -= 1  # the zero vector
    return {Fraction(used, zden): c for used, c in counts.items()}


@pytest.fixture
def splits(monkeypatch):
    """The split level t of each `_qf_value_counts` call that walks part of
    its levels: the size of the t x t relation matrix it hands to
    `smith_normal_form`.  A call that tallies every level adds nothing."""
    seen = []

    def recording(m):
        seen.append(len(m))
        return smith_normal_form(m)

    monkeypatch.setattr(lattice_module, "smith_normal_form", recording)
    return seen


def test_enumeration_matches_brute_force():
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randint(1, 3)
        lat = dominant_gram(rng, n)
        kind = rng.random()
        if kind < 0.35:
            shift = [Fraction(0)] * n
        elif kind < 0.7:
            # 2 shift integral: a coset closed under v -> -v, the half walk
            shift = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
        else:
            shift = [Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                     for _ in range(n)]
        bound = Fraction(rng.randint(0, 10), rng.choice([1, 2]))
        expected = brute_force(lat.gram, shift, bound)
        got = dict(_qf_enumerate([list(r) for r in lat.gram], shift, 2 * bound))
        got = {v: val / 2 for v, val in got.items()}
        assert got == expected, (lat.gram, shift, bound)
        counts = _qf_value_counts([list(r) for r in lat.gram], shift, 2 * bound)
        tally = {}
        for val in expected.values():
            tally[2 * val] = tally.get(2 * val, 0) + 1
        assert counts == tally


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
      [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]


def test_value_counts_on_e8_match_the_full_walk():
    # theta e8 --prec 10: 794161 vectors with 2Q <= 20
    counts = _qf_value_counts(E8, None, 20)
    assert counts == former_value_counts(E8, None, 20)
    assert sum(counts.values()) == 794161
    assert [counts.get(2 * m, 0) for m in range(4)] == [1, 240, 2160, 6720]


@pytest.mark.parametrize("gram", [[[2]], [[2, -1], [-1, 2]], D4], ids=["A1", "A2", "D4"])
def test_value_counts_on_every_coset_match_the_full_walk(gram):
    disc = discriminant_form(GramLattice(gram))
    symmetric = 0
    for coset in disc.cosets():
        rep = disc.rep(coset)
        symmetric += coset != disc.zero and disc.neg(coset) == coset
        for bound in (-1, Fraction(-1, 3), 0, Fraction(7, 3), 9, 14):
            counts = _qf_value_counts(gram, rep, bound)
            assert counts == former_value_counts(gram, rep, bound), (coset, bound)
            assert bound >= 0 or counts == {}
    # A1 and D4 have nonzero cosets with mu = -mu, A2 none
    assert symmetric == {1: 1, 2: 0, 4: 3}[len(gram)]


def test_enumeration_rank4_with_lll_path():
    # rank >= 3 goes through the LLL preconditioner; fuzz that path too
    rng = random.Random(78)
    for _ in range(10):
        lat = dominant_gram(rng, 4)
        shift = [Fraction(rng.randint(-1, 1), 2) for _ in range(4)]
        bound = Fraction(rng.randint(2, 6))
        expected = brute_force(lat.gram, shift, bound)
        got = dict(_qf_enumerate([list(r) for r in lat.gram], shift, 2 * bound))
        got = {v: val / 2 for v, val in got.items()}
        assert got == expected


def test_lll_on_rational_gram():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randint(2, 4)
        b = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
             for _ in range(n)]
        gram = [[sum(b[i][k] * b[j][k] for k in range(n)) + Fraction(int(i == j))
                 for j in range(n)] for i in range(n)]
        t, d, l = lll_reduce_gram(gram)
        g2 = [[sum(l[k][i] * d[k] * l[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        from borcherds_kit.linalg import det_int
        assert abs(det_int(t)) == 1
        assert mat_mul(mat_mul(t, gram), transpose(t)) == g2


def brute_force_pd(a, shift, bound):
    """All y = shift + x, x integer, with y^T a y <= bound, for rational
    positive-definite a.  On that ellipsoid y_i^2 <= bound * (a^-1)_ii, so a
    coordinate box of that half-width holds every solution."""
    n = len(a)
    ainv = invert_rational(a)
    ranges = []
    for i in range(n):
        r = isqrt(int(bound * ainv[i][i])) + 1  # |y_i| <= r
        c = int(shift[i])
        ranges.append(range(-r - c - 1, r - c + 2))
    found = {}
    for x in itertools.product(*ranges):
        y = tuple(s + c for s, c in zip(shift, x))
        val = sum(y[i] * a[i][j] * y[j] for i in range(n) for j in range(n))
        if val <= bound:
            found[y] = val
    return found


LORENTZIAN = [
    [[0, 1], [1, 0]],                                   # U
    [[0, 1, 0], [1, 0, 0], [0, 0, 2]],                  # U + A1
    [[0, 2, 0], [2, 0, 0], [0, 0, 4]],                  # U(2) + (4)
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],  # U + A2
]


def test_enumeration_on_rational_majorants():
    # a = G + (G w)(G w)^T / |Q(w)| for a Lorentzian G and rational w with
    # Q(w) < 0: the shape of the product-expansion majorant, with rational
    # entries and (for rank >= 3) the LLL path
    rng = random.Random(80)
    trials = points = 0
    while trials < 30:
        gram = rng.choice(LORENTZIAN)
        lat = GramLattice(gram)
        n = lat.rank
        w = [Fraction(rng.randint(1, 4), rng.choice([1, 2, 3])),
             -Fraction(rng.randint(1, 4), rng.choice([1, 2]))]
        w += [Fraction(rng.randint(-2, 2), rng.choice([1, 2, 4])) for _ in range(n - 2)]
        qw = lat.q(w)
        if qw >= 0:
            continue
        gw = [sum(g * c for g, c in zip(row, w)) for row in gram]
        a = [[gram[i][j] + gw[i] * gw[j] / -qw for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            shift = [Fraction(0)] * n
        else:
            shift = [Fraction(rng.randint(-2, 2), rng.choice([1, 2, 4])) for _ in range(n)]
        bound = Fraction(rng.randint(0, 12), rng.choice([1, 2]))
        expected = brute_force_pd(a, shift, bound)
        got = _qf_enumerate(a, shift, bound)
        assert dict(got) == expected, (gram, w, shift, bound)
        assert len(got) == len(expected)
        points += len(got)
        tally = {}
        for val in expected.values():
            tally[val] = tally.get(val, 0) + 1
        assert _qf_value_counts(a, shift, bound) == tally
        # integral coordinates come back as ints, the others as Fractions
        for y, _ in got:
            assert all(type(c) is int for c, s in zip(y, shift) if s.denominator == 1)
        trials += 1
    assert points > 300  # not vacuous


def random_definite(rng, n):
    """A random positive-definite matrix: B B^T plus a positive diagonal,
    integral and even on the diagonal, or (half the time) a rational
    majorant B B^T / q + diag(1/k)."""
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    bbt = [[sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        return [[bbt[i][j] + bbt[j][i] + 2 * rng.randint(1, 3) * (i == j) for j in range(n)]
                for i in range(n)]
    q = rng.choice([2, 3, 5, 7])
    return [[Fraction(bbt[i][j], q) + (Fraction(1, rng.choice([1, 2, 3])) if i == j else 0)
             for j in range(n)] for i in range(n)]


def test_state_tally_matches_the_level_walk(splits):
    rng = random.Random(18)
    kinds = Counter()
    for trial in range(240):
        n = rng.randint(1, 8)
        a = random_definite(rng, n)
        den = rng.choice([1, 2, 3, 4, 6])
        kind = rng.random()
        if kind < 0.2:
            shift = None
        elif kind < 0.5:
            # 2 shift integral: the half walk
            shift = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
        else:
            shift = [Fraction(rng.randint(-6, 6), den) for _ in range(n)]
        # negative, zero, integral and off-grid bounds
        bound = Fraction(rng.randint(-2, 16), rng.choice([1, 1, 2, 3, 7]))
        before = len(splits)
        counts = _qf_value_counts(a, shift, bound)
        walked = len(splits) > before
        assert counts == level_walk_value_counts(a, shift, bound), (a, shift, bound)
        if n <= 5:
            assert counts == former_value_counts(a, shift, bound), (a, shift, bound)
        assert bound >= 0 or counts == {}
        if bound >= 0:
            kinds["split mid-walk" if walked else "every level tallied"] += 1
            assert not walked or 1 <= splits[-1] < n
    # both sides of the split rule are exercised
    assert kinds["every level tallied"] >= 40 and kinds["split mid-walk"] >= 40, kinds


def test_state_tally_on_e8_and_the_niemeier_lattices(splits):
    # theta e8 to q^15, every level tallied: 3721681 vectors, against the
    # level walk and the coefficients 240 sigma_3(m) of E4
    counts = _qf_value_counts(E8, None, 30)
    assert counts == level_walk_value_counts(E8, None, 30)
    assert splits == []  # E8's scales multiply to 2880: every level tallied
    sigma3 = [sum(d ** 3 for d in range(1, m + 1) if m % d == 0) for m in range(16)]
    assert [counts.get(2 * m, 0) for m in range(16)] == [1] + [240 * sigma3[m] for m in range(1, 16)]
    # the direct rank-24 counts at 2Q <= 2, split mid-walk at level 5: the
    # scales 2, 2, 2, 6, 13 (niemeier-a1) and 2, 2, 7, 33, 28 (niemeier-a2)
    # multiply to at most 2^16, with the next scale to more
    for name, roots in (("niemeier-a1", 48), ("niemeier-a2", 72)):
        gram = [list(r) for r in load_lattice(name).gram]
        splits.clear()  # loading takes Smith forms of its own
        counts = _qf_value_counts(gram, None, 2)
        assert counts == {0: 1, 2: roots}
        assert counts == level_walk_value_counts(gram, None, 2) == former_value_counts(gram, None, 2)
        assert splits == [5]
