"""Fuzz the short-vector engine against a rigorous brute-force oracle.

For strictly diagonally dominant Gram matrices, y^T G y >= sum_i r_i y_i^2
with r_i = g_ii - sum_{j != i} |g_ij| > 0, so a finite coordinate box
provably contains every solution.  The oracle enumerates that box directly.

The value counts walk each pair {v, -v} once when 2 shift is integral; they
are also compared with the per-leaf tally of the full walk they replace.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import pytest

from borcherds_kit.lattice import (
    GramLattice,
    _qf_enumerate,
    _qf_leaves,
    _qf_value_counts,
    discriminant_form,
)
from borcherds_kit.linalg import invert_rational, lll_reduce_gram, mat_mul, transpose


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
