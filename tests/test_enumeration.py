"""Fuzz the short-vector engine against a rigorous brute-force oracle.

For strictly diagonally dominant Gram matrices, y^T G y >= sum_i r_i y_i^2
with r_i = g_ii - sum_{j != i} |g_ij| > 0, so a finite coordinate box
provably contains every solution.  The oracle enumerates that box directly.

The value counts walk each pair {v, -v} once when 2 shift is integral; they
are also compared with the per-leaf tally of the full walk they replace, and
with the former node-by-node walk that the state tally replaced; the direct
rank-24 counts are compared with the glue-code theta series, and the
scaled-integer rows with the former Fraction code.  The point walk streams
its leaves; they are compared, in order, with the former walk
that built a list of them, and the chamber walls are checked to be found
without holding one.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import floor, isqrt, lcm

import pytest

from borcherds_kit.io import load_form, load_lattice
from borcherds_kit.lattice import (
    GramLattice,
    _qf_enumerate,
    _qf_leaves,
    _qf_prepare,
    _qf_reduce,
    _qf_value_counts,
    cusp_data,
    discriminant_form,
    isotropic_line,
    theta_series,
)
from borcherds_kit.linalg import (
    invert_rational,
    lll_reduce_gram,
    mat_mul,
    solve_rational,
    transpose,
)
from borcherds_kit.product import chamber_of, reduce_f0


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


def box_values(gram, base, den, ranges, limit):
    """Every integer vector Y = base + den * x, x in the box of `ranges`,
    with Y^T gram Y <= limit, as {Y: Y^T gram Y}, for an integer gram.

    The value is accumulated one coordinate at a time, all in integers.
    """
    n = len(gram)
    found = {}

    def rec(i, big, value):
        if i == n:
            if value <= limit:
                found[tuple(big)] = value
            return
        row = gram[i]
        cross = 2 * sum(row[j] * big[j] for j in range(i))
        for x in ranges[i]:
            yi = base[i] + den * x
            rec(i + 1, big + [yi], value + yi * (row[i] * yi + cross))

    rec(0, [], 0)
    return found


def brute_force(gram, shift, bound):
    """Every y in the box with Q(y) <= bound, as {y: Q(y)}.

    All in integers: with den the common denominator of the shift, the point
    y = shift + x is Y / den for the integer vector Y, and Q(y) <= bound
    exactly when Y^T G Y <= floor(2 * bound * den^2) (`box_values`);
    Fractions are built only for the points found.
    """
    n = len(gram)
    radii = [gram[i][i] - sum(abs(gram[i][j]) for j in range(n) if j != i)
             for i in range(n)]
    assert all(r > 0 for r in radii)
    # |y_i| <= sqrt(2*bound / r_i); with shift s, x ranges so that y = s + x
    # covers the ball
    ranges = []
    for i in range(n):
        r = isqrt(int(2 * bound / radii[i])) + 2
        ranges.append(range(-r - 1, r + 2))
    shift = [Fraction(s) for s in shift]
    den = lcm(*(s.denominator for s in shift))
    base = [s.numerator * (den // s.denominator) for s in shift]
    bound = Fraction(bound)
    limit = 2 * bound.numerator * den * den // bound.denominator
    return {tuple(Fraction(c, den) for c in big): Fraction(value, 2 * den * den)
            for big, value in box_values(gram, base, den, ranges, limit).items()}


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
    positive-definite a, as {y: y^T a y}.  On that ellipsoid
    y_i^2 <= bound * (a^-1)_ii, so a coordinate box of that half-width holds
    every solution.  All in integers, as `brute_force`: with A = s a
    integral and y = Y / den, y^T a y = Y^T A Y / (s den^2)."""
    n = len(a)
    ainv = invert_rational(a)
    ranges = []
    for i in range(n):
        r = isqrt(int(bound * ainv[i][i])) + 1  # |y_i| <= r
        c = int(shift[i])
        ranges.append(range(-r - c - 1, r - c + 2))
    s = lcm(*(Fraction(x).denominator for row in a for x in row))
    den = lcm(*(c.denominator for c in shift))
    base = [c.numerator * (den // c.denominator) for c in shift]
    scale = s * den * den
    limit = floor(bound * scale)
    found = box_values([[int(x * s) for x in row] for row in a], base, den, ranges, limit)
    return {tuple(Fraction(c, den) for c in big): Fraction(value, scale)
            for big, value in found.items()}


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


def test_state_tally_matches_the_level_walk():
    rng = random.Random(18)
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
        counts = _qf_value_counts(a, shift, bound)
        assert counts == level_walk_value_counts(a, shift, bound), (a, shift, bound)
        if n <= 5:
            assert counts == former_value_counts(a, shift, bound), (a, shift, bound)
        assert bound >= 0 or counts == {}


def test_state_tally_on_e8_and_the_niemeier_lattices():
    # theta e8 to q^15: 3721681 vectors, against the level walk and the
    # coefficients 240 sigma_3(m) of E4
    counts = _qf_value_counts(E8, None, 30)
    assert counts == level_walk_value_counts(E8, None, 30)
    sigma3 = [sum(d ** 3 for d in range(1, m + 1) if m % d == 0) for m in range(16)]
    assert [counts.get(2 * m, 0) for m in range(16)] == [1] + [240 * sigma3[m] for m in range(1, 16)]
    # the direct rank-24 counts at 2Q <= 2
    for name, roots in (("niemeier-a1", 48), ("niemeier-a2", 72)):
        gram = [list(r) for r in load_lattice(name).gram]
        counts = _qf_value_counts(gram, None, 2)
        assert counts == {0: 1, 2: roots}
        assert counts == level_walk_value_counts(gram, None, 2) == former_value_counts(gram, None, 2)


@pytest.mark.parametrize("name", ["niemeier-a1", "niemeier-a2"])
def test_direct_rank24_counts_match_the_glue_theta(name):
    # the direct counts to 2Q <= 6 (16.8 million vectors at Q = 3), against
    # the glue-code theta series: the theta trick's cross-check two levels
    # past criterion 1's
    lat = load_lattice(name)
    counts = _qf_value_counts([list(r) for r in lat.gram], None, 6)
    theta = theta_series(lat, 3)
    assert counts == {2 * m: theta.coefficient(m) for m in range(4)}


# The former `_qf_prepare`, copied verbatim under a new name: the scaled
# integer rows computed in Fraction arithmetic, the reference of the
# integer reading that replaced it.
def former_qf_prepare(a, shift):
    """Scaled-integer Fincke-Pohst data for y = shift + x, value y^T a y."""
    n = len(a)
    shift = [Fraction(x) for x in shift or [0] * n]
    t_t, d, lmat = _qf_reduce(a)
    # T is unimodular, so the zero shift reduces to zero without a solve
    shift_red = solve_rational(t_t, shift) if any(shift) else shift

    consts = []
    for i in range(n):
        c = shift_red[i]
        for j in range(i + 1, n):
            c += lmat[i][j] * shift_red[j]
        consts.append(c)
    scales = []
    lint = []
    cint = []
    for i in range(n):
        s = lcm(consts[i].denominator,
                *(lmat[i][j].denominator for j in range(i + 1, n)))
        scales.append(s)
        lint.append([int(lmat[i][j] * s) for j in range(n)])
        cint.append(int(consts[i] * s))
    zden = 1
    for i in range(n):
        zden = lcm(zden, d[i].denominator * scales[i] * scales[i])
    weights = [d[i].numerator * (zden // (d[i].denominator * scales[i] * scales[i]))
               for i in range(n)]
    return t_t, scales, lint, cint, zden, weights


def test_prepare_matches_the_former_fraction_code():
    # the seeded matrices of the state-tally test, each with the zero
    # shift (as None and as zeros) and a rational one, and the two
    # Niemeier Grams with the zero shift
    rng = random.Random(18)
    cases = []
    for _ in range(120):
        n = rng.randint(1, 8)
        a = random_definite(rng, n)
        den = rng.choice([1, 2, 3, 4, 6])
        cases += [(a, None), (a, [0] * n),
                  (a, [Fraction(rng.randint(-6, 6), den) for _ in range(n)])]
    cases += [([list(r) for r in load_lattice(name).gram], None)
              for name in ("niemeier-a1", "niemeier-a2")]
    for a, shift in cases:
        got = _qf_prepare(a, shift)
        assert got == former_qf_prepare(a, shift), (a, shift)
        _, scales, lint, cint, zden, weights = got
        assert all(type(x) is int for x in [*scales, *cint, zden, *weights, *sum(lint, [])])


# The former `_qf_leaves`, copied verbatim under a new name: the point walk
# that appended every leaf to a list before returning, the reference of the
# streamed walk.
def former_qf_leaves(a, shift, bound):
    """The all-integer Fincke-Pohst point walk: (base, cols, zden,
    [(entries, used)]), or None for a negative bound.

    `entries` are the nonzero (index, value) pairs of the integer vector x.
    The point y = shift + T^T x is base + sum_j x_j cols[j] (`_qf_point`),
    base the shift with integral coordinates as ints and cols = T; its exact
    value is used / zden.  v and -v are both visited; `_qf_value_counts`,
    which wants only values, walks each pair once when 2 shift is integral.
    """
    n = len(a)
    bound = Fraction(bound)
    if bound < 0:
        return None
    if n == 0:
        return [], [], 1, [((), 0)]
    t_t, scales, lint, cint, zden, weights = _qf_prepare(a, shift)
    total_budget = (bound.numerator * zden) // bound.denominator
    leaves = []
    nonzero = []

    def descend(level, remaining):
        w = weights[level]
        s = scales[level]
        row = lint[level]
        sk = cint[level]
        for j, xj in nonzero:
            sk += row[j] * xj
        froot = isqrt(remaining // w)
        lo = -((sk + froot) // s)
        hi = (froot - sk) // s
        if level == 0:
            used = total_budget - remaining
            for xv in range(lo, hi + 1):
                p = s * xv + sk
                leaves.append((nonzero + [(0, xv)] if xv else tuple(nonzero),
                               used + w * p * p))
        else:
            for xv in range(lo, hi + 1):
                p = s * xv + sk
                rem2 = remaining - w * p * p
                if xv:
                    nonzero.append((level, xv))
                    descend(level - 1, rem2)
                    nonzero.pop()
                else:
                    descend(level - 1, rem2)

    descend(n - 1, total_budget)
    base = [int(c) if c.denominator == 1 else c for c in map(Fraction, shift or [0] * n)]
    return base, transpose(t_t), zden, leaves


def streamed_leaves(a, shift, bound):
    """`_qf_leaves` with its leaves drawn into a list, after checking that
    they come as an iterator."""
    walked = _qf_leaves(a, shift, bound)
    if walked is None:
        return None
    base, cols, zden, leaves = walked
    assert iter(leaves) is leaves
    return base, cols, zden, list(leaves)


def test_streamed_leaves_match_the_former_list():
    # integral and rational matrices, shifts None, half-integral and
    # rational, bounds negative, zero, integral and off the grid
    rng = random.Random(20)
    kinds = Counter()
    leaves = 0
    for trial in range(160):
        n = rng.randint(1, 5)
        if rng.random() < 0.25:
            a = [list(r) for r in dominant_gram(rng, n).gram]
        else:
            a = random_definite(rng, n)
        kind = rng.random()
        if kind < 0.2:
            shift = None
        elif kind < 0.5:
            shift = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
        else:
            shift = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)]
        bound = Fraction(rng.randint(-4, 40), rng.choice([1, 1, 2, 3, 7]))
        got = streamed_leaves(a, shift, bound)
        assert got == former_qf_leaves(a, shift, bound), (a, shift, bound)
        kinds["negative" if got is None else "empty" if not got[3] else "leaves"] += 1
        leaves += 0 if got is None else len(got[3])
    assert streamed_leaves([], None, 1) == former_qf_leaves([], None, 1)
    assert kinds["negative"] >= 10 and kinds["empty"] >= 10 and kinds["leaves"] >= 80, kinds
    assert leaves > 5000, leaves


E8_U = load_lattice("e8-plus-2u")
E8_U_POINTS = {
    "w-star": (840, 1100, 1350, 910, 460, 680, 570, 290, 74, -1055),
    "w2": (1260, 1650, 2025, 1365, 690, 1020, 855, 435, 123, -985),
    "w3": (504, 660, 810, 546, 276, 408, 342, 174, 93, -214),
}


@pytest.mark.parametrize("name", E8_U_POINTS)
def test_streamed_leaves_on_the_e8_u_majorants(name):
    # the majorant 2Q(x) + [x, w]^2 / |Q(w)| of V0 = E8 + U at each chamber
    # point of the cusp benchmark, walked to the wall bound of chamber_of
    # at radius 2, (2 + 2^2) * 1
    v0 = cusp_data(E8_U, isotropic_line(E8_U)).v0
    w = E8_U_POINTS[name]
    gw, nqw = v0.image(w), -v0.q(w)
    a = [[v0.gram[i][j] + gw[i] * gw[j] / nqw for j in range(10)] for i in range(10)]
    got = streamed_leaves(a, None, 6)
    assert got == former_qf_leaves(a, None, 6)
    assert name != "w-star" or len(got[3]) == 20931


def test_chamber_walls_are_found_without_a_list_of_leaves():
    # chamber_of at w* keeps 2812 walls of the 20931 leaves it walks; the
    # list of every leaf took 5.5 MB, so the peak over the retained result
    # shows whether the walk holds one
    form, _ = load_form("e4sq-over-delta")
    data = cusp_data(E8_U, isotropic_line(E8_U))
    f0 = reduce_f0(form, data)
    chamber_of(E8_U_POINTS["w-star"], f0, data)  # warm the reduction caches
    tracemalloc.start()
    try:
        chamber = chamber_of(E8_U_POINTS["w-star"], f0, data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chamber.wall_signs) == 2812
    assert peak <= kept + 512 * 1024, (kept, peak)
