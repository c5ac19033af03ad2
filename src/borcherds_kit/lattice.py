"""Integral quadratic lattices: discriminant forms, enumeration, cusp data.

A lattice is given by an even symmetric Gram matrix G; the quadratic form is
Q(x) = x^T G x / 2 and the bilinear form [x, y] = x^T G y, so that
[x, y] = Q(x+y) - Q(x) - Q(y).  All arithmetic is exact.
"""

import itertools
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, isqrt, lcm, prod
from operator import getitem, mul

from .cyclotomic import _factor
from .linalg import (
    _det_and_signature,
    _symmetric_bareiss,
    exact_int,
    exact_rational,
    hermite_normal_form,
    invert_rational,
    lll_reduce_gram,
    mat_mul,
    smith_normal_form,
    solve_rational,
    transpose,
)
from .qseries import FracQSeries

ISOTROPIC_SEARCH_BUDGET = 2_000_000


class GramLattice:
    """An integral lattice with even Gram matrix, as an immutable value.

    `glue` is None except on the lattices `glue_lattice` builds, which it
    gives their `GlueData`; no other route pairs a Gram with glue.
    """

    __slots__ = ("rank", "gram", "name", "glue", "det", "signature_pair", "_disc")

    def __init__(self, gram, name=None):
        gram = tuple(tuple(map(exact_int, row)) for row in gram)
        rank = len(gram)
        for i, row in enumerate(gram):
            if len(row) != rank:
                raise ValueError("gram matrix must be square")
            if row[i] % 2 != 0:
                raise ValueError("gram diagonal must be even (Q must be Z-valued)")
            for j in range(rank):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        try:
            det, signature_pair = _det_and_signature(gram)
        except ValueError:
            raise ValueError("gram matrix must be nonsingular") from None
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "glue", None)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "signature_pair", signature_pair)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *_):
        raise AttributeError("GramLattice is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as restoring the
        # slots would go through the __setattr__ above; a glued lattice
        # through `glue_lattice`, the one route that attaches glue
        if self.glue is None:
            return GramLattice, (self.gram, self.name)
        return glue_lattice, (self.glue.blocks, self.glue.generators, self.name)

    def __eq__(self, other):
        if not isinstance(other, GramLattice):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        label = self.name or f"rank {self.rank}"
        return f"GramLattice({label}, det={self.det})"

    @property
    def is_positive_definite(self):
        return self.signature_pair == (self.rank, 0)

    def q(self, x):
        """Q(x) = x^T G x / 2 for a rational coordinate vector."""
        return self.bilinear(x, x) / 2

    def image(self, y):
        """G y, so that [x, y] = x . (G y); integral entries are ints."""
        y = _coordinates(y, self.rank)
        out = (sum(g * c for g, c in zip(row, y) if g) for row in self.gram)
        return tuple(int(v) if v.denominator == 1 else v for v in out)

    def bilinear(self, x, y):
        """[x, y] = x . (G y) = Q(x+y) - Q(x) - Q(y)."""
        return Fraction(sum(map(mul, _coordinates(x, self.rank), self.image(y))))


class DiscriminantForm:
    """The finite quadratic group L^dual / L with Q taking values in Q/Z.

    Cosets are normalized coordinate tuples with respect to generators g_i of
    orders given by the invariant factors (each > 1).  The form is stored once,
    in integers, as N Q(g_i) and N [g_i, g_j] mod N, N = `level` the least
    common denominator of these values; by bilinearity they give N Q(mu) and
    N [mu, nu] mod N (`q_exponent`, `pairing_row`) for every coset.  g_i is
    column i of V over d_i, U G V = D the Smith form; of V^-1 only the rows
    that `coset_of_dual` reads are kept, in the order of `invariant_factors`.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        n = lattice.rank
        d, _, v = smith_normal_form(lattice.gram)
        diag = [d[i][i] for i in range(n)]
        indices = [i for i in range(n) if diag[i] > 1]
        vinv = invert_rational(v)
        self._vinv = tuple(tuple(map(exact_int, vinv[i])) for i in indices)
        self.invariant_factors = tuple(diag[i] for i in indices)
        vt = transpose(v)
        self.generators = tuple(
            tuple(Fraction(vt[i][j], diag[i]) for j in range(n))
            for i in indices)
        self.order = 1
        for f in diag:
            self.order *= f
        if self.order != abs(lattice.det):
            raise AssertionError("discriminant group order must equal |det|")
        self.signature_mod8 = (lattice.signature_pair[0] - lattice.signature_pair[1]) % 8

        # g_i = v_i / f_i for the column v_i of V: [g_i, g_j] = v_i G v_j / (f_i f_j)
        cols = [vt[i] for i in indices]
        vgv = mat_mul(mat_mul(cols, lattice.gram), transpose(cols))
        facs = self.invariant_factors
        gram = [[Fraction(x, fi * fj) for x, fj in zip(row, facs)] for row, fi in zip(vgv, facs)]
        q = [row[i] / 2 for i, row in enumerate(gram)]
        self.level = lcm(*(x.denominator for x in q), *(x.denominator for r in gram for x in r))
        self._q_gens = tuple(int(x * self.level) % self.level for x in q)
        self._pair_gens = tuple(tuple(int(x * self.level) % self.level for x in row)
                                for row in gram)

    @property
    def zero(self):
        return (0,) * len(self.invariant_factors)

    def cosets(self):
        """All cosets in a fixed lexicographic order."""
        return itertools.product(*(range(f) for f in self.invariant_factors))

    def rep(self, coset):
        """A dual-vector representative of the coset, rational coordinates."""
        coset = self.normalize(coset)
        n = self.lattice.rank
        out = [Fraction(0)] * n
        for a, g in zip(coset, self.generators):
            if a:
                for j in range(n):
                    out[j] += a * g[j]
        return tuple(out)

    def normalize(self, coset):
        if len(coset) != len(self.invariant_factors):
            raise ValueError("coset tuple has wrong length")
        return tuple(exact_int(a) % f for a, f in zip(coset, self.invariant_factors))

    def neg(self, coset):
        return tuple((-a) % f for a, f in
                     zip(self.normalize(coset), self.invariant_factors))

    def q_exponent(self, coset):
        """N Q(mu) mod N, an int, N = `level`."""
        a = self.normalize(coset)
        total = 0
        for i, (ai, nq, row) in enumerate(zip(a, self._q_gens, self._pair_gens)):
            total += ai * (ai * nq + sum(map(mul, a[i + 1:], row[i + 1:])))
        return total % self.level

    def pairing_row(self, coset):
        """(N [mu, g_j] mod N)_j, so that N [mu, nu] = row . nu mod N."""
        a = self.normalize(coset)
        return tuple(sum(ai * row[j] for ai, row in zip(a, self._pair_gens)) % self.level
                     for j in range(len(a)))

    def q(self, coset):
        """Q(mu) mod 1, as a Fraction in [0, 1)."""
        return Fraction(self.q_exponent(coset), self.level)

    def pairing(self, c1, c2):
        """[mu, nu] mod 1, as a Fraction in [0, 1)."""
        row, nu = self.pairing_row(c1), self.normalize(c2)
        return Fraction(sum(map(mul, row, nu)) % self.level, self.level)

    def coset_of_dual(self, y):
        """The coset of a dual vector y (raises when y is not in the dual lattice)."""
        y = _coordinates(y, self.lattice.rank)
        if any(v.denominator != 1 for v in self.lattice.image(y)):
            raise ValueError("vector is not in the dual lattice")
        # y = sum_i m_i * (column i of V) / d_i with m = D V^{-1} y, integral
        # for a dual y; the rows of V^{-1} with d_i = 1 add nothing mod d_i
        return tuple(int(sum(map(mul, row, y)) * f) % f
                     for row, f in zip(self._vinv, self.invariant_factors))

    def __repr__(self):
        if not self.invariant_factors:
            return "DiscriminantForm(trivial)"
        parts = " x ".join(f"Z/{f}" for f in self.invariant_factors)
        return f"DiscriminantForm({parts})"


def _coordinates(v, n):
    """v as n exact coordinates: ints and Fractions as they are, the rest
    through `exact_int` (1.0 is 1; 0.1, inf and NaN raise ValueError)."""
    v = tuple(c if isinstance(c, (int, Fraction)) else exact_int(c) for c in v)
    if len(v) != n:
        raise ValueError(f"expected {n} coordinates, got {len(v)}")
    return v


def _int_matrix(m):
    return [[exact_int(x) for x in row] for row in m]


def discriminant_form(lattice):
    """The finite quadratic module L^dual / L, built once per lattice."""
    if lattice._disc is None:
        object.__setattr__(lattice, "_disc", DiscriminantForm(lattice))
    return lattice._disc


def is_maximal(lattice):
    """True when the discriminant form is anisotropic (no nonzero isotropic coset).

    For a Z-valued lattice this is equivalent to maximality: an isotropic
    coset is exactly a glue vector generating a Z-valued overlattice.
    """
    return _isotropic_coset(lattice) is None


def _isotropic_coset(lattice):
    d = discriminant_form(lattice)
    zero = d.zero
    for c in d.cosets():
        if c != zero and d.q(c) == 0:
            return c
    return None


def overlattice_witness(lattice):
    """For a non-maximal lattice, a proper Z-valued overlattice.

    Returns (coset, overlattice) where coset is an isotropic glue vector and
    the overlattice is L + Z*rep(coset) with its (even, integral) Gram matrix.
    Returns None when the lattice is maximal.
    """
    c = _isotropic_coset(lattice)
    if c is None:
        return None
    rep = discriminant_form(lattice).rep(c)
    over = _overlattice(lattice, [rep])
    if abs(over.det) >= abs(lattice.det):
        raise AssertionError("witness did not enlarge the lattice")
    return c, over


def _overlattice(lattice, glue_vectors, name=None):
    """The lattice generated by L and the given rational glue vectors."""
    n = lattice.rank
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows += [[Fraction(x) for x in v] for v in glue_vectors]
    den = lcm(*(x.denominator for row in rows for x in row))
    h = hermite_normal_form([[int(x * den) for x in row] for row in rows])
    if len(h) != n:
        raise ValueError("glue vectors do not span a full-rank lattice")
    # Gram of the basis h / den, computed as h G h^T / den^2 in integers
    scaled = mat_mul(mat_mul(h, lattice.gram), transpose(h))
    den2 = den * den
    if any(x % den2 for row in scaled for x in row):
        raise ValueError("glue vectors do not give an integral lattice")
    gram = [[x // den2 for x in row] for row in scaled]
    return GramLattice(gram, name=name)


def direct_sum(lattices, name=None):
    """Orthogonal direct sum, Gram matrices along the block diagonal."""
    n = sum(l.rank for l in lattices)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                gram[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return GramLattice(gram, name=name)


# ---------------------------------------------------------------------------
# short vector enumeration
# ---------------------------------------------------------------------------

def _qf_reduce(a):
    """The shift-free Fincke-Pohst data of a matrix: (T^T, d, l), memoized.

    T is the LLL transform and d, l the LDL^T data of the reduced matrix
    T a T^T, both from one `lll_reduce_gram` call.  Every coset walked under
    the same matrix shares one reduction.
    """
    key = tuple(tuple(row) for row in a)
    cached = _QF_REDUCE_CACHE.get(key)
    if cached is None:
        t, d, l = lll_reduce_gram(a)
        cached = _QF_REDUCE_CACHE[key] = (transpose(t), d, l)
    return cached


def _qf_prepare(a, shift):
    """Scaled-integer Fincke-Pohst data for y = shift + x, value y^T a y.

    Level i scales its row of l and its constant by the least common
    denominator s_i, read off the Fractions without arithmetic on them; the
    zero shift has every constant 0 and needs no solve, as T is unimodular.
    """
    n = len(a)
    t_t, d, lmat = _qf_reduce(a)
    consts = [0] * n
    if shift and any(shift):
        y = solve_rational(t_t, [Fraction(x) for x in shift])
        consts = [y[i] + sum(map(mul, lmat[i][i + 1:], y[i + 1:])) for i in range(n)]
    scales = []
    lint = []
    cint = []
    for row, c in zip(lmat, consts):
        s = lcm(c.denominator, *(x.denominator for x in row))
        scales.append(s)
        lint.append([x.numerator * (s // x.denominator) for x in row])
        cint.append(c.numerator * (s // c.denominator))
    dens = [di.denominator * s * s for di, s in zip(d, scales)]
    zden = lcm(*dens)
    weights = [di.numerator * (zden // den) for di, den in zip(d, dens)]
    return t_t, scales, lint, cint, zden, weights


def _qf_value_counts(a, shift, bound):
    """Map exact form value -> number of solutions, tallied by state.

    The walk of `_qf_leaves`, counted without visiting each leaf.  Level m
    has p_m = s_m x_m + sk_m, the offset sk_m fixed by the x above it.  The
    subtree below a level is fixed by its state: the budget left, the half
    flag and the offsets sk_m of every lower level.  Shifting x_m by k
    moves sk_m by k s_m and each lower sk_i by k carry[m][i] and leaves
    every p unchanged, so offsets reduced into [0, s_m) top level down are
    a canonical form: equal reduced states have equal subtrees.  The count
    keeps one entry per distinct state with its multiplicity and expands
    each once per level, from the top down to level 0, where a state is one
    range of p0.

    On the basis of `lll_reduce_gram` (delta = 99/100) the states merge on
    every level, also at rank 24.

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
    half = all((2 * c).denominator == 1 for c in shift)
    # carry[m][i]: the change of sk_i (i < m) when x_m grows by 1
    carry = [[row[m] for row in lint[:m]] for m in range(n)]

    def reduced(offs):
        # shift each x_m, top level down, so that sk_m lies in [0, s_m)
        for m in range(len(offs) - 1, -1, -1):
            q = offs[m] // scales[m]
            if q:
                offs[m] -= q * scales[m]
                for i, c in enumerate(carry[m]):
                    offs[i] -= c * q
        return tuple(offs)

    states = {(total_budget, half, reduced(list(cint))): 1}
    for level in range(n - 1, 0, -1):
        w, s, col = weights[level], scales[level], carry[level]
        below = {}
        get = below.get
        for (rem, h, offs), mult in states.items():
            sk = offs[level]
            froot = isqrt(rem // w)
            for xv in range(0 if h else -((sk + froot) // s), (froot - sk) // s + 1):
                p = s * xv + sk
                key = (rem - w * p * p, h and not p,
                       reduced([o + c * xv for o, c in zip(offs, col)]))
                below[key] = get(key, 0) + mult
        states = below
    w0, s0 = weights[0], scales[0]
    counts = {}
    get = counts.get
    for (rem, h, (r,)), mult in states.items():
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


def _qf_leaves(a, shift, bound):
    """The all-integer Fincke-Pohst point walk: (base, cols, zden, leaves),
    or None for a negative bound.

    `leaves` is an iterator that yields each leaf (entries, used) as the walk
    reaches it; `entries` are the nonzero (index, value) pairs of the
    integer vector x.  The point y = shift + T^T x is base + sum_j x_j
    cols[j] (`_qf_point`), base the shift with integral coordinates as ints
    and cols = T; its exact value is used / zden.  v and -v are both
    visited; `_qf_value_counts`, which wants only values, walks each pair
    once when 2 shift is integral.

    The walk runs in one frame on an explicit stack of its levels and hands
    each leaf on before it takes the next, so its memory is O(depth + what
    the caller keeps), however many leaves it walks: `chamber_of` at the
    E8+U cusp keeps 2812 walls of 20931 leaves.  One frame resumes once per
    leaf, where a generator per level would resume a frame per level.
    """
    n = len(a)
    bound = Fraction(bound)
    if bound < 0:
        return None
    base = [int(c) if c.denominator == 1 else c for c in map(Fraction, shift or [0] * n)]
    if n == 0:
        return base, [], 1, iter([((), 0)])
    t_t, scales, lint, cint, zden, weights = _qf_prepare(a, shift)
    total_budget = (bound.numerator * zden) // bound.denominator

    def walk():
        # each level above 0 on the path keeps its x, the last x it takes,
        # its offset sk and the budget it was entered with; `nonzero` holds
        # the nonzero x of those levels, top level first
        xs, his, sks, rems = [0] * n, [0] * n, [0] * n, [0] * n
        nonzero = []
        level, remaining = n - 1, total_budget
        while True:
            s, row, sk, w = scales[level], lint[level], cint[level], weights[level]
            for j, xj in nonzero:
                sk += row[j] * xj
            froot = isqrt(remaining // w)
            lo = -((sk + froot) // s)
            hi = (froot - sk) // s
            if level == 0:
                used = total_budget - remaining
                for xv in range(lo, hi + 1):
                    p = s * xv + sk
                    yield (nonzero + [(0, xv)] if xv else tuple(nonzero),
                           used + w * p * p)
            elif lo <= hi:
                xs[level], his[level], sks[level], rems[level] = lo, hi, sk, remaining
                if lo:
                    nonzero.append((level, lo))
                p = s * lo + sk
                remaining -= w * p * p
                level -= 1
                continue
            # up to the lowest level with an x left, and on to its next x
            while True:
                level += 1
                if level == n:
                    return
                xv = xs[level]
                if xv:
                    nonzero.pop()
                if xv < his[level]:
                    break
            xv += 1
            xs[level] = xv
            if xv:
                nonzero.append((level, xv))
            p = scales[level] * xv + sks[level]
            remaining = rems[level] - weights[level] * p * p
            level -= 1

    return base, transpose(t_t), zden, walk()


def _qf_point(base, cols, entries):
    """base + T^T x, summed sparsely over the nonzero entries of x
    (`cols` = T, the columns of T^T)."""
    y = list(base)
    for j, xj in entries:
        for i, c in enumerate(cols[j]):
            if c:
                y[i] += xj * c
    return tuple(y)


def _qf_enumerate(a, shift, bound):
    """All (y, value) with y = shift + x, x integer, y^T a y <= bound.

    Integral coordinates of y stay ints.
    """
    walked = _qf_leaves(a, shift, bound)
    if walked is None:
        return []
    base, cols, zden, leaves = walked
    return [(_qf_point(base, cols, entries), Fraction(used, zden))
            for entries, used in leaves]


def vectors_below(lattice, bound, coset_rep=None):
    """All v in coset_rep + L with Q(v) <= bound, sorted lexicographically;
    bound is read by `exact_rational`, so 0.1 raises ValueError."""
    return sorted((tuple(Fraction(c) for c in y), val / 2) for y, val in
                  _qf_enumerate([list(r) for r in lattice.gram],
                                _coset_rep(lattice, coset_rep), 2 * exact_rational(bound)))


def short_vectors(lattice, m, coset_rep=None):
    """R_Lambda(m, mu) = {v in mu + L : Q(v) = m}, sorted lexicographically."""
    m = exact_rational(m)
    return [v for v, val in vectors_below(lattice, m, coset_rep) if val == m]


def _coset_rep(lattice, coset_rep):
    """A representative to enumerate as exact coordinates, None for zero;
    raises ValueError unless the lattice is positive definite."""
    if not lattice.is_positive_definite:
        raise ValueError("enumeration requires a positive-definite lattice")
    if coset_rep is None:
        return None
    rep = _coordinates(coset_rep, lattice.rank)
    return rep if any(rep) else None


class _BoundedCache(OrderedDict):
    """A dict of at most `size` entries; storing past that drops the oldest.

    An entry counts as stored when its key was last assigned.
    """

    def __init__(self, size):
        super().__init__()
        self.size = size

    def __setitem__(self, key, value):
        if key in self:
            self.move_to_end(key)
        super().__setitem__(key, value)
        if len(self) > self.size:
            self.popitem(last=False)


# matrix -> (T^T, d, l) of `_qf_reduce`; the test suite walks about 430
# distinct matrices, most of them once, a benchmark pass at most 4
_QF_REDUCE_CACHE = _BoundedCache(128)


# (gram, representative or None) -> (bound, {Q value: count}); one pass of
# the test suite stores about 135 keys, a benchmark workload at most a few
_REP_COUNT_CACHE = _BoundedCache(256)


def _coset_counts(lattice, coset_rep, bound):
    """{Q(v): number of v} over v in coset_rep + L with Q(v) <= bound.

    The one direct count behind `representation_count`, `coset_theta` and
    `theta_series` of an unglued lattice, memoized per Gram and
    representative at the largest bound walked, so it may also hold values
    past `bound`.
    """
    rep = _coset_rep(lattice, coset_rep)
    bound = exact_rational(bound)
    if bound < 0:
        return {}
    key = (lattice.gram, rep)
    entry = _REP_COUNT_CACHE.get(key)
    if entry is None or entry[0] < bound:
        counts = _qf_value_counts([list(r) for r in lattice.gram], rep, 2 * bound)
        entry = _REP_COUNT_CACHE[key] = (bound, {v / 2: c for v, c in counts.items()})
    return entry[1]


def representation_count(lattice, m, coset_rep=None):
    """r_Lambda(m, mu), the number of vectors of the coset with Q = m.

    Always computed by direct enumeration (so it can serve as the independent
    cross-check of the glue-code theta decomposition), from the count memo
    it shares with `coset_theta` and `theta_series`.  A representative of
    the wrong length or with a non-integral float coordinate raises
    ValueError, and so does an m that `exact_rational` rejects, such as 0.1.
    """
    m = exact_rational(m)
    return _coset_counts(lattice, coset_rep, m).get(m, 0)


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

# gram of a glued lattice -> theta series; the test suite stores about 4
_THETA_CACHE = _BoundedCache(32)


def coset_theta(lattice, coset_rep, bound):
    """Theta series of one coset: sum over v in rep + L of q^Q(v), through q^bound.

    Q takes its values on the grid Q(rep) + (1/d)Z, d the denominator of
    G rep (d = 1 for a dual vector); the precision is the first grid point
    past bound, so bound + 1 for the zero coset and an integer bound.  The
    counts come from the memo shared with `representation_count`, and a
    representative or bound raises ValueError as it does there.
    """
    counts = _coset_counts(lattice, coset_rep, bound)
    return FracQSeries(counts, _theta_prec(lattice, coset_rep, bound))


def _theta_prec(lattice, coset_rep, bound):
    """The first point past bound of the grid Q(rep) + (1/d)Z of coset_theta."""
    rep = coset_rep or (0,) * lattice.rank
    q0 = lattice.q(rep)
    d = lcm(*(c.denominator for c in lattice.image(rep)))
    return q0 + Fraction(floor((exact_rational(bound) - q0) * d) + 1, d)


def theta_series(lattice, bound):
    """Theta series of the lattice with coefficients through q^bound.

    A lattice without glue gets `coset_theta(lattice, None, bound)`, from
    the count memo of `representation_count`.  A lattice built by
    `glue_lattice` from blocks L_i and a glue code C has
    theta_L = W_C(theta_{L_i + c}), the complete weight enumerator of C
    evaluated at the blocks' coset theta series (Conway-Sloane, SPLAG,
    ch. 7 sec. 2): exponentially faster than direct enumeration in rank 24.
    Only these glue-route series are cached, in `_THETA_CACHE`.  The
    precision is that of `coset_theta` on the zero coset, and a bound that
    `exact_rational` rejects, such as 0.1, raises ValueError.
    """
    if lattice.glue is None:
        return coset_theta(lattice, None, bound)
    prec = _theta_prec(lattice, None, bound)
    theta = _THETA_CACHE.get(lattice.gram)
    if theta is None or theta.prec < prec:
        theta = _THETA_CACHE[lattice.gram] = _theta_by_glue(lattice.glue, bound, prec)
    return theta.truncate(prec)


class _CosetIds(dict):
    """coset -> series id of one block Gram, filled on first use: mu takes
    the id of -mu (v -> -v maps L + mu onto L - mu) or walks its series."""

    def __init__(self, block, ids, bound):
        super().__init__()
        self.block, self.disc, self.ids, self.bound = block, discriminant_form(block), ids, bound

    def __missing__(self, coset):
        sid = self.get(self.disc.neg(coset))
        if sid is None:
            series = coset_theta(self.block, self.disc.rep(coset), self.bound)
            sid = self.ids.setdefault(series, len(self.ids))
        self[coset] = sid
        return sid


def _glue_classes(glue, bound):
    """The glue code's words tallied by composition over distinct coset series.

    Each distinct coset theta series gets an int id in the order the words
    meet it; equal series share one, also across block Grams (so the cosets
    1 and 2 of A2 share one), and a coset that no word uses is not walked.
    Returns (series, classes): series[i] has id i, and classes maps a
    composition (n_0, ..., n_{k-1}), n_i the number of blocks of a word
    whose coset series has id i, to the number of code words with it.  Each
    block Gram has one `_CosetIds` table, so a word maps to its ids with one
    C-level lookup per block and is tallied with `list.count`.
    """
    ids = {}  # series -> id
    blocks = {b.gram: b for b in glue.blocks}
    by_gram = {gram: _CosetIds(b, ids, bound) for gram, b in blocks.items()}
    tables = [by_gram[b.gram] for b in glue.blocks]
    words = [list(map(getitem, tables, w)) for w in glue.words]
    return list(ids), Counter(tuple(map(w.count, range(len(ids)))) for w in words)


def _theta_by_glue(glue, bound, prec):
    """theta_L = W_C(theta_{L_i + c}) through q^bound, at precision prec.

    For each composition class of the code, each coset series is raised to
    its count and the powers multiplied once (SPLAG ch. 7 sec. 2).
    """
    series, classes = _glue_classes(glue, bound)
    total = FracQSeries.zero(prec)
    for comp, count in classes.items():
        prod = FracQSeries.one(prec)
        for s, e in zip(series, comp):
            if e:
                prod = prod * s ** e
        total = total + prod * count
    return total.truncate(prec)


# ---------------------------------------------------------------------------
# glue construction
# ---------------------------------------------------------------------------

class GlueData:
    """Block decomposition and glue code of an overlattice of a direct sum."""

    __slots__ = ("blocks", "words", "generators")

    def __init__(self, blocks, words, generators):
        self.blocks = tuple(blocks)
        self.words = tuple(words)
        self.generators = tuple(generators)


def _coset_sums(factors):
    """(c1, c2) -> c1 + c2 in Z/f_1 x ... x Z/f_k, for every pair of cosets."""
    cosets = list(itertools.product(*map(range, factors)))
    return {(a, b): tuple((x + y) % f for x, y, f in zip(a, b, factors))
            for a in cosets for b in cosets}


def _span(generators, factors):
    """The subgroup H of D_1 x ... x D_n generated by nested words.

    A word holds one coset tuple per block; `factors[i]` are the invariant
    factors of D_i.  Blocks with the same factors share one `_coset_sums`
    table, built for every pair of cosets, and two words add with one
    C-level lookup per block.  Incremental closure: for each generator g
    not yet in H, H grows by the cosets H + k*g for k = 1, 2, ... while k*g
    is not in H (tested before the coset is built).  Returns (the words of
    H, the generators that enlarged H); the latter generate H.
    """
    tables = {f: _coset_sums(f) for f in factors}
    sums = [tables[f] for f in factors]
    lookup = dict.__getitem__
    zero = tuple((0,) * len(f) for f in factors)
    words = [zero]
    members = {zero}
    basis = []
    for g in generators:
        if g in members:
            continue
        basis.append(g)
        old = len(words)
        kg = g
        while kg not in members:
            for w in words[:old]:
                nw = tuple(map(lookup, sums, zip(w, kg)))
                words.append(nw)
                members.add(nw)
            kg = tuple(map(lookup, sums, zip(kg, g)))
    return words, basis


def glue_lattice(blocks, generators, name=None):
    """Overlattice of an orthogonal block sum defined by a glue code.

    `generators` are words (one coset per block, each a coset tuple) whose
    span is the code.  The code must be isotropic for the total Q mod 1;
    since Q(x + y) = Q(x) + Q(y) + [x, y], it is checked on the generators
    that span it, on the blocks' discriminant forms: sum_b Q_b(g_i,b) = 0 and
    sum_b [g_i,b, g_j,b] = 0 mod 1.  The result is an even lattice with
    |det| = prod |D_i| / |code|^2.
    """
    blocks = tuple(blocks)
    discs = [discriminant_form(b) for b in blocks]

    def normalize_word(word):
        if len(word) != len(blocks):
            raise ValueError("glue word length must match the number of blocks")
        return tuple(d.normalize(c) for d, c in zip(discs, word))

    gens = [normalize_word(w) for w in generators]
    words, basis = _span(gens, [d.invariant_factors for d in discs])

    # the block forms on one common level: N Q(x) = sum_b (N / N_b) N_b Q_b(x_b),
    # and N [x, y] is the pairing row of x (blocks side by side) dotted with y
    level = lcm(*(d.level for d in discs))
    steps = [level // d.level for d in discs]
    flat = [sum(g, ()) for g in basis]
    for i, g in enumerate(basis):
        nq = sum(s * d.q_exponent(c) for s, d, c in zip(steps, discs, g))
        row = [s * x for s, d, c in zip(steps, discs, g) for x in d.pairing_row(c)]
        if nq % level or any(sum(map(mul, row, h)) % level for h in flat[:i]):
            raise ValueError("glue code is not isotropic for the total Q mod 1")
    lifts = [[x for d, c in zip(discs, g) for x in d.rep(c)] for g in basis]
    order = 1
    for d in discs:
        order *= d.order
    code_size = len(words)
    words.sort()
    lat = _overlattice(direct_sum(blocks), lifts, name=name)
    if abs(lat.det) * code_size * code_size != order:
        raise AssertionError("glue determinant bookkeeping failed")
    object.__setattr__(lat, "glue", GlueData(blocks, words, gens))
    return lat


# ---------------------------------------------------------------------------
# isotropic lines and cusp data
# ---------------------------------------------------------------------------

def _split(a, p):
    """(alpha, u) with a = p^alpha u and u prime to p, for a nonzero integer a."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return alpha, a


def _legendre(u, p):
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _hilbert(a, b, p):
    """The Hilbert symbol (a, b)_p of nonzero integers (Serre, A Course in
    Arithmetic, III Thm 1)."""
    (alpha, u), (beta, v) = _split(a, p), _split(b, p)
    if p == 2:
        t = (u - 1) // 2 * ((v - 1) // 2) + alpha * (v * v - 1) // 8 + beta * (u * u - 1) // 8
        return -1 if t % 2 else 1
    sign = -1 if alpha * beta * (p - 1) // 2 % 2 else 1
    return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def _is_p_adic_square(a, p):
    alpha, u = _split(a, p)
    return alpha % 2 == 0 and (u % 8 == 1 if p == 2 else _legendre(u, p) == 1)


def _anisotropic(gram):
    """True when an indefinite nonsingular form of rank 3 or 4 has no rational
    zero.  Over Q the form is diag(a_0, ..., a_{n-1}), a_k = p_k p_{k-1} up to
    squares for the pivots p_k of `_symmetric_bareiss` (p_{-1} = 1).  It is
    isotropic over R, and at every odd p prime to all a_k, so only the p
    dividing 2 p_0 ... p_{n-1} are tested (Hasse-Minkowski; Serre, IV Thm 6):
    rank 3 fails at p when (-a_0 a_2, -a_1 a_2)_p = -1, rank 4 when a_0 a_1
    a_2 a_3 is a square in Q_p and prod_{i<j} (a_i, a_j)_p != (-1, -1)_p."""
    pivots = [row[0] for row in _symmetric_bareiss(gram)[1]]
    a = [x * y for x, y in zip(pivots, [1] + pivots)]
    primes = {2}.union(*(_factor(abs(x)) for x in pivots))
    if len(a) == 3:
        return any(_hilbert(-a[0] * a[2], -a[1] * a[2], p) == -1 for p in primes)
    return any(_is_p_adic_square(prod(a), p)
               and prod(_hilbert(x, y, p) for x, y in itertools.combinations(a, 2))
               != _hilbert(-1, -1, p) for p in primes)


def isotropic_line(lattice):
    """A primitive isotropic vector; None when the lattice has none.

    A definite lattice has none.  Otherwise a basis vector of norm 0 comes
    first, and ranks 2, 3 and 4 are decided exactly: rank 2 by its roots,
    ranks 3 and 4 by Hilbert symbols (`_anisotropic`).  An isotropic form of
    rank >= 3 is then searched by shells of bounded coordinates; a search
    that ends without a vector raises ValueError, since its coordinate bound
    proves nothing.  Indefinite lattices of rank >= 5 are isotropic (Meyer);
    the error says so.
    """
    n = lattice.rank
    pos, neg = lattice.signature_pair
    if pos == n or neg == n:
        return None
    for i in range(n):
        if lattice.gram[i][i] == 0:
            return tuple(int(i == j) for j in range(n))
    if n == 2:
        # (a x^2 + 2b xy + c y^2) / 2 with a, c != 0 vanishes exactly on
        # (-b +- s, a) for s^2 = b^2 - ac = -det, so -det must be a square;
        # of the two roots, the one first in the shell order below
        (a, b), _ = lattice.gram
        s = isqrt(-lattice.det)
        if s * s != -lattice.det:
            return None
        roots = []
        for x in (-b + s, -b - s):  # both nonzero, as ac is
            g = gcd(x, a) if x > 0 else -gcd(x, a)
            roots.append((x // g, a // g))
        return min(roots, key=lambda v: (max(map(abs, v)), v))
    if n <= 4 and _anisotropic(lattice.gram):
        return None
    # shells of max |x_i| = 1, 2, ...; of x and -x only the one whose first
    # nonzero coordinate is positive (x > 0 as a tuple)
    bound = 4 * max(abs(x) for row in lattice.gram for x in row) * n
    zero = (0,) * n
    shells = (x for shell in range(1, bound + 1)
              for x in itertools.product(range(-shell, shell + 1), repeat=n)
              if x > zero and max(map(abs, x)) == shell)
    gram = lattice.gram
    for x in itertools.islice(shells, ISOTROPIC_SEARCH_BUDGET):
        # x^T G x on the int tuple, which is 0 exactly when Q(x) is
        if sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, gram) if xi) == 0:
            g = gcd(*(abs(c) for c in x))
            return tuple(c // g for c in x)
    meyer = ", which is isotropic (Meyer)" if n >= 5 else ""
    raise ValueError(f"isotropic search exhausted (budget {ISOTROPIC_SEARCH_BUDGET}, "
                     f"coordinate bound {bound}) on an indefinite lattice of "
                     f"rank {n}{meyer}")


class CuspData:
    """Data attached to a primitive isotropic vector ell of an indefinite lattice.

    Carries N with N*Z = [L, ell], a vector k and an integral k0 with
    [ell, k] = [ell, k0] = N, the quotient lattice V0 of (ell-perp in L) /
    Z*ell with its induced Gram matrix, and integer lifts of the V0 basis
    back into ell-perp.  `reduction`, computed once, maps each coset mu of
    D(V) with a lift into ell-perp to (lam, [lift, k]/N mod 1), lam the V0
    coset of the lift; the root of unity of mu's product factors is
    Borcherds' e((delta, z')) = e([lift, k]/N) with z' = k/N in L', so
    [ell, z'] = 1 (Invent. Math. 132 (1998), Thm 13.3), 1 whenever N = 1
    and k is integral, and a coset with no lift has no entry.  The
    lift, lam and the root of unity are read off one integral inverse of the
    basis B = (k0, ell, lift rows) of L: a representative c B of mu pairs to
    N c_0 with ell, so it lifts exactly when c_0 is an integer, to
    c B - c_0 k0, whose V0 coordinates are c_2, c_3, ...
    """

    def __init__(self, lattice, ell, n_value, k, k0, v0, lift_rows):
        self.lattice = lattice
        self.ell = ell
        self.n_value = n_value
        self.k = k
        self.k0 = k0
        self.v0 = v0
        self.lift_rows = lift_rows

    @cached_property
    def reduction(self):
        cols = list(zip(*_int_matrix(invert_rational((self.k0, self.ell) + self.lift_rows))))
        disc, disc0 = discriminant_form(self.lattice), discriminant_form(self.v0)
        out = {}
        for mu in disc.cosets():
            rep = disc.rep(mu)
            c = [sum(map(mul, rep, col)) for col in cols]
            if c[0].denominator == 1:
                lift = tuple(a - c[0] * b for a, b in zip(rep, self.k0))
                out[mu] = (disc0.coset_of_dual(c[2:]),
                           self.lattice.bilinear(lift, self.k) / self.n_value % 1)
        return out

    def __repr__(self):
        return (f"CuspData(ell={self.ell}, N={self.n_value}, "
                f"V0=rank {self.v0.rank})")


def cusp_data(lattice, ell):
    """Cusp data for a primitive isotropic ell.

    N is the positive generator of [L, ell], read off the one Smith form
    u (G ell) v = (N, 0, ..., 0) with u = (+-1): k0 = u_00 times column 0
    of v lies in L with [ell, k0] = N, and the other columns of v span
    ell-perp, where the lifts of V0 are chosen.  The product's roots of
    unity are e([lift, k]/N), Borcherds' e((delta, z')) with z' = k/N
    (`CuspData`), and z' must lie in the dual lattice L' for them to depend
    on the coset alone.  So k is k0 when k0/N lies in L' (always when
    N = 1), and otherwise N G^-1 y for an integral y with ell . y = 1, read
    off the Smith form of ell.  ell must have integer entries (an integral
    float is read as its int); anything else raises ValueError.
    """
    ell = tuple(map(exact_int, ell))
    if lattice.q(ell) != 0:
        raise ValueError("ell must be isotropic")
    g = gcd(*(abs(c) for c in ell))
    if g != 1:
        raise ValueError("ell must be primitive")
    gl = list(lattice.image(ell))
    d, u, v = smith_normal_form([gl])
    n_value = d[0][0]
    if n_value == 0:
        raise ValueError("ell pairs to zero with the whole lattice")
    k = k0 = tuple(u[0][0] * row[0] for row in v)
    if any(x % n_value for x in lattice.image(k0)):
        _, uy, vy = smith_normal_form([list(ell)])
        y = [uy[0][0] * row[0] for row in vy]
        k = tuple(n_value * c for c in solve_rational(lattice.gram, y))

    # ell's coordinates in the columns of v past the first, which span
    # ell-perp: unique, and integral as v is unimodular
    coords = list(map(exact_int, solve_rational([row[1:] for row in v], ell)))
    # complete the primitive coordinate vector c of ell to a unimodular
    # matrix: the Smith form of the column c^T is u c^T = e1 (d_00 = 1 > 0
    # and its v is (1)), so the rows of (u^T)^{-1} start with c
    _, u, _ = smith_normal_form([[c] for c in coords])
    m = _int_matrix(invert_rational(transpose(u)))
    if m[0] != list(coords):
        raise AssertionError("failed to complete ell to a kernel basis")
    new_basis = mat_mul(m, transpose(v)[1:])
    lift_rows = tuple(map(tuple, new_basis[1:]))
    gram0 = mat_mul(mat_mul(lift_rows, lattice.gram), transpose(lift_rows))
    v0 = GramLattice(gram0, name=(f"{lattice.name}/cusp" if lattice.name else None))
    return CuspData(lattice, ell, n_value, k, k0, v0, lift_rows)
