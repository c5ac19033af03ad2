"""Integral quadratic lattices: discriminant forms, enumeration, cusp data.

A lattice is given by an even symmetric Gram matrix G; the quadratic form is
Q(x) = x^T G x / 2 and the bilinear form [x, y] = x^T G y, so that
[x, y] = Q(x+y) - Q(x) - Q(y).  All arithmetic is exact.
"""

import itertools
import warnings
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, isqrt, lcm
from operator import getitem, mul

from .linalg import (
    _det_and_signature,
    exact_int,
    exact_rational,
    hermite_normal_form,
    invert_rational,
    kernel_basis,
    lll_reduce_gram,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_int,
    solve_rational,
    transpose,
)
from .qseries import FracQSeries

ISOTROPIC_SEARCH_BUDGET = 2_000_000


class GramLattice:
    """An integral lattice with even Gram matrix, as an immutable value."""

    __slots__ = ("rank", "gram", "name", "glue", "det", "signature_pair", "_disc")

    def __init__(self, gram, name=None, glue=None):
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
        object.__setattr__(self, "glue", glue)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "signature_pair", signature_pair)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *_):
        raise AttributeError("GramLattice is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: restoring the slots
        # would go through the __setattr__ above
        return GramLattice, (self.gram, self.name, self.glue)

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
        """[x, y] = x^T G y = Q(x+y) - Q(x) - Q(y)."""
        x, y = _coordinates(x, self.rank), _coordinates(y, self.rank)
        total = 0
        for i, row in enumerate(self.gram):
            if x[i]:
                for j, g in enumerate(row):
                    if g:
                        total += x[i] * g * y[j]
        return Fraction(total)

    def discriminant_form(self):
        if self._disc is None:
            object.__setattr__(self, "_disc", DiscriminantForm(self))
        return self._disc


class DiscriminantForm:
    """The finite quadratic group L^dual / L with Q taking values in Q/Z.

    Cosets are normalized coordinate tuples with respect to generators g_i of
    orders given by the invariant factors (each > 1).  The form is stored once,
    in integers, as N Q(g_i) and N [g_i, g_j] mod N, N = `level` the least
    common denominator of these values; by bilinearity they give N Q(mu) and
    N [mu, nu] mod N (`q_exponent`, `pairing_row`) for every coset.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        n = lattice.rank
        d, _, v = smith_normal_form(lattice.gram)
        diag = [d[i][i] for i in range(n)]
        self._vinv = tuple(map(tuple, _int_matrix(invert_rational(v))))
        self._indices = tuple(i for i in range(n) if diag[i] > 1)
        self._full_diag = tuple(diag)
        self.invariant_factors = tuple(diag[i] for i in self._indices)
        vt = transpose(v)
        self.generators = tuple(
            tuple(Fraction(vt[i][j], diag[i]) for j in range(n))
            for i in self._indices)
        self.order = 1
        for f in diag:
            self.order *= f
        if self.order != abs(lattice.det):
            raise AssertionError("discriminant group order must equal |det|")
        self.signature_mod8 = (lattice.signature_pair[0] - lattice.signature_pair[1]) % 8

        # g_i = v_i / f_i for the column v_i of V: [g_i, g_j] = v_i G v_j / (f_i f_j)
        cols = [vt[i] for i in self._indices]
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

    def add(self, c1, c2):
        return tuple((a + b) % f for a, b, f in
                     zip(self.normalize(c1), self.normalize(c2), self.invariant_factors))

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
        n = self.lattice.rank
        y = _coordinates(y, n)
        if any(v.denominator != 1 for v in self.lattice.image(y)):
            raise ValueError("vector is not in the dual lattice")
        # y = sum_i m_i * (column i of V) / d_i  with  m = D V^{-1} y
        vy = mat_vec([list(r) for r in self._vinv], list(y))
        coords = []
        for i in self._indices:
            mi = Fraction(vy[i]) * self._full_diag[i]
            if mi.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            coords.append(int(mi) % self._full_diag[i])
        return tuple(coords)

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
    """The finite quadratic module L^dual / L."""
    return lattice.discriminant_form()


def is_maximal(lattice):
    """True when the discriminant form is anisotropic (no nonzero isotropic coset).

    For a Z-valued lattice this is equivalent to maximality: an isotropic
    coset is exactly a glue vector generating a Z-valued overlattice.
    """
    return _isotropic_coset(lattice) is None


def _isotropic_coset(lattice):
    d = lattice.discriminant_form()
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
    rep = lattice.discriminant_form().rep(c)
    over = _overlattice(lattice, [rep])
    if abs(over.det) >= abs(lattice.det):
        raise AssertionError("witness did not enlarge the lattice")
    return c, over


def _overlattice(lattice, glue_vectors, name=None, glue=None):
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
    return GramLattice(gram, name=name, glue=glue)


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
    every level, also at rank 24.  Measured on a 2-CPU VM with Python 3.11,
    against the former count, which walked node by node above level 5 on a
    basis reduced at delta = 3/4: niemeier-a1 to 2Q <= 2 0.03 -> 0.015 s,
    to 2Q <= 4 2.3 -> 0.055 s, to 2Q <= 6 58 -> 0.17 s; E8+E8 to 2Q <= 8
    0.010 -> 0.003 s.

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
    E8+U cusp keeps 2812 walls of 20931 leaves, and the list of every leaf
    had taken 5.5 MB.  A chain of one `yield from` generator per level
    yields the same leaves but resumes a frame per level for each one: it
    took 1.22 times as long on those 20931 leaves (rank 10) and 1.31 times
    on the 195657 vectors of N(A1^24) + A1 + A1 with 2Q <= 4 (rank 26),
    medians of alternating runs on a 2-CPU VM with Python 3.11.
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


class _Memo(dict):
    """A dict that stores fn(key) for a missing key on its first lookup.

    Hits, also through `dict.__getitem__` in `map`, never call Python code.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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


def _glue_classes(glue, bound):
    """The glue code's words tallied by composition over distinct coset series.

    Each distinct coset theta series gets an int id in order of first
    appearance, word by word; equal series share one, also across block
    Grams (so the cosets 1 and 2 of A2 share one).  Returns (series,
    classes): series[i] has id i, and classes maps a composition
    (n_0, ..., n_{k-1}), n_i the number of blocks of a word whose coset
    series has id i, to the number of code words with it.  Each block Gram
    has one coset -> id table, filled on first lookup, so a word maps to its
    ids with one C-level lookup per block and is tallied with `list.count`.
    v -> -v maps L + mu onto L - mu, so the coset -mu takes the id of mu
    without a walk of its own.
    """
    ids = {}  # series -> id

    def id_table(block):
        disc = block.discriminant_form()

        def series_id(coset):
            sid = table.get(disc.neg(coset))
            if sid is None:
                sid = ids.setdefault(coset_theta(block, disc.rep(coset), bound), len(ids))
            return sid

        table = _Memo(series_id)
        return table

    by_gram = {}
    for b in glue.blocks:
        if b.gram not in by_gram:
            by_gram[b.gram] = id_table(b)
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
    """(c1, c2) -> c1 + c2 in Z/f_1 x ... x Z/f_k, filled on first lookup."""
    return _Memo(lambda key: tuple((a + b) % f for a, b, f in zip(*key, factors)))


def _span(generators, factors):
    """The subgroup H of D_1 x ... x D_n generated by nested words.

    A word holds one coset tuple per block; `factors[i]` are the invariant
    factors of D_i.  Blocks with the same factors share one `_coset_sums`
    table, and two words add with one C-level lookup per block.  Incremental
    closure: for each generator g not yet in H, H grows by the cosets
    H + k*g for k = 1, 2, ... while k*g is not in H (tested before the coset
    is built).  Returns (the words of H, the generators that enlarged H);
    the latter generate H.
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
    discs = [b.discriminant_form() for b in blocks]

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
    glue = GlueData(blocks, words, gens)
    lat = _overlattice(direct_sum(blocks), lifts, name=name, glue=glue)
    if abs(lat.det) * code_size * code_size != order:
        raise AssertionError("glue determinant bookkeeping failed")
    return lat


# ---------------------------------------------------------------------------
# isotropic lines and cusp data
# ---------------------------------------------------------------------------

def isotropic_line(lattice):
    """A primitive isotropic vector, or None when none exists (or is found).

    Definite lattices return None immediately.  Otherwise basis vectors with
    zero norm are tried first, then shells of bounded coordinates.  Indefinite
    lattices of rank >= 5 are isotropic (Meyer): a search there that ends
    without a vector raises ValueError.  Below rank 5, a search whose budget
    runs out before the shell bound is exhausted warns and returns None.
    """
    n = lattice.rank
    pos, neg = lattice.signature_pair
    if pos == n or neg == n:
        return None
    for i in range(n):
        if lattice.gram[i][i] == 0:
            return tuple(int(i == j) for j in range(n))
    bound = 4 * max(abs(x) for row in lattice.gram for x in row) * n
    shells = (x for shell in range(1, bound + 1) for x in _shell_vectors(n, shell))
    for x in itertools.islice(shells, ISOTROPIC_SEARCH_BUDGET):
        if lattice.q(x) == 0:
            g = gcd(*(abs(c) for c in x))
            return tuple(c // g for c in x)
    if n >= 5:
        raise ValueError(f"isotropic search exhausted (budget {ISOTROPIC_SEARCH_BUDGET}, "
                         f"coordinate bound {bound}) on an indefinite lattice of "
                         f"rank {n}, which is isotropic (Meyer)")
    if next(shells, None) is not None:
        warnings.warn("isotropic search budget exhausted before the "
                      "coordinate bound; returning None", RuntimeWarning)
    return None


def _shell_vectors(n, s):
    """Vectors with max coordinate |.| = s, first nonzero coordinate positive."""
    for x in itertools.product(range(-s, s + 1), repeat=n):
        if max(abs(c) for c in x) != s:
            continue
        lead = next((c for c in x if c != 0), 0)
        if lead > 0:
            yield x


class CuspData:
    """Data attached to a primitive isotropic vector ell of an indefinite lattice.

    Carries N with N*Z = [L, ell], a vector k and an integral k0 with
    [ell, k] = [ell, k0] = N, the isotropic ell_* spanning the complementary
    line, the quotient lattice V0 of (ell-perp in L) / Z*ell with its induced
    Gram matrix, and integer lifts of the V0 basis back into ell-perp.
    `reduction`, computed once, maps each coset mu of D(V) with a lift into
    ell-perp to (lam, [lift, k] mod 1), lam the V0 coset of the lift.  The
    lift, lam and the root of unity are read off one integral inverse of the
    basis B = (k0, ell, lift rows) of L: a representative c B of mu pairs to
    N c_0 with ell, so it lifts exactly when c_0 is an integer, to
    c B - c_0 k0, whose V0 coordinates are c_2, c_3, ...
    """

    def __init__(self, lattice, ell, n_value, k, k0, ell_star, v0, lift_rows):
        self.lattice = lattice
        self.ell = ell
        self.n_value = n_value
        self.k = k
        self.k0 = k0
        self.ell_star = ell_star
        self.v0 = v0
        self.lift_rows = lift_rows

    @property
    def disc_v(self):
        return self.lattice.discriminant_form()

    @property
    def disc_v0(self):
        return self.v0.discriminant_form()

    @cached_property
    def reduction(self):
        cols = list(zip(*_int_matrix(invert_rational((self.k0, self.ell) + self.lift_rows))))
        out = {}
        for mu in self.disc_v.cosets():
            rep = self.disc_v.rep(mu)
            c = [sum(map(mul, rep, col)) for col in cols]
            if c[0].denominator == 1:
                lift = tuple(a - c[0] * b for a, b in zip(rep, self.k0))
                out[mu] = (self.disc_v0.coset_of_dual(c[2:]),
                           self.lattice.bilinear(lift, self.k) % 1)
        return out

    def __repr__(self):
        return (f"CuspData(ell={self.ell}, N={self.n_value}, "
                f"V0=rank {self.v0.rank})")


def cusp_data(lattice, ell, k=None):
    """Cusp data for a primitive isotropic ell; optionally with an explicit k.

    N is the positive generator of [L, ell].  By default k is chosen inside L
    with [ell, k] = N (always possible); an explicit dual vector k with
    [ell, k] = N may be supplied instead.  ell_* = k - (Q(k)/N) ell, which is
    isotropic and pairs to N with ell.  ell must have integer entries and k
    rational ones (an integral float is read as its int); anything else
    raises ValueError.
    """
    ell = tuple(map(exact_int, ell))
    if lattice.q(ell) != 0:
        raise ValueError("ell must be isotropic")
    g = gcd(*(abs(c) for c in ell))
    if g != 1:
        raise ValueError("ell must be primitive")
    gl = list(lattice.image(ell))
    n_value = gcd(*(abs(v) for v in gl))
    if n_value == 0:
        raise ValueError("ell pairs to zero with the whole lattice")

    k0 = solve_int([gl], [n_value])
    if k0 is None:
        raise AssertionError("no integral k with [ell, k] = N")
    k0 = tuple(k0)
    if k is None:
        k = k0
    else:
        k = _coordinates(k, lattice.rank)
        pair = sum(a * b for a, b in zip(gl, k))
        if pair != n_value:
            raise ValueError("supplied k must satisfy [ell, k] = N")
        if any(x.denominator != 1 for x in lattice.image(k)):
            raise ValueError("supplied k must lie in the dual lattice")
    qk = lattice.q(k)
    ell_star = tuple(ki - Fraction(qk, n_value) * li for ki, li in zip(k, ell))

    kernel = kernel_basis([gl])
    coords = solve_int(transpose(kernel), list(ell))
    if coords is None:
        raise AssertionError("ell must lie in its own perp")
    # complete the coordinate vector of ell to a unimodular matrix: take
    # u with u * coords^T = e1, then rows of (u^T)^{-1} start with coords
    _, u, _ = smith_normal_form([[c] for c in coords])
    m = _int_matrix(invert_rational(transpose(u)))
    if m[0] == [-c for c in coords]:
        m[0] = [-x for x in m[0]]
    if m[0] != list(coords):
        raise AssertionError("failed to complete ell to a kernel basis")
    new_basis = mat_mul(m, kernel)
    lift_rows = tuple(map(tuple, new_basis[1:]))
    gram0 = mat_mul(mat_mul(lift_rows, lattice.gram), transpose(lift_rows))
    v0 = GramLattice(gram0, name=(f"{lattice.name}/cusp" if lattice.name else None))
    return CuspData(lattice, ell, n_value, k, k0, ell_star, v0, lift_rows)


def coset_reduce(mu, data):
    """The V0 coset of a lift of mu into ell-perp, or None when no lift exists.

    Read from `data.reduction`.
    """
    entry = data.reduction.get(data.disc_v.normalize(mu))
    return None if entry is None else entry[0]
