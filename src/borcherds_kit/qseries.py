"""Exact truncated q-series arithmetic.

FracQSeries holds a series with exponents in (1/L)*Z and exact rational
coefficients, known strictly below its precision cutoff.  LatticeQSeries
holds a truncated multivariate series over the dual of a Lorentzian lattice,
graded by pairing against a fixed interior point of the light cone; it works
on integers throughout (exponents scaled onto one integer grid, gradings as
ints on a common scale) and builds Fractions only for what it returns.
Numbers given to either are read by the package's one rule,
`linalg.exact_rational` and `exact_int` (README, Conventions).

Every operation computes the tightest sound precision for its result;
consumers must check `.prec` rather than assume.
"""

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, isqrt, lcm
from numbers import Number
from operator import add, itemgetter, mul

from .cyclotomic import CycScalar
from .linalg import _power, exact_int, exact_rational


class FracQSeries:
    """Truncated series sum_e c_e q^e with e in (1/L)Z, c_e rational, e < prec;
    `denominator` is L, the least common denominator of the exponents."""

    __slots__ = ("denominator", "prec", "coeffs")

    def __init__(self, coeffs, prec):
        self.prec = exact_rational(prec)
        cleaned = {}
        for e, c in coeffs.items():
            e = exact_rational(e)
            c = exact_rational(c)
            if c == 0 or e >= self.prec:
                continue
            cleaned[e] = cleaned.get(e, Fraction(0)) + c
        self.coeffs = {e: c for e, c in cleaned.items() if c != 0}
        self.denominator = lcm(*(e.denominator for e in self.coeffs))

    @classmethod
    def zero(cls, prec):
        return cls({}, prec)

    @classmethod
    def one(cls, prec):
        return cls({Fraction(0): Fraction(1)}, prec)

    @property
    def m_min(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def coefficient(self, e):
        e = exact_rational(e)
        if e >= self.prec:
            raise ValueError(f"coefficient of q^{e} not known below precision {self.prec}")
        return self.coeffs.get(e, Fraction(0))

    def truncate(self, prec):
        prec = exact_rational(prec)
        if prec > self.prec:
            raise ValueError("cannot raise precision by truncation")
        return FracQSeries({e: c for e, c in self.coeffs.items() if e < prec}, prec)

    def __eq__(self, other):
        """Two series are equal when their precisions and terms are; a number
        equals a series whose one term is that constant (no term, for 0),
        whatever its precision.  Other operands: README, Conventions."""
        if isinstance(other, FracQSeries):
            return self.prec == other.prec and self.coeffs == other.coeffs
        if isinstance(other, CycScalar):
            c = other.try_rational()
        elif isinstance(other, (Number, str)):
            c = exact_rational(other)
        else:
            return NotImplemented
        return c is not None and self.coeffs == ({0: c} if c else {})

    def __hash__(self):
        # a series equal to a number hashes as that number
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash((self.prec, frozenset(self.coeffs.items())))

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e < prec:
                out[e] = out.get(e, Fraction(0)) + c
        return FracQSeries(out, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return FracQSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, FracQSeries):
            other = exact_rational(other)
            return FracQSeries({e: c * other for e, c in self.coeffs.items()}, self.prec)
        prec = min(self.prec + other.m_min, other.prec + self.m_min)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FracQSeries(out, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        return _power(self, n, FracQSeries.one(self.prec))

    def shift(self, e):
        """Multiply by q^e."""
        e = exact_rational(e)
        return FracQSeries({k + e: c for k, c in self.coeffs.items()}, self.prec + e)

    def __truediv__(self, other):
        """self / other, at the precision of self * other.inverse(): with
        other = b0 q^mb (1 + sum u_k q^(k/L)) and self = q^ma sum a_t q^(t/L),
        the quotient is q^(ma-mb)/b0 sum d_t q^(t/L) with d_t = a_t -
        sum_{0<k<=t} u_k d_{t-k}, the reciprocal recurrence (TAOCP Vol. 2, 4.7)."""
        if not isinstance(other, FracQSeries):
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("cannot divide by the zero series")
        ma, (mb, b0) = self.m_min, min(other.coeffs.items())
        prec = min(self.prec - mb, other.prec - 2 * mb + ma)
        grid = lcm(self.denominator, other.denominator)
        u = sorted((int((e - mb) * grid), c / b0)
                   for e, c in other.coeffs.items() if e != mb)
        a = {int((e - ma) * grid): c for e, c in self.coeffs.items()}
        d = []
        for t in range(ceil((prec + mb - ma) * grid)):
            acc = a.get(t, 0)
            for k, uk in u:
                if k > t:
                    break
                acc -= uk * d[t - k]
            d.append(acc)
        out = {Fraction(t, grid) + ma - mb: dt / b0 for t, dt in enumerate(d) if dt}
        return FracQSeries(out, prec)

    def inverse(self):
        """1 / self: leading exponent -m_min, precision prec - 2*m_min."""
        return FracQSeries.one(self.prec - self.m_min) / self

    def _coerce(self, other):
        """other as a series: a number is the constant series of its value."""
        if isinstance(other, FracQSeries):
            return other
        return FracQSeries({0: other}, self.prec)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __repr__(self):
        if not self.coeffs:
            return f"O(q^{self.prec})"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            else:
                terms.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(terms) + f" + O(q^{self.prec})"


def _sigma(n, k):
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d ** k
            if d * d != n:
                total += (n // d) ** k
    return total


def eisenstein(k, b):
    """Normalized Eisenstein series E4 or E6 with terms through q^b."""
    k, b = exact_int(k), exact_int(b)
    if k == 4:
        mult = 240
    elif k == 6:
        mult = -504
    else:
        raise ValueError("only k = 4 and k = 6 are supported")
    coeffs = {Fraction(0): Fraction(1)}
    for n in range(1, b + 1):
        coeffs[Fraction(n)] = Fraction(mult * _sigma(n, k - 1))
    return FracQSeries(coeffs, b + 1)


def delta_series(b):
    """The discriminant cusp form q * prod (1-q^n)^24 with terms through q^b.

    Jacobi's triple product identity gives
    prod (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2), the series of
    eta^3, so Delta = q * (that series)^8: three squarings.
    """
    b = exact_int(b)
    if b < 1:
        raise ValueError("need b >= 1")
    # prod (1-q^n)^3 through q^(b-1)
    cube = {}
    k = 0
    while k * (k + 1) // 2 < b:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return (FracQSeries(cube, b) ** 8).shift(1)


def j_series(b):
    """The modular j-function E4^3 / Delta with terms through q^b.

    E4^3 - E6^2 = 1728 Delta, so j = E6^2 / Delta + 1728: a product and a quotient.
    """
    b = exact_int(b)
    e6 = eisenstein(6, b + 2)
    j = (e6 * e6) / delta_series(b + 3) + 1728
    return j.truncate(b + 1)


@lru_cache(maxsize=64)
def _grading_scale(lattice, w):
    """(s, gw, unit) for a light-cone point w: the integer grading data.

    s is the exponent of the discriminant group of the lattice, so every
    dual vector alpha has integer coordinates a = s * alpha (s = 1 for a
    unimodular lattice), and gw is the integer vector d * G w for the least
    such d.  Then [alpha, w] = (a . gw) / unit with unit = s * d.  Raises when
    Q(w) >= 0.  Cached by value: the lattice compares by Gram matrix.
    """
    from .lattice import discriminant_form  # lattice imports this module
    if lattice.q(w) >= 0:
        raise ValueError("grading point must lie in the light cone")
    s = max(discriminant_form(lattice).invariant_factors, default=1)
    image = lattice.image(w)
    d = lcm(*(c.denominator for c in image))
    return s, tuple(int(c * d) for c in image), s * d


def _on_grid(alpha, s, gw):
    """(a, g) for an exponent alpha: the ints a = s * alpha and the grading
    a . gw.  Raises ValueError when alpha does not have len(gw) coordinates
    or is off the grid (1/s)Z of the dual lattice."""
    if len(alpha) != len(gw):
        raise ValueError(f"expected {len(gw)} coordinates, got {len(alpha)}")
    a = []
    for x in map(exact_rational, alpha):
        q, r = divmod(s, x.denominator)
        if r:
            raise ValueError(f"exponent coordinate {x} is off the grid (1/{s})Z "
                             f"of the dual lattice")
        a.append(x.numerator * q)
    return tuple(a), sum(map(mul, a, gw))


def _as_int(c):
    """An integral Fraction as an int; every other coefficient unchanged."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class LatticeQSeries:
    """Truncated series over the dual of a Lorentzian exponent lattice.

    Terms are graded by the pairing [alpha, w] against a fixed interior point
    w of the light cone (Q(w) < 0); every stored exponent has grading in
    (0, cutoff] except the constant term.  The grading point is part of the
    value: two series combine only when their lattices, w and cutoff agree.

    Exponents are stored as integer tuples a = s * alpha over one scaled
    basis of the dual lattice, each with its grading as the int
    a . gw = unit * [alpha, w] (see `_grading_scale`), and integral
    coefficients as ints.  `coeffs` builds the Fraction exponents and
    coefficients only for what it returns.  The public constructor validates
    its terms; products and sums build their results from trusted terms.
    """

    __slots__ = ("lattice", "w", "cutoff", "_scale", "_gw", "_unit", "_cut",
                 "_terms", "_coeffs")

    def __init__(self, lattice, w, cutoff, coeffs):
        w = tuple(map(exact_rational, w))
        s, gw, unit = _grading_scale(lattice, w)
        cutoff = exact_rational(cutoff)
        cut = floor(cutoff * unit)
        terms = {}
        for alpha, c in coeffs.items():
            if not isinstance(c, CycScalar):
                c = exact_rational(c)
            if c == 0:
                continue
            a, g = _on_grid(alpha, s, gw)
            if any(a):
                if g <= 0:
                    raise ValueError("exponent with nonpositive grading")
                if g > cut:
                    continue
            terms[a] = (_as_int(c), g)
        self.lattice = lattice
        self.w = w
        self._scale, self._gw, self._unit = s, gw, unit
        self._set(cutoff, cut, terms)

    def _set(self, cutoff, cut, terms):
        self.cutoff = cutoff
        self._cut = cut
        self._terms = terms
        self._coeffs = None

    def _derive(self, cutoff, cut, terms):
        """A series on this one's lattice and grading, with trusted terms."""
        out = object.__new__(LatticeQSeries)
        out.lattice, out.w = self.lattice, self.w
        out._scale, out._gw, out._unit = self._scale, self._gw, self._unit
        out._set(cutoff, cut, terms)
        return out

    @classmethod
    def one(cls, lattice, w, cutoff):
        return cls(lattice, w, cutoff, {(0,) * lattice.rank: 1})

    @property
    def coeffs(self):
        """{alpha: coefficient}, sorted by alpha: Fraction coordinates, and
        Fraction coefficients for the rational ones."""
        if self._coeffs is None:
            s = self._scale
            self._coeffs = {
                tuple(Fraction(x, s) for x in a): Fraction(c) if isinstance(c, int) else c
                for a, (c, _) in sorted(self._terms.items(), key=itemgetter(0))}
        return self._coeffs

    def coefficient(self, alpha):
        """The coefficient of q^alpha; 0 for an alpha off the dual grid."""
        alpha = tuple(map(exact_rational, alpha))
        if len(alpha) == len(self._gw) and any(self._scale % x.denominator for x in alpha):
            return Fraction(0)
        c = self._terms.get(_on_grid(alpha, self._scale, self._gw)[0], (0,))[0]
        return Fraction(c) if isinstance(c, int) else c

    def _check_compatible(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise ValueError("exponent lattices differ")
        if self.w != other.w:
            raise ValueError("grading points differ")

    def _common_cutoff(self, other):
        return ((self.cutoff, self._cut) if self.cutoff <= other.cutoff
                else (other.cutoff, other._cut))

    def __mul__(self, other):
        if not isinstance(other, LatticeQSeries):
            if not isinstance(other, CycScalar):
                other = exact_rational(other)
            terms = {a: (_as_int(c * other), g) for a, (c, g) in self._terms.items()}
            return self._derive(self.cutoff, self._cut,
                                {a: t for a, t in terms.items() if t[0] != 0})
        self._check_compatible(other)
        cutoff, cut = self._common_cutoff(other)
        right = sorted(((g, a, c) for a, (c, g) in other._terms.items()),
                       key=itemgetter(0))
        out = {}
        for a1, (c1, g1) in self._terms.items():
            room = cut - g1
            for g2, a2, c2 in right:
                if g2 > room:
                    break
                a = tuple(map(add, a1, a2))
                prev = out.get(a)
                if prev is None:
                    out[a] = (c1 * c2, g1 + g2)
                else:
                    out[a] = (prev[0] + c1 * c2, prev[1])
        return self._derive(cutoff, cut,
                            {a: t for a, t in out.items() if t[0] != 0})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other):
        if not isinstance(other, LatticeQSeries):
            raise TypeError(f"cannot add {type(other).__name__} to LatticeQSeries")
        self._check_compatible(other)
        cutoff, cut = self._common_cutoff(other)
        out = {a: t for a, t in self._terms.items() if t[1] <= cut}
        for a, (c, g) in other._terms.items():
            if g <= cut:
                prev = out.get(a)
                out[a] = (c, g) if prev is None else (prev[0] + c, g)
        return self._derive(cutoff, cut,
                            {a: t for a, t in out.items() if t[0] != 0})

    def __sub__(self, other):
        return self + (other * (-1))

    def __eq__(self, other):
        if not isinstance(other, LatticeQSeries):
            return NotImplemented
        return (self.lattice == other.lattice and self.w == other.w
                and self.cutoff == other.cutoff
                and {a: c for a, (c, _) in self._terms.items()}
                == {a: c for a, (c, _) in other._terms.items()})

    def truncate(self, cutoff):
        cutoff = exact_rational(cutoff)
        if cutoff > self.cutoff:
            raise ValueError("cannot raise the cutoff by truncation")
        cut = floor(cutoff * self._unit)
        return self._derive(cutoff, cut, {a: t for a, t in self._terms.items()
                                          if t[1] <= cut})

    def __repr__(self):
        n = len(self._terms)
        return f"LatticeQSeries({n} terms, cutoff={self.cutoff})"


def _binomial(e, k):
    """Binomial coefficient C(e, k) for integer e (possibly negative), k >= 0,
    as an int; C(e, k) = (-1)^k C(k - e - 1, k) for e < 0."""
    if e >= 0:
        return comb(e, k)
    return (-1) ** k * comb(k - e - 1, k)


def lattice_binomial(lattice, w, cutoff, alpha, zeta, e):
    """The expansion of (1 - zeta * q_alpha)^e truncated at the grading cutoff.

    Negative e expands by the generalized binomial (geometric) series; the
    grading of alpha must be positive.  The terms are the multiples k * alpha
    along the ray of alpha, built on the series' integer grid.
    """
    series = LatticeQSeries(lattice, w, cutoff, {})
    if not isinstance(zeta, CycScalar):
        zeta = exact_rational(zeta)
    e = exact_int(e)
    a, g = _on_grid(alpha, series._scale, series._gw)
    if g <= 0:
        raise ValueError("alpha must have positive grading")
    terms = {}
    k = 0
    zeta_pow = 1
    while k * g <= series._cut:
        coeff = _as_int(_binomial(e, k) * (-1) ** k * zeta_pow)
        if coeff != 0:
            terms[tuple(k * x for x in a)] = (coeff, k * g)
        if e >= 0 and k == e:
            break
        k += 1
        zeta_pow = zeta_pow * zeta
    return series._derive(series.cutoff, series._cut, terms)
