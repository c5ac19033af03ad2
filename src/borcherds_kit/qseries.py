"""Exact truncated q-series arithmetic.

FracQSeries holds a series with exponents in (1/L)*Z and exact rational
coefficients, known strictly below its precision cutoff.  LatticeQSeries
holds a truncated multivariate series over the dual of a Lorentzian lattice,
graded by pairing against a fixed interior point of the light cone.

Every operation computes the tightest sound precision for its result;
consumers must check `.prec` rather than assume.
"""

from fractions import Fraction
from math import ceil, lcm
from operator import mul


class FracQSeries:
    """Truncated series sum_e c_e q^e with e in (1/L)Z, c_e rational, e < prec."""

    __slots__ = ("denominator", "prec", "coeffs")

    def __init__(self, coeffs, prec, denominator=None):
        self.prec = Fraction(prec)
        cleaned = {}
        dens = set()
        for e, c in coeffs.items():
            e = Fraction(e)
            c = Fraction(c)
            if c == 0 or e >= self.prec:
                continue
            cleaned[e] = cleaned.get(e, Fraction(0)) + c
            dens.add(e.denominator)
        self.coeffs = {e: c for e, c in cleaned.items() if c != 0}
        if denominator is None:
            denominator = lcm(*dens) if dens else 1
        else:
            for d in dens:
                if denominator % d != 0:
                    raise ValueError("exponent denominator exceeds declared L")
        self.denominator = denominator

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
        e = Fraction(e)
        if e >= self.prec:
            raise ValueError(f"coefficient of q^{e} not known below precision {self.prec}")
        return self.coeffs.get(e, Fraction(0))

    def truncate(self, prec):
        prec = Fraction(prec)
        if prec > self.prec:
            raise ValueError("cannot raise precision by truncation")
        return FracQSeries({e: c for e, c in self.coeffs.items() if e < prec}, prec,
                           self.denominator)

    def __eq__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.prec, frozenset(self.coeffs.items())))

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e < prec:
                out[e] = out.get(e, Fraction(0)) + c
        return FracQSeries(out, prec, lcm(self.denominator, other.denominator))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return FracQSeries({e: -c for e, c in self.coeffs.items()}, self.prec,
                           self.denominator)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracQSeries({e: c * other for e, c in self.coeffs.items()},
                               self.prec, self.denominator)
        other = self._coerce(other)
        prec = min(self.prec + other.m_min, other.prec + self.m_min)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FracQSeries(out, prec, lcm(self.denominator, other.denominator))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return FracQSeries.one(self.prec)
        result = None
        base = self
        e = n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def shift(self, e):
        """Multiply by q^e."""
        e = Fraction(e)
        return FracQSeries({k + e: c for k, c in self.coeffs.items()}, self.prec + e)

    def inverse(self):
        """Series b with self * b = 1 up to the sound precision.

        Requires a nonzero leading coefficient.  The result has leading
        exponent -m_min and precision prec - 2*m_min.  Writing self =
        a0 q^m0 (1 + sum_k u_k q^(k/L)), the coefficients of 1/(1 + ...) on
        the exponent grid (1/L)Z follow the reciprocal recurrence b_0 = 1,
        b_t = -sum_{0<k<=t} u_k b_{t-k} (Knuth, TAOCP Vol. 2, 4.7).
        """
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert the zero series")
        m0 = self.m_min
        a0 = self.coeffs[m0]
        grid = self.denominator
        span = self.prec - m0  # the normalized tail is known below span
        u = sorted((int((e - m0) * grid), c / a0)
                   for e, c in self.coeffs.items() if e != m0)
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

    def _coerce(self, other):
        if isinstance(other, FracQSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return FracQSeries({Fraction(0): Fraction(other)}, self.prec)
        raise TypeError(f"cannot combine FracQSeries with {type(other).__name__}")

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
    for d in range(1, int(n ** 0.5) + 1):
        if n % d == 0:
            total += d ** k
            if d * d != n:
                total += (n // d) ** k
    return total


def eisenstein(k, b):
    """Normalized Eisenstein series E4 or E6 with terms through q^b."""
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
    """The discriminant cusp form q * prod (1-q^n)^24 with terms through q^b."""
    if b < 1:
        raise ValueError("need b >= 1")
    # prod (1-q^n) through q^(b-1) by Euler's pentagonal number theorem
    pent = {0: 1}
    m = 1
    while m * (3 * m - 1) // 2 < b:
        pent[m * (3 * m - 1) // 2] = pent[m * (3 * m + 1) // 2] = (-1) ** m
        m += 1
    return (FracQSeries(pent, b) ** 24).shift(1)


def j_series(b):
    """The modular j-function E4^3 / Delta with terms through q^b."""
    e4 = eisenstein(4, b + 2)
    delta = delta_series(b + 3)
    j = (e4 * e4 * e4) * delta.inverse()
    return j.truncate(b + 1)


class LatticeQSeries:
    """Truncated series over the dual of a Lorentzian exponent lattice.

    Exponents are coordinate tuples in the lattice's basis.  Terms are graded
    by the pairing [alpha, w] against a fixed interior point w of the light
    cone (Q(w) < 0); every stored exponent has grading in (0, cutoff] except
    the constant term.  The grading point is part of the value: two series
    combine only when their lattices, w and cutoff agree.  Gradings are dot
    products with G w, which is computed once per series.
    """

    __slots__ = ("lattice", "w", "cutoff", "coeffs", "_gw")

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
            if _is_zero_coeff(c):
                continue
            g = self.grading(alpha)
            if any(alpha):
                if g <= 0:
                    raise ValueError("exponent with nonpositive grading")
                if g > self.cutoff:
                    continue
            out[alpha] = c
        self.coeffs = out

    @classmethod
    def one(cls, lattice, w, cutoff):
        zero = tuple([Fraction(0)] * lattice.rank)
        return cls(lattice, w, cutoff, {zero: Fraction(1)})

    def grading(self, alpha):
        return sum(map(mul, alpha, self._gw))

    def coefficient(self, alpha):
        alpha = tuple(Fraction(x) for x in alpha)
        return self.coeffs.get(alpha, Fraction(0))

    def _check_compatible(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise ValueError("exponent lattices differ")
        if self.w != other.w:
            raise ValueError("grading points differ")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LatticeQSeries(self.lattice, self.w, self.cutoff,
                                  {a: c * other for a, c in self.coeffs.items()})
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        right = [(a2, c2, other.grading(a2)) for a2, c2 in other.coeffs.items()]
        out = {}
        for a1, c1 in self.coeffs.items():
            g1 = self.grading(a1)
            for a2, c2, g2 in right:
                if g1 + g2 > cutoff:
                    continue
                a = tuple(x + y for x, y in zip(a1, a2))
                prod = c1 * c2
                if a in out:
                    out[a] = out[a] + prod
                else:
                    out[a] = prod
        return LatticeQSeries(self.lattice, self.w, cutoff, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other):
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return LatticeQSeries(self.lattice, self.w, cutoff, out)

    def __sub__(self, other):
        return self + (other * (-1))

    def __eq__(self, other):
        if not isinstance(other, LatticeQSeries):
            return NotImplemented
        return (self.lattice == other.lattice and self.w == other.w
                and self.cutoff == other.cutoff and self.coeffs == other.coeffs)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        if cutoff > self.cutoff:
            raise ValueError("cannot raise the cutoff by truncation")
        return LatticeQSeries(self.lattice, self.w, cutoff, self.coeffs)

    def __repr__(self):
        n = len(self.coeffs)
        return f"LatticeQSeries({n} terms, cutoff={self.cutoff})"


def _is_zero_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c == 0
    return getattr(c, "is_zero", lambda: False)()


def _binomial(e, k):
    """Binomial coefficient C(e, k) for integer e (possibly negative), k >= 0."""
    num = 1
    for i in range(k):
        num *= e - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return Fraction(num, den)


def lattice_binomial(lattice, w, cutoff, alpha, zeta, e):
    """The expansion of (1 - zeta * q_alpha)^e truncated at the grading cutoff.

    Negative e expands by the generalized binomial (geometric) series; the
    grading of alpha must be positive.
    """
    alpha = tuple(Fraction(x) for x in alpha)
    g = lattice.bilinear(alpha, w)
    if g <= 0:
        raise ValueError("alpha must have positive grading")
    out = {}
    k = 0
    zeta_pow = 1
    while k * g <= cutoff:
        coeff = _binomial(e, k) * (-1) ** k * zeta_pow
        if not _is_zero_coeff(coeff):
            out[tuple(k * x for x in alpha)] = coeff
        if e >= 0 and k == e:
            break
        k += 1
        zeta_pow = zeta_pow * zeta
    return LatticeQSeries(lattice, w, cutoff, out)
