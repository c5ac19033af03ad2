"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A CycScalar is a rational linear combination of powers of a primitive M-th
root of unity, kept reduced modulo the M-th cyclotomic polynomial, so
equality is decidable coefficientwise.  The one constructor reduces; the
results of + - *, `inverse` and negation are stored already reduced.
Mixed-conductor arithmetic works over the least common conductor.  Square
roots of positive integers are represented exactly through quadratic Gauss
sums, which keeps the whole scalar tower inside one cyclotomic field: for an
odd prime p the sum sum_a zeta_p^(a^2) is one CycScalar built from the count
of each a^2 mod p, reduced once, as `weil.milgram_sum` builds its sum.  One long
division by a monic polynomial (`_monic_divmod`) builds the cyclotomic
polynomials, at most 128 of them cached, and reduces modulo them, on the
integers over the common denominator of the coefficients.  The inverse is
the product of the other Galois conjugates of x over its norm, a rational,
so it takes only products.  Numbers are read by `linalg.exact_int` and
`exact_rational` (README, Conventions).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Number

from .linalg import _power, exact_int, exact_rational


# the library code touches about 60 conductors in a pass of the test suite and
# fewer in a benchmark pass; an evicted polynomial is only recomputed
@lru_cache(maxsize=128)
def cyclotomic_polynomial(m):
    """Coefficients (low degree first) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _monic_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(poly)


def _monic_divmod(num, den):
    """(quotient, remainder) of num by a monic den, coefficients low degree first.

    Over Z both stay integral, so the remainder reduces to the one over Z/p.
    """
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(rem) - 1 - deg, -1, -1):
        c = rem[i + deg]
        if c:
            quot[i] = c
            for j in range(deg):
                rem[i + j] -= c * den[j]
    return quot, rem[:deg]


def _numerators(coeffs):
    """(den, [(exponent, integer numerator)]): {exponent: Fraction} over its
    common denominator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in coeffs.items()]


def _reduce_dense(dense, den, m):
    """dense / den, integers indexed by exponents mod m, reduced modulo the
    cyclotomic polynomial and divided once: {exponent: Fraction}."""
    _, rem = _monic_divmod(dense, cyclotomic_polynomial(m))
    return {e: Fraction(c, den) for e, c in enumerate(rem) if c}


class CycScalar:
    """An element of Q(zeta_M), reduced to the power basis of degree < phi(M)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        """Reduce modulo zeta_M^M = 1 and Phi_M, on integers over one denominator."""
        m = self.conductor = exact_int(conductor)
        if m < 1:
            raise ValueError("conductor must be positive")
        den, terms = _numerators({exact_int(e): exact_rational(c) for e, c in coeffs.items()})
        dense = [0] * m
        for e, c in terms:
            dense[e % m] += c
        self.coeffs = _reduce_dense(dense, den, m)

    @classmethod
    def _reduced(cls, conductor, coeffs):
        """An arithmetic result: coefficients already reduced, zeros dropped."""
        out = object.__new__(cls)
        out.conductor = conductor
        out.coeffs = {e: c for e, c in coeffs.items() if c}
        return out

    @classmethod
    def from_rational(cls, value):
        return cls(1, {0: value})

    def _pair(self, other):
        """self and other over the least common conductor."""
        if not isinstance(other, CycScalar):
            other = CycScalar.from_rational(other)
        m = lcm(self.conductor, other.conductor)

        def over_m(x):
            scale = m // x.conductor
            return x if scale == 1 else CycScalar(m, {e * scale: c for e, c in x.coeffs.items()})
        return over_m(self), over_m(other)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycScalar._reduced(a.conductor, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CycScalar._reduced(self.conductor, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycScalar):
            if not isinstance(other, (Number, str)):
                return NotImplemented  # a LatticeQSeries' __rmul__ scales its coefficients
            other = exact_rational(other)
            return CycScalar._reduced(self.conductor,
                                      {e: c * other for e, c in self.coeffs.items()})
        # the term pairs multiply integer numerators over the product of the
        # common denominators; exponents below phi(M) sum to less than 2M
        a, b = self._pair(other)
        m = a.conductor
        den_a, terms_a = _numerators(a.coeffs)
        den_b, terms_b = _numerators(b.coeffs)
        dense = [0] * (2 * m)
        for e1, c1 in terms_a:
            for e2, c2 in terms_b:
                dense[e1 + e2] += c1 * c2
        return CycScalar._reduced(m, _reduce_dense([x + y for x, y in zip(dense, dense[m:])],
                                                   den_a * den_b, m))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        """Inverse in Q(zeta_M): the product y of the other Galois conjugates
        sigma_a(x) (zeta -> zeta^a, a != 1 a unit mod M) over the norm x y,
        a nonzero rational for a nonzero x."""
        if not self.coeffs:
            raise ZeroDivisionError("zero has no inverse")
        m = self.conductor
        others = CycScalar(m, {0: 1})
        for a in range(2, m):
            if gcd(a, m) == 1:
                others = others * CycScalar(m, {e * a: c for e, c in self.coeffs.items()})
        return others * (1 / (self * others).try_rational())

    def __truediv__(self, other):
        if not isinstance(other, CycScalar):
            return self * (1 / exact_rational(other))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycScalar.from_rational(other) / self

    def __pow__(self, n):
        return _power(self, n, CycScalar.from_rational(1))

    def try_rational(self):
        """The value as a Fraction when it is rational, else None."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        return None

    def __eq__(self, other):
        """Equal values over the common conductor (README, Conventions)."""
        if isinstance(other, (Number, str)):
            return self.try_rational() == exact_rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.conductor}^{e}")
            else:
                parts.append(f"{c}*z{self.conductor}^{e}")
        return " + ".join(parts)


def e(exponent):
    """The exact root of unity e(exponent) = exp(2 pi i exponent), for a
    rational exponent."""
    exponent = exact_rational(exponent)
    m = exponent.denominator
    return CycScalar(m, {exponent.numerator % m: Fraction(1)})


def sqrt_positive_int(n):
    """sqrt(n) for a positive integer, exactly, as a CycScalar.

    Odd prime factors contribute quadratic Gauss sums: sqrt(p) equals
    sum_a e(a^2/p) for p = 1 mod 4 and e(-1/4) * sum_a e(a^2/p) for
    p = 3 mod 4; sqrt(2) = e(1/8) + e(-1/8).
    """
    n = exact_int(n)
    if n <= 0:
        raise ValueError("need a positive integer")
    result = CycScalar.from_rational(1)
    rational = 1
    for p, k in _factor(n).items():
        rational *= p ** (k // 2)
        if k % 2:
            result = result * _sqrt_prime(p)
    return result * rational


def _sqrt_prime(p):
    if p == 2:
        return e(Fraction(1, 8)) + e(Fraction(-1, 8))
    gauss = CycScalar(p, Counter(a * a % p for a in range(p)))
    return gauss if p % 4 == 1 else e(Fraction(-1, 4)) * gauss


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
