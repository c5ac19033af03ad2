"""Vector-valued weakly holomorphic forms as exact coefficient data.

A WHForm stores finitely many principal-part coefficients (m < 0) and a
truncated nonnegative part, one exact rational per (exponent, coset) pair.
The constructor enforces the form's invariants, so every WHForm, including
the results of `scale`, `+` and `divide_by_24delta`, has a positive
precision and satisfies the support condition m = Q(mu) mod 1.  Numbers
are read by the package's one rule, `linalg.exact_rational` (README,
Conventions).
`is_integral()` tells whether the relation and product code may use it.
No analytic transformation property is checked here.
"""

import math
from fractions import Fraction

from .linalg import exact_rational
from .qseries import FracQSeries, delta_series


class PrecisionError(ValueError):
    """An operation needed coefficients beyond the stored precision."""


class WHForm:
    """Coefficients c(m, mu) of a weakly holomorphic form, known for m < prec."""

    def __init__(self, disc, weight, coefficients, prec):
        self.disc = disc
        self.weight = exact_rational(weight)
        self.prec = exact_rational(prec)
        if self.prec <= 0:
            raise ValueError("precision must be positive so that c(0, 0) is known")
        coeffs = {}
        for (m, mu), c in coefficients.items():
            m = exact_rational(m)
            mu = disc.normalize(mu)
            c = exact_rational(c)
            if c == 0 or m >= self.prec:
                continue
            if (m - disc.q(mu)).denominator != 1:
                raise ValueError(f"coefficient at ({m}, {mu}) violates the "
                                 "support condition m = Q(mu) mod 1")
            coeffs[(m, mu)] = coeffs.get((m, mu), Fraction(0)) + c
        self.coefficients = {k: v for k, v in coeffs.items() if v != 0}

    @classmethod
    def from_scalar_series(cls, disc, weight, series):
        """A form on a trivial discriminant group from a single q-series."""
        if disc.order != 1:
            raise ValueError("scalar construction needs a trivial discriminant group")
        coeffs = {(m, ()): c for m, c in series.coeffs.items()}
        return cls(disc, weight, coeffs, series.prec)

    def coefficient(self, m, mu):
        m = exact_rational(m)
        if m >= self.prec:
            raise ValueError(f"coefficient at exponent {m} is beyond precision "
                             f"{self.prec}")
        return self.coefficients.get((m, self.disc.normalize(mu)), Fraction(0))

    def principal_part(self):
        return {k: v for k, v in self.coefficients.items() if k[0] < 0}

    def max_pole_order(self):
        pp = self.principal_part()
        return max((-m for (m, _) in pp), default=Fraction(0))

    def coset_series(self, mu):
        mu = self.disc.normalize(mu)
        coeffs = {m: c for (m, mu2), c in self.coefficients.items() if mu2 == mu}
        return FracQSeries(coeffs, self.prec)

    def scale(self, factor):
        return WHForm(self.disc, self.weight,
                      {k: v * factor for k, v in self.coefficients.items()}, self.prec)

    def __add__(self, other):
        if self.disc is not other.disc and self.disc.lattice != other.disc.lattice:
            raise ValueError("forms live on different discriminant groups")
        if self.weight != other.weight:
            raise ValueError(f"forms have different weights {self.weight} "
                             f"and {other.weight}")
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, Fraction(0)) + v
        return WHForm(self.disc, self.weight, out, min(self.prec, other.prec))

    def __eq__(self, other):
        if not isinstance(other, WHForm):
            return NotImplemented
        return (self.prec == other.prec and self.weight == other.weight
                and self.coefficients == other.coefficients)

    def is_integral(self):
        """True when every stored coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coefficients.values())

    def is_zero(self):
        return not self.coefficients

    def __repr__(self):
        pp = sorted(self.principal_part())
        return (f"WHForm(weight={self.weight}, principal part at "
                f"{[(str(m), mu) for m, mu in pp]}, prec={self.prec})")


def divide_by_24delta(form):
    """form / (24 Delta), coset by coset, to precision prec - 1.

    Pole orders grow by one; coefficients may pick up denominators dividing
    24 (rescale the input by 24 first when integrality is needed downstream).
    Raises ValueError for an input precision <= 1, which leaves no known
    coefficient of the quotient.
    """
    b = form.prec
    if b <= 1:
        raise ValueError(f"dividing by 24 Delta needs a form of precision > 1, "
                         f"got precision {b}")
    delta = delta_series(math.ceil(b) + 2) * 24
    out = {}
    for mu in form.disc.cosets():
        series = form.coset_series(mu)
        if not series.coeffs:
            continue
        quot = series / delta
        for m, c in quot.coeffs.items():
            if m < b - 1:
                out[(m, mu)] = c
    return WHForm(form.disc, form.weight - 12, out, b - 1)
