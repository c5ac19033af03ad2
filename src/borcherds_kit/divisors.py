"""Formal special-divisor bookkeeping in the rational Picard group.

DivisorExpr is a finite rational combination of symbols Z(m, mu) with m > 0
together with the tautological line-bundle symbol omega.  Every symbol enters
through one place, `DivisorExpr._add`, which reads m and the coefficient
with `linalg.exact_rational` and mu with `linalg.exact_int`, the package's
one rule (README, Conventions).  It then applies the constant-term
conventions as rewrite rules:

    Z(0, 0)      -> -omega        (omega^{-1} as a line bundle)
    Z(0, mu!=0)  -> 0
    Z(m<0, mu)   -> 0

Everything downstream (relations, the pullback convolution, the embedding
trick, the modularity pairing) is exact linear algebra over these symbols.
"""

import math
from fractions import Fraction

from .forms import PrecisionError, divide_by_24delta
from .lattice import coset_theta, theta_series
from .linalg import exact_int, exact_rational, row_reduce, solve_rational, transpose
from .qseries import delta_series

OMEGA = "omega"


def _symbol(key):
    """`key` read exactly: OMEGA, or (m, mu) with m a Fraction and mu ints."""
    if key == OMEGA:
        return key
    m, mu = key
    return exact_rational(m), tuple(map(exact_int, mu))


def _symbol_order(key):
    """Z(m, mu) by m, then mu, and omega last: for output and relation bases."""
    return (1,) if key == OMEGA else (0, *key)


class DivisorExpr:
    """A finite rational linear combination of Z(m, mu) symbols and omega.

    Symbols enter once and exactly, through `_add`; `lines` is the one text
    format, which `repr` and the CLI share."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            self._add(key, coeff)

    def _add(self, key, coeff):
        """Add coeff * key to `terms`: the only way a symbol enters them."""
        key, coeff = _symbol(key), exact_rational(coeff)
        if key != OMEGA:
            m, mu = key
            if m < 0 or (m == 0 and any(mu)):
                return
            if m == 0:
                key, coeff = OMEGA, -coeff
        total = self.terms.get(key, 0) + coeff
        if total:
            self.terms[key] = total
        else:
            self.terms.pop(key, None)

    @classmethod
    def z(cls, m, mu=(), coeff=1):
        out = cls()
        out._add((m, mu), coeff)
        return out

    @classmethod
    def omega(cls, coeff=1):
        return cls({OMEGA: coeff})

    def __add__(self, other):
        out = DivisorExpr(self.terms)
        for key, coeff in other.terms.items():
            out._add(key, coeff)
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        scalar = exact_rational(scalar)
        out = DivisorExpr()
        if scalar:
            out.terms = {k: v * scalar for k, v in self.terms.items()}
        return out

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __eq__(self, other):
        if not isinstance(other, DivisorExpr):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(_symbol(key), Fraction(0))

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda item: _symbol_order(item[0]))

    def lines(self):
        """One line per symbol in symbol order, `c * Z(m, [a,b])` or
        `c * omega`; the single line `0` when empty."""
        out = []
        for key, coeff in self.sorted_items():
            if key == OMEGA:
                out.append(f"{coeff} * omega")
            else:
                m, mu = key
                out.append(f"{coeff} * Z({m}, [{','.join(map(str, mu))}])")
        return out or ["0"]

    def __repr__(self):
        return " + ".join(self.lines())


def borcherds_relation(form):
    """The Picard-group relation attached to an integral form:

        sum over m > 0, mu of c(-m, mu) Z(m, mu)  minus  c(0, 0) omega,

    the combination asserted to vanish rationally.
    """
    if not form.is_integral():
        raise ValueError("relations require an integral form")
    out = DivisorExpr()
    for (m, mu), c in form.principal_part().items():
        out._add((-m, mu), c)
    out._add(OMEGA, -form.coefficient(0, form.disc.zero))
    return out


def pullback(m, mu, lam):
    """Pull a big-lattice divisor symbol back along V -> V + Lambda:

        Z(m, (mu1, mu2)) restricts to  sum over m1 + m2 = m of
        r_Lambda(m2, mu2) * Z(m1, mu1),

    with the m1 = 0 terms rewritten by the constant-term conventions.  mu is
    the coset pair (mu1, mu2) of D(V) + D(Lambda); mu1 is taken as given and
    mu2 is normalized in D(Lambda).  The inner sum is finite: m2 runs over
    values of Q on the coset mu2 of Lambda inside [0, m].
    """
    m = exact_rational(m)
    if m < 0:
        return DivisorExpr()
    mu1, mu2 = mu
    disc_l = lam.discriminant_form()
    mu2 = disc_l.normalize(mu2)
    if any(mu2):
        theta = coset_theta(lam, disc_l.rep(mu2), math.ceil(m))
    else:
        theta = theta_series(lam, math.ceil(m))
    out = DivisorExpr()
    for m2, count in sorted(theta.coeffs.items()):
        if m2 <= m:
            out._add((m - m2, mu1), count)
    return out


def pullback_expr(expr, lam):
    """Pull back a whole DivisorExpr; omega restricts to omega.

    Each coset mu of V in expr lifts to (mu, 0) with 0 the zero of D(Lambda).
    """
    zero = lam.discriminant_form().zero
    out = DivisorExpr()
    for key, coeff in expr.terms.items():
        if key == OMEGA:
            out._add(OMEGA, coeff)
        else:
            m, mu = key
            for pulled, count in pullback(m, (mu, zero), lam).terms.items():
                out._add(pulled, count * coeff)
    return out


class EmbeddingData:
    """The two rank-24 positive-definite unimodular partners of the trick.

    Their theta series differ by 24 Delta; the construction refuses to
    proceed when that identity fails at the working precision.
    """

    def __init__(self, lambda1, lambda2, precision=8):
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.precision = precision = exact_int(precision)
        self.theta1 = theta_series(lambda1, precision)
        self.theta2 = theta_series(lambda2, precision)
        delta = delta_series(precision)
        for n in range(precision + 1):
            lhs = self.theta2.coefficient(n) - self.theta1.coefficient(n)
            if lhs != 24 * delta.coefficient(n):
                raise ValueError("theta series of the pair do not differ by "
                                 "24 Delta; wrong lattices supplied")


def embedding_trick(form, embedding):
    """Derive the relation for `form` from the big-lattice relations.

    Computes g = form / (24 Delta), takes the relation of g on V + Lambda^i
    for both partners, pulls each back along the convolution, and returns the
    difference (partner 2 minus partner 1).  The result must equal
    borcherds_relation(form); the caller asserts that identity.

    `form` must be integral and pre-scaled so that g is integral too
    (multiplying by 24 always suffices).
    """
    if not form.is_integral():
        raise ValueError("embedding trick requires an integral form")
    g = divide_by_24delta(form)
    if not g.is_integral():
        raise ValueError("form / (24 Delta) is not integral; rescale the "
                         "input by 24 first")
    if g.max_pole_order() >= embedding.precision:
        raise PrecisionError(
            "theta precision does not cover the principal part of form/(24 Delta)")
    relation = borcherds_relation(g)
    pulled1 = pullback_expr(relation, embedding.lambda1)
    pulled2 = pullback_expr(relation, embedding.lambda2)
    return pulled2 - pulled1


def fourier_splitting_holds(form, embedding, through):
    """Check c(m, mu) = sum_k r2(k) g(m-k, mu) - sum_k r1(k) g(m-k, mu), with
    r1, r2 the coefficients of theta1, theta2, coefficientwise for all
    exponents m <= through, three ways: convolution sums, series products,
    and the original coefficients.
    """
    through = exact_rational(through)
    g = divide_by_24delta(form)
    pole = g.max_pole_order()
    if through >= g.prec or through + pole > embedding.precision:
        raise ValueError("not enough precision for the requested range")
    disc = form.disc
    for mu in disc.cosets():
        g_series = g.coset_series(mu)
        prod2 = embedding.theta2 * g_series
        prod1 = embedding.theta1 * g_series
        # exponents congruent to Q(mu) mod 1, from the deepest pole upward
        base = disc.q(mu)
        tmin = math.ceil(-pole - base)
        tmax = math.floor(through - base)
        for t in range(tmin, tmax + 1):
            m = base + t
            direct = form.coefficient(m, mu)
            conv = Fraction(0)
            k = 0
            while k <= m + pole:
                gm = g.coefficient(m - k, mu)
                if gm:
                    conv += (embedding.theta2.coefficient(k)
                             - embedding.theta1.coefficient(k)) * gm
                k += 1
            series_val = prod2.coefficient(m) - prod1.coefficient(m)
            if not (direct == conv == series_val):
                return False
    return True


def modularity_pairing(form, values):
    """The obstruction pairing sum over m >= 0, mu of c(-m, mu) * a(m, mu).

    `values` maps (m, mu) to rationals or DivisorExpr; it must cover every
    (m, mu) with c(-m, mu) != 0.  The result has the same kind as the values.
    """
    needed = []
    for (m, mu), c in form.coefficients.items():
        if m <= 0 and c != 0:
            needed.append((-m, mu, c))
    result = None
    for m, mu, c in sorted(needed):
        key = (m, mu)
        if key not in values:
            raise KeyError(f"pairing needs a value at (m={m}, mu={mu})")
        value = values[key]
        term = (value if isinstance(value, DivisorExpr) else exact_rational(value)) * c
        result = term if result is None else result + term
    if result is None:
        return Fraction(0)
    return result


def relation_ideal(forms):
    """Row-reduced basis of the span of the forms' relations.

    Returns (basis, contains) where basis is a list of DivisorExpr and
    contains(expr) decides membership in the span.
    """
    relations = [borcherds_relation(f) for f in forms]
    keys = sorted({k for r in relations for k in r.terms}, key=_symbol_order)
    rows = [[r.terms.get(k, Fraction(0)) for k in keys] for r in relations]
    reduced, pivots = row_reduce(rows, len(keys))
    basis_rows = reduced[:len(pivots)]
    basis = [DivisorExpr(dict(zip(keys, row))) for row in basis_rows]
    columns = transpose(basis_rows)

    def contains(expr):
        if any(k not in keys for k in expr.terms):
            return False
        vec = [expr.terms.get(k, Fraction(0)) for k in keys]
        return solve_rational(columns, vec) is not None

    return basis, contains
