"""Borcherds product expansions at a zero-dimensional cusp.

The pipeline: reduce the input form to the quotient lattice, enumerate the
hyperplane arrangement cut out by its principal part, fix a Weyl chamber by
an interior point, and expand the product

    BP = prod over lattice-dual exponents x with [x, w] > 0
         prod over cosets mu reducing to the class of x
         (1 - zeta_mu q_x)^(c(-Q(x), mu))

truncated by the grading [., w].  The Weyl-vector prefactor and the cusp
constants are carried alongside, never multiplied in.

Walls and product factors are both filtered from one walk of the cosets of
V0 under the positive-definite majorant 2Q(x) + [x, w]^2 / |Q(w)|
(`_cone_points`).  The walk streams its leaves and each is filtered as it
arrives, so memory is O(depth + kept), not O(leaves walked).  After the
walk everything stays in integers until a point is kept: [x, w] is an
integer on the grading scale of the product's series (x scaled onto the
dual grid, paired with an integer multiple of G w), Q(x) is read off the
walk's exact integer majorant value, and both are compared against
integer targets.  Wall signs come from the same integer pairing; the
series multiply on integer exponents and gradings.  Points, radii, Weyl
vectors and cutoffs are read by `linalg.exact_rational` (README, Conventions).
"""

from fractions import Fraction
from math import floor, lcm
from operator import mul

from .cyclotomic import CycScalar, e
from .forms import PrecisionError, WHForm
from .lattice import _coordinates, _qf_leaves, _qf_point, discriminant_form
from .linalg import exact_rational, rational_gcd
from .qseries import LatticeQSeries, _grading_scale, _on_grid, lattice_binomial


def reduce_f0(form, data):
    """The quotient-lattice form: c0(m, lam) = sum over mu ~ lam of c(m, mu)."""
    reduction = data.reduction
    out = {}
    for (m, mu), c in form.coefficients.items():
        if mu not in reduction:
            continue
        key = (m, reduction[mu][0])
        out[key] = out.get(key, Fraction(0)) + c
    return WHForm(discriminant_form(data.v0), form.weight, out, form.prec)


def _cone_points(data, w, bounds, qs=None, top=None):
    """Yield (lam, x, Q(x), p) for the cosets lam of V0 in `bounds`.

    Each coset is walked once, in sorted order, over the x in lam + V0 with
    2Q(x) + [x, w]^2 / |Q(w)| <= bounds[lam], a positive-definite majorant
    because Q(w) < 0.  Kept are the x with Q(x) in qs[lam] (when qs is
    given) and 0 < p <= top (when top is given), for the integer
    p = unit * [x, w] of `_grading_scale`.  Both filters run on integers at
    every leaf: p is (T x) . (s G w) summed over the nonzero entries of x,
    and the walk's exact value used / zden gives 2Q(x) = k / den for the
    integer k = used * den / zden - p^2 * den / (unit^2 |Q(w)|).  x
    (integral coordinates as ints) and the Fraction Q(x) are built only for
    the points kept.
    """
    v0 = data.v0
    disc0 = discriminant_form(v0)
    s, gwi, unit = _grading_scale(v0, w)
    nqw = -v0.q(w)
    gw = v0.image(w)
    n = v0.rank
    a = [[v0.gram[i][j] + gw[i] * gw[j] / nqw for j in range(n)] for i in range(n)]
    pair_den = unit * unit * nqw.numerator
    for lam in sorted(bounds):
        rep = disc0.rep(lam)
        walked = _qf_leaves(a, rep, bounds[lam])
        if walked is None:
            continue
        base, cols, zden, leaves = walked
        p0 = int(s * sum(map(mul, rep, gwi)))
        h = [s * sum(map(mul, col, gwi)) for col in cols]
        den = lcm(zden, pair_den)
        f_used = den // zden
        f_pair = nqw.denominator * (den // pair_den)
        targets = None if qs is None else {
            int(2 * m * den): m for m in qs[lam] if (2 * m * den).denominator == 1}
        for entries, used in leaves:
            p = p0
            for j, xj in entries:
                p += xj * h[j]
            if top is not None and not 0 < p <= top:
                continue
            k = used * f_used - p * p * f_pair
            if targets is None:
                qx = Fraction(k, 2 * den)
            else:
                qx = targets.get(k)
                if qx is None:
                    continue
            yield lam, _qf_point(base, cols, entries), qx, p


def enumerate_walls(f0, data, w, radius):
    """Wall vectors of the arrangement attached to f0's principal part.

    Returns all x in lam + V0 with Q(x) = m > 0, c0(-m, lam) != 0 and
    [x, w]^2 <= radius^2 * m * |Q(w)|, sorted lexicographically.  On that
    set the majorant 2Q(x) + [x, w]^2 / |Q(w)| is at most (2 + radius^2) m,
    so one walk of each coset under it finds every wall, with Q(x) taken
    from the walk's exact value.  A negative radius raises ValueError.
    """
    w = tuple(map(exact_rational, w))
    radius = exact_rational(radius)
    if radius < 0:
        raise ValueError(f"wall radius must be >= 0, got {radius}")
    r2 = radius ** 2
    by_coset = {}
    for (m, lam), c in f0.principal_part().items():
        if c != 0:
            by_coset.setdefault(lam, []).append(-m)
    bounds = {lam: (2 + r2) * max(ms) for lam, ms in by_coset.items()}
    unit = _grading_scale(data.v0, w)[2]
    nqw = -data.v0.q(w)
    # [x, w]^2 <= r2 Q(x) |Q(w)|, with p = unit * [x, w]
    lim = {m: floor(r2 * m * nqw * unit * unit) for ms in by_coset.values() for m in ms}
    walls = sorted(x for lam, x, qx, p in _cone_points(data, w, bounds, qs=by_coset)
                   if p * p <= lim[qx])
    return [tuple(Fraction(c) for c in x) for x in walls]


def _pairings(xs, v0, w):
    """unit * [x, w] for each x, on integers: x scaled onto the dual grid,
    paired with the integer multiple of G w of `_grading_scale`."""
    s, gw, _ = _grading_scale(v0, w)
    return [_on_grid(x, s, gw)[1] for x in xs]


class WeylChamber:
    """An interior point off every enumerated wall, plus the wall signs."""

    def __init__(self, w, wall_signs):
        self.w = tuple(map(exact_rational, w))
        self.wall_signs = dict(wall_signs)

    def __repr__(self):
        return f"WeylChamber(w={self.w}, {len(self.wall_signs)} walls)"


def chamber_of(w, f0, data):
    """The chamber data of an interior point: the sign of [x, w] per wall,
    over the walls `enumerate_walls(f0, data, w, 2)` finds.

    Raises when w lies on one of the enumerated walls; the caller must
    perturb and retry.
    """
    w = tuple(map(exact_rational, w))
    walls = enumerate_walls(f0, data, w, 2)
    signs = {}
    for x, p in zip(walls, _pairings(walls, data.v0, w)):
        if p == 0:
            raise ValueError(f"chamber point lies on the wall through {x}")
        signs[x] = 1 if p > 0 else -1
    return WeylChamber(w, signs)


def constant_a(form, data):
    """The cusp constant prod over nonzero x mod N of (1 - e(x/N))^c(0, x ell/N).

    Equals 1 whenever N = 1 (the empty product), in particular for maximal
    lattices.  The coset of x ell/N is x times that of ell/N, read once.
    """
    n_val = data.n_value
    result = CycScalar.from_rational(1)
    step = discriminant_form(data.lattice).coset_of_dual(
        tuple(Fraction(li, n_val) for li in data.ell))
    for x in range(1, n_val):
        expo = form.coefficient(0, tuple(x * a for a in step))
        if expo.denominator != 1:
            raise ValueError("constant-A exponents must be integers")
        base = CycScalar.from_rational(1) - e(Fraction(x, n_val))
        result = result * base ** int(expo)
    return result


class ProductExpansion:
    """A truncated Borcherds product: series body, Weyl exponent, constants.

    body is graded by [., w] with constant term 1; the prefactor q_rho and
    the constant A are stored, not multiplied in, since rho may have
    nonpositive grading.  weight_out is Borcherds' weight c(0, 0)/2 of the
    product (Invent. Math. 132 (1998), Thm 13.3), a Fraction.
    """

    def __init__(self, body, weyl_exponent, constant, weight_out, skipped=0):
        self.body = body
        self.weyl_exponent = tuple(map(exact_rational,
                                       _coordinates(weyl_exponent, body.lattice.rank)))
        self.constant = constant
        self.weight_out = weight_out
        self.skipped = skipped

    def shifted_coefficients(self):
        """Map (rho + alpha) -> coefficient, the expansion of q_rho * BP."""
        out = {}
        for alpha, c in self.body.coeffs.items():
            key = tuple(a + b for a, b in zip(self.weyl_exponent, alpha))
            out[key] = c
        return out

    def truncate(self, cutoff):
        return ProductExpansion(self.body.truncate(cutoff), self.weyl_exponent,
                                self.constant, self.weight_out, self.skipped)

    def __repr__(self):
        return (f"ProductExpansion({len(self.body.coeffs)} terms, "
                f"cutoff={self.body.cutoff}, weight={self.weight_out})")


def product_expand(form, data, chamber, weyl_vector, cutoff):
    """The truncated product expansion of an integral form at the cusp.

    `cutoff` is measured in units of the smallest positive grading value of
    the exponent lattice: terms with [alpha, w] <= cutoff * g_min are kept.
    Over V0' the gradings [G^-1 y, w] = y . w are exactly the multiples of
    g_min = rational_gcd(w), so a cutoff below 1 keeps no factor and raises
    ValueError, as a nonpositive one does.  The Weyl vector must have rank V0
    coordinates and lie in V0' (its image G rho is integral), or ValueError.
    """
    if not form.is_integral():
        raise ValueError("product expansion requires an integral form")
    cutoff = exact_rational(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be positive and at least one grading unit, "
                         f"got {cutoff}")
    v0 = data.v0
    weyl_vector = tuple(map(exact_rational, weyl_vector))
    if any(g.denominator != 1 for g in v0.image(weyl_vector)):
        raise ValueError("Weyl vector must lie in the dual exponent lattice")
    w = chamber.w
    qw = v0.q(w)
    if qw >= 0:
        raise ValueError("chamber point must have Q(w) < 0")
    signs = chamber.wall_signs
    for sign, p in zip(signs.values(), _pairings(signs, v0, w)):
        if p == 0 or (1 if p > 0 else -1) != sign:
            raise ValueError("chamber data is inconsistent with its interior point")

    g_min = rational_gcd(w)
    cutoff_abs = cutoff * g_min
    body = LatticeQSeries.one(v0, w, cutoff_abs)
    if not form.coefficients:
        return ProductExpansion(body, weyl_vector, constant_a(form, data),
                                _weight_out(form))
    tail_needed = cutoff_abs * cutoff_abs / (4 * (-qw))
    if form.prec <= tail_needed:
        raise PrecisionError(
            f"form precision {form.prec} cannot cover tail exponents up to "
            f"{tail_needed} demanded by the grading cutoff")

    # cosets of D(V) grouped by their V0 reduction, with their root of unity
    by_lam = {}
    for mu, (lam, expo) in data.reduction.items():
        z = e(expo)
        zr = z.try_rational()
        by_lam.setdefault(lam, []).append((mu, zr if zr is not None else z))

    bound = 2 * form.max_pole_order() + cutoff_abs * cutoff_abs / (-qw)
    top = floor(cutoff_abs * _grading_scale(v0, w)[2])  # [x, w] <= cutoff_abs
    factors = []
    skipped = 0
    for lam, x, qx, _ in _cone_points(data, w, dict.fromkeys(by_lam, bound), top=top):
        if -qx >= form.prec:
            raise PrecisionError("enumerated exponent needs a coefficient "
                                 "beyond the form's precision")
        for mu, zeta in by_lam[lam]:
            c = form.coefficient(-qx, mu)
            if c == 0:
                skipped += 1
                continue
            if c.denominator != 1:
                raise ValueError("product exponents must be integers")
            factors.append((x, mu, zeta, int(c)))
    factors.sort(key=lambda f: (f[0], f[1]))
    for x, _, zeta, expo in factors:
        body = body * lattice_binomial(v0, w, cutoff_abs, x, zeta, expo)
    return ProductExpansion(body, weyl_vector, constant_a(form, data),
                            _weight_out(form), skipped)


def _weight_out(form):
    """The weight c(0, 0)/2 of the product of an integral form."""
    c00 = form.coefficient(0, form.disc.zero)
    if c00.denominator != 1:
        raise ValueError("c(0, 0) must be an integer")
    return c00 / 2
