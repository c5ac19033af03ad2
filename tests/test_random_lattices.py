"""Seeded random lattices U+U+K through every stage, end to end.

K is even and definite (either sign) of rank 1 to 3 with |det K| <= 60, so
|D| stays small enough for the Weil checks.  Each seed draws its lattices
with stdlib `random`; a seed that ever fails is kept as a named regression
case, never re-seeded away.  Checked on each lattice L:

- D(L): |D| = |det L|, and `coset_of_dual` reads mu back off rep(mu) + lam
  for a random lam in L, and raises on a vector off the dual lattice;
- Milgram's sum sqrt|D| e(sig/8) and the braid relation at
  `disc.signature_mod8`;
- the N = 1 cusp at ell = e1 - Q(x) f1 + x, x random in U+K, and, for each
  isotropic coset delta of D(K) of order N > 1 (up to +-), the cusp at
  ell = N (e1 - Q(kappa) f1 + kappa) for a random lift kappa in K' of
  delta, which is primitive with [ell, L] = NZ: |det V0| N^2 = |det L|,
  |D(L)|/N cosets lift into ell-perp, Q0(lam) = Q(mu) on every `reduction`
  entry, and a second random lift of mu into ell-perp gives the same V0
  coset and root of unity, and at N > 1 the constant A of a form equals
  the product over x of (1 - e(x/N))^c(0, x ell/N), each coset read afresh;
- x x^-1 = 1 on random CycScalars of each Weil level met.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from borcherds_kit.cyclotomic import CycScalar, e, sqrt_positive_int
from borcherds_kit.forms import WHForm
from borcherds_kit.lattice import GramLattice, cusp_data, direct_sum, discriminant_form
from borcherds_kit.linalg import solve_rational, transpose
from borcherds_kit.product import constant_a
from borcherds_kit.weil import braid_holds, build_weil_rep, milgram_sum

U = GramLattice([[0, 1], [1, 0]])
SEEDS = range(4)
LATTICES_PER_SEED = 8


def random_k(rng):
    """An even definite Gram of rank 1-3 with |det| <= 60, of a random sign."""
    while True:
        r = rng.randint(1, 3)
        gram = [[0] * r for _ in range(r)]
        for i in range(r):
            gram[i][i] = 2 * rng.randint(1, 4)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        try:
            k = GramLattice(gram)
        except ValueError:  # singular
            continue
        if k.is_positive_definite and abs(k.det) <= 60:
            sign = rng.choice((1, -1))
            return GramLattice([[sign * x for x in row] for row in gram])


def random_lattices(seed):
    rng = random.Random(seed)
    return rng, [direct_sum([U, U, random_k(rng)]) for _ in range(LATTICES_PER_SEED)]


def random_vector(rng, n, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


@pytest.mark.parametrize("seed", SEEDS)
def test_discriminant_form_reads_cosets_back(seed):
    rng, lattices = random_lattices(seed)
    for lat in lattices:
        disc = discriminant_form(lat)
        assert disc.order == abs(lat.det)
        cosets = list(disc.cosets())
        assert len(cosets) == disc.order
        for mu in rng.sample(cosets, min(len(cosets), 6)):
            y = [a + b for a, b in zip(disc.rep(mu), random_vector(rng, lat.rank))]
            assert disc.coset_of_dual(y) == mu
            # G e_0 = e_1 (the first U), so G(y + e_0/m) has 1/m in place 1
            y[0] += Fraction(1, rng.randint(2, 7))
            with pytest.raises(ValueError, match="not in the dual lattice"):
                disc.coset_of_dual(y)


@pytest.mark.parametrize("seed", SEEDS)
def test_weil_representation_and_its_field(seed):
    rng, lattices = random_lattices(seed)
    levels = set()
    for lat in lattices:
        disc = discriminant_form(lat)
        sig8 = disc.signature_mod8
        assert milgram_sum(disc) == sqrt_positive_int(disc.order) * e(Fraction(sig8, 8))
        rep = build_weil_rep(disc, sig8)
        assert braid_holds(rep)
        levels.add(disc.level)
    for m in sorted(levels):
        for _ in range(2):
            x = CycScalar(m, {rng.randrange(m): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(rng.randint(1, 5))})
            if x != 0:
                assert x * x.inverse() == 1


def check_cusp(rng, lat, ell, n):
    data = cusp_data(lat, ell)
    assert data.n_value == n
    assert abs(data.v0.det) * n * n == abs(lat.det)
    disc, disc0 = discriminant_form(lat), discriminant_form(data.v0)
    assert len(data.reduction) == disc.order // n
    basis = transpose([data.ell, *data.lift_rows])
    for mu, (lam, root) in data.reduction.items():
        assert disc0.q(lam) == disc.q(mu)
        # a second lift: another representative, moved into ell-perp
        y = [a + b for a, b in zip(disc.rep(mu), random_vector(rng, lat.rank))]
        c = lat.bilinear(y, ell) / n
        lift = [a - c * b for a, b in zip(y, data.k0)]
        assert lat.bilinear(lift, ell) == 0
        assert disc0.coset_of_dual(solve_rational(basis, lift)[1:]) == lam
        assert lat.bilinear(lift, data.k) / n % 1 == root
    return data


@pytest.mark.parametrize("seed", SEEDS)
def test_cusp_with_n_one(seed):
    rng, lattices = random_lattices(seed)
    for lat in lattices:
        x = (0, 0) + random_vector(rng, lat.rank - 2)
        ell = tuple(a + b for a, b in zip((1, -lat.q(x)) + (0,) * (lat.rank - 2), x))
        check_cusp(rng, lat, ell, 1)


def order(disc, delta):
    return lcm(*(f // gcd(a, f) for a, f in zip(delta, disc.invariant_factors)))


@pytest.mark.parametrize("seed", SEEDS)
def test_cusp_with_n_above_one(seed):
    rng, lattices = random_lattices(seed)
    cusps = 0
    for lat in lattices:
        k = GramLattice([row[4:] for row in lat.gram[4:]])
        disc_k = discriminant_form(k)
        for delta in disc_k.cosets():
            n = order(disc_k, delta)
            if n == 1 or disc_k.q(delta) != 0 or disc_k.neg(delta) < delta:
                continue
            kappa = [a + b for a, b in zip(disc_k.rep(delta), random_vector(rng, k.rank))]
            ell = (n, int(-n * k.q(kappa)), 0, 0, *(int(n * a) for a in kappa))
            data = check_cusp(rng, lat, ell, n)
            cusps += 1
            # constant A against the coset of x ell/N read afresh for each x
            disc = discriminant_form(lat)
            form = WHForm(disc, 0, {(0, mu): i for i, mu in enumerate(disc.cosets())
                                    if disc.q(mu) == 0}, 1)
            expected = CycScalar.from_rational(1)
            for x in range(1, n):
                mu = disc.coset_of_dual([Fraction(x * a, n) for a in ell])
                expected *= (1 - e(Fraction(x, n))) ** int(form.coefficient(0, mu))
            assert constant_a(form, data) == expected
    assert cusps
