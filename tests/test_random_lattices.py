"""Seeded random lattices U+U+K through every stage, end to end.

K is even and definite (either sign) of rank 1 to 3 with |det K| <= 60, so
|D| stays small enough for the Weil checks.  Each seed draws its lattices
with stdlib `random`; a seed that ever fails is kept as a named regression
case, never re-seeded away.  Checked on each lattice L:

- D(L): |D| = |det L|, and `coset_of_dual` reads mu back off rep(mu) + lam
  for a random lam in L, and raises on a vector off the dual lattice;
- Milgram's sum sqrt|D| e(sig/8) and the braid relation at
  `disc.signature_mod8`;
- the N = 1 cusp at ell = e1 - Q(x) f1 + x, x random in U+K: |det V0| =
  |det L|, Q0(lam) = Q(mu) on every `reduction` entry, and a second random
  lift of mu into ell-perp gives the same V0 coset and root of unity;
- x x^-1 = 1 on random CycScalars of each Weil level met.
"""

import random
from fractions import Fraction

import pytest

from borcherds_kit.cyclotomic import CycScalar, e, sqrt_positive_int
from borcherds_kit.lattice import GramLattice, cusp_data, direct_sum, discriminant_form
from borcherds_kit.linalg import solve_rational, transpose
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
        levels.add(rep.level)
    for m in sorted(levels):
        for _ in range(2):
            x = CycScalar(m, {rng.randrange(m): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(rng.randint(1, 5))})
            if x != 0:
                assert x * x.inverse() == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_cusp_with_n_one(seed):
    rng, lattices = random_lattices(seed)
    for lat in lattices:
        x = (0, 0) + random_vector(rng, lat.rank - 2)
        ell = tuple(a + b for a, b in zip((1, -lat.q(x)) + (0,) * (lat.rank - 2), x))
        data = cusp_data(lat, ell)
        assert data.n_value == 1
        assert abs(data.v0.det) == abs(lat.det)
        assert len(data.reduction) == data.disc_v.order
        basis = transpose([data.ell, *data.lift_rows])
        for mu, (lam, root) in data.reduction.items():
            assert data.disc_v0.q(lam) == data.disc_v.q(mu)
            # a second lift: another representative, moved into ell-perp
            y = [a + b for a, b in zip(data.disc_v.rep(mu), random_vector(rng, lat.rank))]
            c = lat.bilinear(y, ell) / data.n_value
            lift = [a - c * b for a, b in zip(y, data.k0)]
            assert lat.bilinear(lift, ell) == 0
            assert data.disc_v0.coset_of_dual(solve_rational(basis, lift)[1:]) == lam
            assert lat.bilinear(lift, data.k) / data.n_value % 1 == root
