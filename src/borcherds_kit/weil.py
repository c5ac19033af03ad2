"""The Weil representation on the group algebra of a discriminant form.

The standard-generator matrices act on C[D] by

    rho(T) phi_mu = e(Q(mu)) phi_mu
    rho(S) phi_mu = e(-sig8/8)/sqrt(|D|) * sum_nu e(-[mu, nu]) phi_nu

and are stored as integer exponents of zeta_N = e(1/N), N the level of D:

    rho_T = diag(zeta_N^t_mu),   t_mu = N Q(mu) mod N,
    rho_S = c * Z,  Z = (zeta_N^z_mu_nu),   z_mu_nu = -N [mu, nu] mod N,

with the one scalar c = e(-sig8/8)/sqrt(|D|).  N and the exponents come from
the discriminant form's integer generator Gram (`DiscriminantForm.level`,
`q_exponent`, `pairing_row`); no rational lift is evaluated here.  The exact cyclotomic matrices
`rho_t` and `rho_s` are derived from the exponents on first access.

The convention is pinned by two self-verifying identities rather than by
external reference: the Milgram sum sum_mu e(Q(mu)) = sqrt(|D|) e(sig8/8),
checked at construction, and the braid relation (rho_S rho_T)^3 = rho_S^2.
Because rho_S = c Z with c != 0, the braid relation holds exactly when

    e(-sig8/8) (Z T)^3 = sqrt(|D|) Z^2

entry by entry, where T = diag(zeta_N^t_mu).  `braid_holds` computes every
entry of (Z T)^3 and Z^2 as integer counts over Z/N (T is diagonal, so a
product step only adds exponents), reads each distinct count vector once as
the CycScalar sum_r a_r zeta_N^r, and decides each distinct entry pair
(x, y) as the CycScalar identity e(-sig8/8) x == sqrt(|D|) y.  All Q(zeta)
arithmetic is CycScalar's.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import mul

from .cyclotomic import CycScalar, e, sqrt_positive_int


class WeilRepData:
    """The Weil representation attached to (D, sig8), as exponents of zeta_N.

    `level` is N, `t` the tuple of t_mu and `z` the matrix of z_mu_nu, both
    indexed by `disc.cosets()` order.
    """

    def __init__(self, disc, sig8, level, t, z):
        self.disc = disc
        self.sig8 = sig8 % 8
        self.level = level
        self.t = tuple(t)
        self.z = tuple(tuple(row) for row in z)

    @cached_property
    def rho_t(self):
        n = len(self.t)
        rho = [[CycScalar.from_rational(0)] * n for _ in range(n)]
        for i, ti in enumerate(self.t):
            rho[i][i] = e(Fraction(ti, self.level))
        return rho

    @cached_property
    def rho_s(self):
        # 1 / sqrt|D| = sqrt|D| / |D|, which needs no inverse in Q(zeta)
        n = self.disc.order
        front = e(Fraction(-self.sig8, 8)) * sqrt_positive_int(n) * Fraction(1, n)
        return [[front * e(Fraction(x, self.level)) for x in row] for row in self.z]

    def __repr__(self):
        return f"WeilRepData(|D|={self.disc.order}, sig8={self.sig8})"


def milgram_sum(disc):
    """The Gauss sum sum_mu e(Q(mu)) = sum_mu zeta_N^t_mu of the discriminant form."""
    return CycScalar(disc.level, Counter(map(disc.q_exponent, disc.cosets())))


def build_weil_rep(disc, sig8):
    """Weil representation of a discriminant form and signature mod 8.

    The exponents are read off the form's integer generator Gram: t_mu is
    `disc.q_exponent(mu)` and z_mu_nu = -(pairing row of mu) . nu mod N.
    Raises when the Milgram identity fails for the supplied signature, which
    catches any mismatch between the form and sig8.
    """
    sig8 = sig8 % 8
    if milgram_sum(disc) != sqrt_positive_int(disc.order) * e(Fraction(sig8, 8)):
        raise ValueError("signature is inconsistent with the discriminant form "
                         "(Milgram check failed)")
    level = disc.level
    cosets = list(disc.cosets())
    t = [disc.q_exponent(mu) for mu in cosets]
    rows = [disc.pairing_row(mu) for mu in cosets]
    z = [[-sum(map(mul, row, nu)) % level for nu in cosets] for row in rows]
    return WeilRepData(disc, sig8, level, t, z)


def conjugate_rep(rep):
    """Complex conjugation (zeta -> zeta^{-1}): negate the exponents and sig8."""
    n = rep.level
    return WeilRepData(rep.disc, -rep.sig8, n, [(-x) % n for x in rep.t],
                       [[(-x) % n for x in row] for row in rep.z])


# An entry of a product of exponent matrices is a count vector (a_0, ..., a_{N-1})
# over Z/N, standing for sum_r a_r zeta_N^r.  It is packed into one integer
# sum_r a_r 2^(r w), so multiplying two entries is one integer product followed
# by folding the fields r >= N onto r - N.  The width w, the bit length of
# |D|^3, keeps every field of the at most four-fold products here below 2^w:
# an entry of a product of k matrices of roots of unity has counts summing to
# |D|^(k-1).

def _pack_matrix(exponents, width):
    return [[1 << (x * width) for x in row] for row in exponents]


def _packed_mat_mul(a, b, level, width):
    shift = level * width
    mask = (1 << shift) - 1
    cols = list(zip(*b))
    out = []
    for row in a:
        new = []
        for col in cols:
            acc = sum(map(mul, row, col))
            new.append((acc & mask) + (acc >> shift))
        out.append(new)
    return out


def _entry_reader(level, width):
    """The reader of packed entries: packed -> the CycScalar
    sum_r a_r zeta_N^r, built once per distinct packed int."""
    mask = (1 << width) - 1
    values = {}

    def value(packed):
        if packed not in values:
            values[packed] = CycScalar(level, {r: (packed >> (r * width)) & mask
                                               for r in range(level)})
        return values[packed]
    return value


def _s_products(rep):
    """Z^2 (packed) and the field width it was packed with."""
    width = (rep.disc.order ** 3).bit_length()
    zz = _pack_matrix(rep.z, width)
    return _packed_mat_mul(zz, zz, rep.level, width), width


def braid_holds(rep):
    """(rho_S rho_T)^3 == rho_S^2, exactly, over every entry.

    Entries are compared as pairs (x, y) of a (Z T)^3 entry and a Z^2 entry;
    each distinct pair is decided once, as e(-sig8/8) x == sqrt(|D|) y.
    """
    n = rep.level
    z2, width = _s_products(rep)
    zt = _pack_matrix([[(x + tj) % n for x, tj in zip(row, rep.t)] for row in rep.z],
                      width)
    zt3 = _packed_mat_mul(_packed_mat_mul(zt, zt, n, width), zt, n, width)
    value = _entry_reader(n, width)
    turn = e(Fraction(-rep.sig8, 8))
    sqrt_d = sqrt_positive_int(rep.disc.order)
    decided = {}
    for row3, row2 in zip(zt3, z2):
        for x, y in zip(row3, row2):
            agree = decided.get((x, y))
            if agree is None:
                agree = decided[x, y] = turn * value(x) == sqrt_d * value(y)
            if not agree:
                return False
    return True


def s_fourth_power_scalar(rep):
    """rho_S^4 as a scalar (it must be e(-sig8/2) times the identity), else None.

    rho_S^4 = c^4 Z^4 with c^4 = e(-sig8/2)/|D|^2.
    """
    n = rep.level
    z2, width = _s_products(rep)
    z4 = _packed_mat_mul(z2, z2, n, width)
    value = _entry_reader(n, width)
    diagonal = value(z4[0][0])
    for i, row in enumerate(z4):
        for j, entry in enumerate(row):
            if not value(entry) == (diagonal if i == j else 0):
                return None
    return diagonal * e(Fraction(-rep.sig8, 2)) / rep.disc.order ** 2

