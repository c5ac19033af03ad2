"""The Weil representation on the group algebra of a discriminant form.

The standard-generator matrices act on C[D] by

    rho(T) phi_mu = e(Q(mu)) phi_mu
    rho(S) phi_mu = e(-sig8/8)/sqrt(|D|) * sum_nu e(-[mu, nu]) phi_nu

and are stored as integer exponents of zeta_N = e(1/N), N = `disc.level`, the
level of D:

    rho_T = diag(zeta_N^t_mu),   t_mu = N Q(mu) mod N,
    rho_S = c * Z,  Z = (zeta_N^z_mu_nu),   z_mu_nu = -N [mu, nu] mod N,

with the one scalar c = e(-sig8/8)/sqrt(|D|).  N and the exponents come from
the discriminant form's integer generator Gram (`DiscriminantForm.level`,
`q_exponent`, `pairing_row`); no rational lift is evaluated here.
`WeilRepData(disc, sig8, t, z)` holds the exponents and no N of its own;
every reader takes N from `disc.level`, so no other N can be paired with
them.  The exact cyclotomic matrices `rho_t` and `rho_s` are derived from
the exponents on first access.

The convention is pinned by two self-verifying identities rather than by
external reference: the Milgram sum sum_mu e(Q(mu)) = sqrt(|D|) e(sig8/8),
checked at construction, and the braid relation S T S = T^-1 S T^-1, which
gives (rho_S rho_T)^3 = rho_S^2 and, rho_S being invertible, follows from it.
Because rho_S = c Z with c != 0, it holds exactly when

    e(-sig8/8) (Z T Z)_mu_nu = sqrt(|D|) zeta_N^(z_mu_nu - t_mu - t_nu)

entry by entry, where T = diag(zeta_N^t_mu).  `braid_holds` computes the
entries of Z T Z as integer counts over Z/N (T is diagonal, so a product
step only adds exponents), one row at a time, reads each distinct count
vector once as the CycScalar sum_r a_r zeta_N^r, and decides each distinct
(entry, exponent) pair once, stopping at the first row that fails.  All
Q(zeta) arithmetic is CycScalar's.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import mul

from .cyclotomic import CycScalar, e, sqrt_positive_int
from .linalg import exact_int


class WeilRepData:
    """The Weil representation attached to (D, sig8), as exponents of zeta_N.

    N is `disc.level`, stored nowhere else; `t` is the tuple of t_mu and `z`
    the matrix of z_mu_nu, both indexed by `disc.cosets()` order.
    """

    def __init__(self, disc, sig8, t, z):
        self.disc = disc
        self.sig8 = sig8 % 8
        self.t = tuple(t)
        self.z = tuple(tuple(row) for row in z)

    @cached_property
    def rho_t(self):
        n = len(self.t)
        rho = [[CycScalar.from_rational(0)] * n for _ in range(n)]
        for i, ti in enumerate(self.t):
            rho[i][i] = e(Fraction(ti, self.disc.level))
        return rho

    @cached_property
    def rho_s(self):
        # 1 / sqrt|D| = sqrt|D| / |D|, which needs no inverse in Q(zeta)
        n = self.disc.order
        front = e(Fraction(-self.sig8, 8)) * sqrt_positive_int(n) * Fraction(1, n)
        return [[front * e(Fraction(x, self.disc.level)) for x in row] for row in self.z]

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
    sig8 = exact_int(sig8) % 8
    if milgram_sum(disc) != sqrt_positive_int(disc.order) * e(Fraction(sig8, 8)):
        raise ValueError("signature is inconsistent with the discriminant form "
                         "(Milgram check failed)")
    level = disc.level
    cosets = list(disc.cosets())
    t = [disc.q_exponent(mu) for mu in cosets]
    rows = [disc.pairing_row(mu) for mu in cosets]
    z = [[-sum(map(mul, row, nu)) % level for nu in cosets] for row in rows]
    return WeilRepData(disc, sig8, t, z)


def conjugate_rep(rep):
    """Complex conjugation (zeta -> zeta^{-1}): negate the exponents and sig8."""
    n = rep.disc.level
    return WeilRepData(rep.disc, -rep.sig8, [(-x) % n for x in rep.t],
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


def _packed_row_mul(row, cols, level, width):
    """The packed row vector row * B, given the columns of B."""
    shift = level * width
    mask = (1 << shift) - 1
    out = []
    for col in cols:
        acc = sum(map(mul, row, col))
        out.append((acc & mask) + (acc >> shift))
    return out


def _packed_mat_mul(a, b, level, width):
    cols = list(zip(*b))
    return [_packed_row_mul(row, cols, level, width) for row in a]


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


def _packed_z(rep):
    """Z (packed) and the field width it was packed with."""
    width = (rep.disc.order ** 3).bit_length()
    return _pack_matrix(rep.z, width), width


def braid_holds(rep):
    """rho_S rho_T rho_S == rho_T^-1 rho_S rho_T^-1, exactly, over every entry.

    Entry (i, j) is e(-sig8/8) (Z T Z)_ij == sqrt(|D|) zeta_N^(z_ij - t_i - t_j),
    decided once per distinct (entry, exponent) pair.  Row i of Z T Z is one
    packed row product (e_i Z T) Z, so a wrong signature or exponent stops at
    its first failing row.
    """
    n = rep.disc.level
    z, width = _packed_z(rep)
    zt = _pack_matrix([[(x + tj) % n for x, tj in zip(row, rep.t)] for row in rep.z],
                      width)
    z_cols = list(zip(*z))
    value = _entry_reader(n, width)
    turn = e(Fraction(-rep.sig8, 8))
    sqrt_d = sqrt_positive_int(rep.disc.order)
    decided = {}
    for row_zt, row_z, ti in zip(zt, rep.z, rep.t):
        for x, zij, tj in zip(_packed_row_mul(row_zt, z_cols, n, width), row_z, rep.t):
            pair = x, (zij - ti - tj) % n
            if pair not in decided:
                decided[pair] = turn * value(x) == sqrt_d * e(Fraction(pair[1], n))
            if not decided[pair]:
                return False
    return True


def s_fourth_power_scalar(rep):
    """rho_S^4 as a scalar (it must be e(-sig8/2) times the identity), else None.

    rho_S^4 = c^4 Z^4 with c^4 = e(-sig8/2)/|D|^2.
    """
    n = rep.disc.level
    z, width = _packed_z(rep)
    z2 = _packed_mat_mul(z, z, n, width)
    z4 = _packed_mat_mul(z2, z2, n, width)
    value = _entry_reader(n, width)
    diagonal = value(z4[0][0])
    for i, row in enumerate(z4):
        for j, entry in enumerate(row):
            if not value(entry) == (diagonal if i == j else 0):
                return None
    return diagonal * e(Fraction(-rep.sig8, 2)) / rep.disc.order ** 2

