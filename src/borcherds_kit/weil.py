"""The Weil representation on the group algebra of a discriminant form.

The standard-generator matrices act on C[D] by

    rho(T) phi_mu = e(Q(mu)) phi_mu
    rho(S) phi_mu = e(-sig8/8)/sqrt(|D|) * sum_nu e(-[mu, nu]) phi_nu

with all scalars exact cyclotomic numbers.  The convention is pinned by two
self-verifying identities rather than by external reference: the Milgram sum
sum_mu e(Q(mu)) = sqrt(|D|) e(sig8/8), checked at construction, and the braid
relation (rho_S rho_T)^3 = rho_S^2, checked in the test suite.
"""

from fractions import Fraction

from .cyclotomic import CycScalar, e, sqrt_positive_int
from .linalg import mat_mul


class WeilRepData:
    """Exact S/T matrices of the Weil representation attached to (D, sig8)."""

    def __init__(self, disc, sig8, rho_t, rho_s):
        self.disc = disc
        self.sig8 = sig8 % 8
        self.rho_t = rho_t
        self.rho_s = rho_s

    @property
    def cosets(self):
        return list(self.disc.cosets())

    def dim(self):
        return self.disc.order

    def __repr__(self):
        return f"WeilRepData(|D|={self.disc.order}, sig8={self.sig8})"


def milgram_sum(disc):
    """The Gauss sum sum_mu e(Q(mu)) of the discriminant form."""
    total = CycScalar.from_rational(0)
    for c in disc.cosets():
        total = total + e(disc.q(c))
    return total


def build_weil_rep(disc, sig8):
    """Weil representation matrices for a discriminant form and signature mod 8.

    Raises when the Milgram identity fails for the supplied signature, which
    catches any mismatch between the form and sig8.
    """
    sig8 = sig8 % 8
    sqrt_d = sqrt_positive_int(disc.order)
    if milgram_sum(disc) != sqrt_d * e(Fraction(sig8, 8)):
        raise ValueError("signature is inconsistent with the discriminant form "
                         "(Milgram check failed)")
    cosets = list(disc.cosets())
    rho_t = [[CycScalar.from_rational(0)] * len(cosets) for _ in cosets]
    for i, c in enumerate(cosets):
        rho_t[i][i] = e(disc.q(c))
    front = e(Fraction(-sig8, 8)) / sqrt_d
    rho_s = [[front * e(-disc.pairing(c1, c2)) for c2 in cosets] for c1 in cosets]
    return WeilRepData(disc, sig8, rho_t, rho_s)


def conjugate_rep(rep):
    """Entrywise complex conjugation (zeta -> zeta^{-1}) of both matrices."""
    conj = lambda m: [[x.conjugate() for x in row] for row in m]
    return WeilRepData(rep.disc, (-rep.sig8) % 8, conj(rep.rho_t), conj(rep.rho_s))


def braid_holds(rep):
    """(rho_S rho_T)^3 == rho_S^2, exactly."""
    st = mat_mul(rep.rho_s, rep.rho_t)
    return mat_mul(mat_mul(st, st), st) == mat_mul(rep.rho_s, rep.rho_s)


def s_fourth_power_scalar(rep):
    """rho_S^4 as a scalar (it must be e(-sig8/2) times the identity)."""
    s2 = mat_mul(rep.rho_s, rep.rho_s)
    s4 = mat_mul(s2, s2)
    n = len(s4)
    scalar = s4[0][0]
    for i in range(n):
        for j in range(n):
            expected = scalar if i == j else CycScalar.from_rational(0)
            if not s4[i][j] == expected:
                return None
    return scalar


def check_form_support(form):
    """True when every nonzero coefficient c(m, mu) has m = Q(mu) mod 1."""
    disc = form.disc
    for (m, mu), c in form.coefficients.items():
        if c == 0:
            continue
        if (Fraction(m) - disc.q(mu)).denominator != 1:
            return False
    return True


def is_integral(form):
    """True when all stored coefficients are integers."""
    return all(Fraction(c).denominator == 1 for c in form.coefficients.values())
