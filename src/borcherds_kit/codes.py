"""Extended Golay codes as glue codes for rank-24 unimodular lattices.

Both codes are generated from the quadratic-residue generator polynomials of
their cyclic [23, 12] / [11, 6] parents and extended by an overall parity
digit.  Both generator polynomials are monic; their divisibility of x^n - 1
is asserted at import time with the one monic long division of `cyclotomic`,
so a transcription error cannot survive.
"""

from .cyclotomic import _monic_divmod


def _divides_x_n_minus_1(divisor, n, modulus):
    """True when the monic divisor (low degree first) divides x^n - 1 over Z/modulus."""
    return not any(x % modulus for x in _monic_divmod([-1] + [0] * (n - 1) + [1], divisor)[1])


# generator polynomial of the binary [23, 12, 7] Golay code (a factor of
# x^23 - 1 over GF(2)), low degree first
BINARY_GOLAY_POLY = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)

# generator polynomial of the ternary [11, 6, 5] Golay code over GF(3)
TERNARY_GOLAY_POLY = (2, 0, 1, 2, 1, 1)

if not _divides_x_n_minus_1(BINARY_GOLAY_POLY, 23, 2):
    raise AssertionError("binary Golay generator polynomial must divide x^23 - 1")
if not _divides_x_n_minus_1(TERNARY_GOLAY_POLY, 11, 3):
    raise AssertionError("ternary Golay generator polynomial must divide x^11 - 1")


def _cyclic_generator_rows(poly, length, dim):
    rows = []
    for i in range(dim):
        row = [0] * length
        for j, c in enumerate(poly):
            row[(i + j) % length] = c
        rows.append(row)
    return rows


def binary_golay_generators():
    """Generator rows of the extended binary Golay code [24, 12, 8] over Z/2."""
    rows = _cyclic_generator_rows(BINARY_GOLAY_POLY, 23, 12)
    out = []
    for row in rows:
        parity = sum(row) % 2
        out.append(tuple(row) + (parity,))
    return out


def ternary_golay_generators():
    """Generator rows of the extended ternary Golay code [12, 6, 6] over Z/3."""
    rows = _cyclic_generator_rows(TERNARY_GOLAY_POLY, 11, 6)
    out = []
    for row in rows:
        parity = (-sum(row)) % 3
        out.append(tuple(row) + (parity,))
    return out
