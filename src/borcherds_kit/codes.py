"""Extended Golay codes as glue codes for rank-24 unimodular lattices.

Both codes are generated from the quadratic-residue generator polynomials of
their cyclic [23, 12] / [11, 6] parents and extended by an overall parity
digit.  The polynomial divisibility is asserted at import time, so a
transcription error cannot survive.
"""


def _divides_x_n_minus_1(divisor, n, modulus):
    """True when divisor (low degree first) divides x^n - 1 over Z/modulus."""
    rem = [0] * (n + 1)
    rem[0] = (-1) % modulus
    rem[n] = 1
    deg_d = len(divisor) - 1
    inv_lead = pow(divisor[-1], -1, modulus)
    for i in range(n, deg_d - 1, -1):
        c = rem[i] % modulus
        if c:
            f = (c * inv_lead) % modulus
            for j, dj in enumerate(divisor):
                rem[i - deg_d + j] = (rem[i - deg_d + j] - f * dj) % modulus
    return all(x % modulus == 0 for x in rem)


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
