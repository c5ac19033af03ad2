"""The classical two-variable product identity, recovered from the cusp machinery.

Take the signature (2,2) lattice U + U and the weight-0 input with principal
part q^{-1}, zero constant term, and the j-function coefficients as its tail.
The cusp data of an isotropic vector identifies the exponent lattice with a
hyperbolic plane; the product expansion over a Weyl chamber then reproduces

    j(p) - j(q) = (p^{-1} - q^{-1}) prod_{m,n >= 1} (1 - p^m q^n)^{c(mn)}

where j is computed independently as E6^2 / Delta + 1728.  Every coefficient match
below is exact integer arithmetic.
"""

from fractions import Fraction

from borcherds_kit import chamber_of, cusp_data, j_series, product_expand, reduce_f0
from borcherds_kit.io import load_form, load_lattice

lat = load_lattice("u-plus-u")
form, _ = load_form("knz-input")
print(f"input: weight {form.weight}, c(-1) = {form.coefficient(-1, ())}, "
      f"c(0) = {form.coefficient(0, ())}, c(1) = {form.coefficient(1, ())}")

data = cusp_data(lat, (1, 0, 0, 0))
print(f"cusp data: N = {data.n_value}, quotient lattice Gram {data.v0.gram}")

f0 = reduce_f0(form, data)
chamber = chamber_of((2, -1), f0, data)
print(f"walls near the chamber point (2,-1): {sorted(chamber.wall_signs)}")

pe = product_expand(form, data, chamber, (0, -1), 8)
print(f"constant A = {pe.constant}, output weight = {pe.weight_out}, "
      f"Weyl exponent = {pe.weyl_exponent}")

# dictionary: p = q_(0,1), q = q_(-1,0); the Weyl prefactor is p^{-1}
shifted = pe.shifted_coefficients()


def monomial(key):
    a, b = key
    parts = []
    if b:
        parts.append(f"p^{b}" if b != 1 else "p")
    if a:
        parts.append(f"q^{-a}" if a != -1 else "q")
    return " ".join(parts) or "1"


j = j_series(10)
oracle = {}
for n in range(-1, 11):
    c = Fraction(1) if n == -1 else (Fraction(0) if n == 0 else j.coefficient(n))
    if c:
        oracle[(Fraction(0), Fraction(n))] = c
        oracle[(Fraction(-n), Fraction(0))] = -c

print()
print("expanded product vs the independent j(p) - j(q) oracle:")
mismatches = 0
for key in sorted(shifted):
    got = shifted[key]
    want = oracle.get(key, Fraction(0))
    marker = "ok" if got == want else "MISMATCH"
    if got != want:
        mismatches += 1
    if got or want:
        print(f"  {monomial(key):>8} : {str(got):>15}  ({marker})")
print(f"mismatches: {mismatches}")
print()
print("note the zero coefficients at mixed monomials like p q: the factor")
print("(1 - q_(1,1)) times the tail factors cancels them exactly, which is")
print("the whole content of the product identity.")
