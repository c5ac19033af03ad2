"""Regenerate the bundled lattice and form database under src/borcherds_kit/data.

Run from the repository root:  python3 tools/generate_data.py [OUTPUT_DIR]
With OUTPUT_DIR the files go there instead of the bundled data directory.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from borcherds_kit.codes import binary_golay_generators, ternary_golay_generators
from borcherds_kit.forms import WHForm
from borcherds_kit.lattice import (
    GramLattice,
    direct_sum,
    discriminant_form,
    glue_lattice,
)
from borcherds_kit.io import save_form, save_lattice, save_series
from borcherds_kit.qseries import FracQSeries, delta_series, eisenstein, j_series

OUT = Path(__file__).resolve().parent.parent / "src" / "borcherds_kit" / "data"

E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def main(out=OUT):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    u = GramLattice([[0, 1], [1, 0]], name="U")
    a1 = GramLattice([[2]], name="A1")
    a2 = GramLattice([[2, -1], [-1, 2]], name="A2")
    e8 = GramLattice(E8_GRAM, name="E8")
    uu = direct_sum([u, u], name="U+U")
    e8uu = direct_sum([e8, u, u], name="E8+U+U")

    save_lattice(out / "u.json", u)
    save_lattice(out / "a1.json", a1)
    save_lattice(out / "a2.json", a2)
    save_lattice(out / "e8.json", e8)
    save_lattice(out / "u-plus-u.json", uu)
    save_lattice(out / "e8-plus-2u.json", e8uu)

    bin_gens = [tuple((c,) for c in row) for row in binary_golay_generators()]
    n1 = glue_lattice([a1] * 24, bin_gens, name="Niemeier(A1^24)")
    save_lattice(out / "niemeier-a1.json", n1, glue_spec={
        "blocks": ["a1"] * 24,
        "code_generators": [[int(c) for c in row]
                            for row in binary_golay_generators()],
        "modulus": 2,
    })
    ter_gens = [tuple((c,) for c in row) for row in ternary_golay_generators()]
    n2 = glue_lattice([a2] * 12, ter_gens, name="Niemeier(A2^12)")
    save_lattice(out / "niemeier-a2.json", n2, glue_spec={
        "blocks": ["a2"] * 12,
        "code_generators": [[int(c) for c in row]
                            for row in ternary_golay_generators()],
        "modulus": 3,
    })

    disc_uu = discriminant_form(uu)
    disc_e8uu = discriminant_form(e8uu)

    inv_delta = delta_series(12).inverse()  # known below q^11
    one_over_delta = WHForm.from_scalar_series(disc_uu, 0, inv_delta)
    save_form(out / "one-over-delta.json", one_over_delta, "u-plus-u")
    save_form(out / "one-over-delta-x24.json", one_over_delta.scale(24), "u-plus-u")

    j = j_series(20)
    knz_coeffs = {Fraction(-1): Fraction(1)}
    for n in range(1, 21):
        knz_coeffs[Fraction(n)] = j.coefficient(n)
    knz = WHForm.from_scalar_series(disc_uu, 0, FracQSeries(knz_coeffs, 21))
    save_form(out / "knz-input.json", knz, "u-plus-u")

    e4sq = eisenstein(4, 12) ** 2
    series = e4sq / delta_series(13)
    f = WHForm.from_scalar_series(disc_e8uu, -4, series.truncate(11))
    save_form(out / "e4sq-over-delta.json", f, "e8-plus-2u")
    save_form(out / "e4sq-over-delta-x24.json", f.scale(24), "e8-plus-2u")

    save_series(out / "e6.json", eisenstein(6, 10))

    print(f"wrote {len(list(out.glob('*.json')))} files to {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else OUT)
