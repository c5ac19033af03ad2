"""Chamber points of the `cusp-expand` workload.

Each point is an interior point of the light cone of V0 = E8 + U, the
quotient lattice at the standard cusp of E8 + U + U, with V0 coordinates
(8 E8 coordinates, then the 2 U coordinates).  They were built as follows:
the E8 part is the vector rho with G_E8 rho = (1, ..., 1); the U part is
(p/q, -r/s) with coprime denominators q and s; the sum is rescaled by lcm(q, s)
to a primitive integer vector.  Small integer points land on walls, which this
construction avoids.  Because every point is primitive and integral,
rational_gcd(w) = 1 and a product cutoff is an absolute bound on the grading
[alpha, w].

    w*  = 10 (rho + (37/5, -211/2))    2812 walls
    w2  = 15 (rho + (41/5, -197/3))    2132 walls
    w3  =  6 (rho + (31/2, -107/3))    3026 walls

Each point carries a pair of cutoffs whose expansions of E4^2/Delta have
about 90 and about 270 terms.  The term counts jump between cutoffs, so the
recorded counts are the exact ones; the wall and term counts were verified
with `chamber_of` and `product_expand` when the fixture was recorded, and the
benchmark checks them again on every run.
"""

CHAMBER_POINTS = (
    {"name": "w-star",
     "w": (840, 1100, 1350, 910, 460, 680, 570, 290, 74, -1055),
     "walls": 2812, "cutoffs": (8, 12), "terms": (95, 270)},
    {"name": "w2",
     "w": (1260, 1650, 2025, 1365, 690, 1020, 855, 435, 123, -985),
     "walls": 2132, "cutoffs": (12, 19), "terms": (94, 253)},
    {"name": "w3",
     "w": (504, 660, 810, 546, 276, 408, 342, 174, 93, -214),
     "walls": 3026, "cutoffs": (11, 15), "terms": (73, 287)},
)


def rotation(seed):
    """The fixture points in the order a run visits them.

    The seed selects the first point (seed 0, the default, selects w*); a
    run visits all three, so that the cost of a run does not depend on the
    seed even though the three chambers differ in size.
    """
    start = seed % len(CHAMBER_POINTS)
    return CHAMBER_POINTS[start:] + CHAMBER_POINTS[:start]
