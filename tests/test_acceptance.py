"""Acceptance suite: the exact identities the library must reproduce.

Each criterion prints one PASS/FAIL line (visible with pytest -s; pytest -v
shows the same verdicts as test outcomes).  Every assertion is exact; there
are no tolerances anywhere.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from borcherds_kit.cyclotomic import e, sqrt_positive_int
from borcherds_kit.divisors import (
    EmbeddingData,
    borcherds_relation,
    embedding_trick,
    fourier_splitting_holds,
    modularity_pairing,
)
from borcherds_kit.io import load_form, load_lattice
from borcherds_kit.lattice import (
    GramLattice,
    cusp_data,
    direct_sum,
    discriminant_form,
    is_maximal,
    overlattice_witness,
    representation_count,
    theta_series,
)
from borcherds_kit.product import chamber_of, product_expand, reduce_f0
from borcherds_kit.qseries import FracQSeries, delta_series, eisenstein, j_series
from borcherds_kit.weil import braid_holds, build_weil_rep, milgram_sum


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail}", file=sys.stderr)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def niemeier_pair():
    return load_lattice("niemeier-a1"), load_lattice("niemeier-a2")


@pytest.fixture(scope="module")
def embedding(niemeier_pair):
    n1, n2 = niemeier_pair
    return EmbeddingData(n1, n2, precision=8)


@pytest.fixture(scope="module")
def knz_expansion():
    lat = load_lattice("u-plus-u")
    form, _ = load_form("knz-input")
    data = cusp_data(lat, (1, 0, 0, 0))
    f0 = reduce_f0(form, data)
    chamber = chamber_of((2, -1), f0, data)
    start = time.monotonic()
    pe = product_expand(form, data, chamber, (0, -1), 12)
    elapsed = time.monotonic() - start
    return pe, data, elapsed


def test_criterion_1_theta_trick(niemeier_pair):
    n1, n2 = niemeier_pair
    start = time.monotonic()
    th1 = theta_series(n1, 8)
    th2 = theta_series(n2, 8)
    delta = delta_series(8)
    exact = all(th1.coefficient(n) - th2.coefficient(n) == -24 * delta.coefficient(n)
                for n in range(9))
    # direct Fincke-Pohst cross-check of the glue-code decomposition
    cross = (representation_count(n1, 1) == th1.coefficient(1) == 48
             and representation_count(n2, 1) == th2.coefficient(1) == 72
             and representation_count(n1, 2) == th1.coefficient(2)
             and representation_count(n2, 2) == th2.coefficient(2))
    elapsed = time.monotonic() - start
    report(1, exact and cross and elapsed < 60,
           f"theta(A1^24) - theta(A2^12) = -24*Delta through q^8, "
           f"enumeration cross-check at q^1 (48 vs 72) and q^2 "
           f"({elapsed:.1f}s)")


def test_criterion_2_knz_oracle(knz_expansion):
    pe, data, elapsed = knz_expansion
    v0 = data.v0
    w = (2, -1)
    # independent oracle: j from E6^2 / Delta + 1728, expanded as j(p) - j(q)
    # in the exponent coordinates p = q_(0,1), q = q_(-1,0)
    j = j_series(14)
    oracle = {}
    for n in range(-1, 15):
        c = Fraction(1) if n == -1 else (Fraction(0) if n == 0 else j.coefficient(n))
        if c:
            kp = (Fraction(0), Fraction(n))
            kq = (Fraction(-n), Fraction(0))
            oracle[kp] = oracle.get(kp, Fraction(0)) + c
            oracle[kq] = oracle.get(kq, Fraction(0)) - c
    oracle = {k: v for k, v in oracle.items() if v != 0}
    shifted = pe.shifted_coefficients()

    ok = pe.constant == 1
    for key, val in shifted.items():
        if val != oracle.get(key, 0):
            ok = False
            break
    # every oracle monomial of total grading <= 5 lies in the expanded window
    window = Fraction(12) + v0.bilinear(pe.weyl_exponent, w)
    for key, val in oracle.items():
        g = v0.bilinear(key, w)
        total = abs(key[0]) + abs(key[1])
        if total <= 5:
            if g > window or shifted.get(key, Fraction(0)) != val:
                ok = False
                break
    report(2, ok and elapsed < 30,
           f"product expansion at the U+U cusp reproduces j(p) - j(q), "
           f"all monomials of total degree <= 5, exact integers ({elapsed:.1f}s)")


def test_criterion_3_embedding_trick(embedding):
    start = time.monotonic()
    f1, _ = load_form("one-over-delta-x24")
    ok1 = embedding_trick(f1, embedding) == borcherds_relation(f1)
    f2, _ = load_form("e4sq-over-delta-x24")
    ok2 = embedding_trick(f2, embedding) == borcherds_relation(f2)
    elapsed = time.monotonic() - start
    report(3, ok1 and ok2 and elapsed < 120,
           f"embedding trick equals the direct relation for 24/Delta on U+U "
           f"and 24*E4^2/Delta on E8+U+U, exact rationals ({elapsed:.1f}s)")


def test_criterion_4_fourier_splitting(embedding):
    shipped = ["one-over-delta", "one-over-delta-x24", "knz-input",
               "e4sq-over-delta", "e4sq-over-delta-x24"]
    ok = True
    for name in shipped:
        form, _ = load_form(name)
        if not fourier_splitting_holds(form, embedding, 6):
            ok = False
            break
    report(4, ok, "theta2 * g - theta1 * g = f coefficientwise through q^6 "
                  "for every shipped form, three independent routes")


def test_criterion_5_modularity_pairing():
    start = time.monotonic()
    form, _ = load_form("e4sq-over-delta")
    e6 = eisenstein(6, 1)
    values = {(0, ()): e6.coefficient(0), (1, ()): e6.coefficient(1)}
    total = modularity_pairing(form, values)
    elapsed = time.monotonic() - start
    report(5, total == 0 and form.coefficient(0, ()) == 504 and elapsed < 1,
           f"pairing of E4^2/Delta against E6: 504*1 + 1*(-504) = {total} "
           f"({elapsed:.2f}s)")


def test_criterion_6_weil_representation(niemeier_pair):
    start = time.monotonic()
    n1, n2 = niemeier_pair
    u = GramLattice([[0, 1], [1, 0]], name="U")
    a1 = GramLattice([[2]], name="A1")
    a2 = GramLattice([[2, -1], [-1, 2]], name="A2")
    cases = [(u, 0), (a1, 1), (a2, 2), (direct_sum([a1, a2]), 3),
             (n1, 0), (n2, 0)]
    ok = True
    for lat, sig in cases:
        disc = discriminant_form(lat)
        if milgram_sum(disc) != sqrt_positive_int(disc.order) * e(Fraction(sig, 8)):
            ok = False
            break
        rep = build_weil_rep(disc, sig)
        if not braid_holds(rep):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(6, ok and elapsed < 10,
           f"braid relation and Milgram sum hold exactly for U, A1, A2, "
           f"A1+A2 and both rank-24 lattices ({elapsed:.1f}s)")


def test_criterion_7_maximality(niemeier_pair):
    n1, n2 = niemeier_pair
    u = GramLattice([[0, 1], [1, 0]])
    a1 = GramLattice([[2]])
    a2 = GramLattice([[2, -1], [-1, 2]])
    e8 = load_lattice("e8")
    ok = all(is_maximal(l) for l in (u, a1, a2, e8, n1, n2))
    g8 = GramLattice([[8]])
    witness = overlattice_witness(g8)
    ok = ok and not is_maximal(g8) and witness is not None
    if witness:
        coset, over = witness
        ok = ok and abs(over.det) < 8 and over.gram == ((2,),)
    report(7, ok, "maximality verdicts for U, A1, A2, E8, both rank-24 "
                  "lattices; [[8]] refuted with an explicit even overlattice")


def test_criterion_8_integrality(knz_expansion):
    pe, data, _ = knz_expansion
    ok = all(Fraction(c).denominator == 1 for c in pe.body.coeffs.values())
    # second expansion: the literal 1/Delta input (nonzero constant term)
    form, _ = load_form("one-over-delta")
    f0 = reduce_f0(form, data)
    chamber = chamber_of((2, -1), f0, data)
    pe2 = product_expand(form, data, chamber, (0, -1), 8)
    ok = ok and all(Fraction(c).denominator == 1 for c in pe2.body.coeffs.values())
    ok = ok and pe.body.coefficient(tuple([Fraction(0)] * 2)) == 1
    ok = ok and pe2.body.coefficient(tuple([Fraction(0)] * 2)) == 1
    report(8, ok, "every expanded product coefficient is an integer and the "
                  "constant term is 1 (both shipped inputs)")


def test_criterion_9_property_suites():
    rng = random.Random(2024)
    ok_axioms = True
    for _ in range(50):
        def rand_series():
            return FracQSeries({n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for n in range(4)}, 4)
        a, b, c = rand_series(), rand_series(), rand_series()
        if ((a * b) * c).coeffs != (a * (b * c)).coeffs:
            ok_axioms = False
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(lhs.prec, rhs.prec)
        if lhs.truncate(common).coeffs != rhs.truncate(common).coeffs:
            ok_axioms = False

    lat = load_lattice("u-plus-u")
    form, _ = load_form("knz-input")
    data = cusp_data(lat, (1, 0, 0, 0))
    f0 = reduce_f0(form, data)
    chamber = chamber_of((2, -1), f0, data)
    cache = {}

    def expansion(cut):
        if cut not in cache:
            cache[cut] = product_expand(form, data, chamber, (0, -1), cut)
        return cache[cut]

    ok_prefix = True
    for _ in range(50):
        hi = rng.randint(2, 7)
        lo = rng.randint(1, hi)
        big, small = expansion(hi), expansion(lo)
        if big.truncate(small.body.cutoff).body.coeffs != small.body.coeffs:
            ok_prefix = False

    from borcherds_kit.product import enumerate_walls
    v0 = data.v0
    ok_chambers = True
    trials = 0
    walls_ref = enumerate_walls(f0, data, (2, -1), 3)
    q_ref = v0.q((2, -1))
    while trials < 50:
        s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        t = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
        w = (s, t)
        if v0.q(w) >= 0 or s + t <= 0:
            continue
        walls_w = enumerate_walls(f0, data, w, 3)
        qw = v0.q(w)
        for x in walls_ref:
            p = v0.bilinear(x, w)
            if p * p <= 9 * v0.q(x) * (-qw) and x not in walls_w:
                ok_chambers = False
        for x in walls_w:
            p = v0.bilinear(x, (2, -1))
            if p * p <= 9 * v0.q(x) * (-q_ref) and x not in walls_ref:
                ok_chambers = False
        trials += 1

    ok_negation = True
    trials = 0
    while trials < 50:
        n = rng.randint(1, 3)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [[b[i][j] + b[j][i] + 4 * int(i == j) for j in range(n)]
                for i in range(n)]
        try:
            lat_r = GramLattice(gram)
        except ValueError:
            continue
        if not lat_r.is_positive_definite:
            continue
        disc = discriminant_form(lat_r)
        cosets = list(disc.cosets())
        c = cosets[rng.randrange(len(cosets))]
        m = disc.q(c) + rng.randint(0, 2)
        if representation_count(lat_r, m, disc.rep(c)) != \
           representation_count(lat_r, m, disc.rep(disc.neg(c))):
            ok_negation = False
        trials += 1

    report(9, ok_axioms and ok_prefix and ok_chambers and ok_negation,
           "ring axioms, cutoff prefix-stability, chamber-independent walls, "
           "r(m, mu) = r(m, -mu); 50 randomized instances each, all exact")
