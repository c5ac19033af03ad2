"""The benchmark's workloads: operations on borcherds_kit and their exact checks.

A workload is a list of operations run one at a time (a closed loop with one
client).  Each operation has a `run` step, which is timed, and a `check` step,
which is not: the check compares the result exactly with an independent
oracle where one exists, and with a golden output captured from the library
(`golden/`, written by `capture_golden.py`) where the output is text.  An
operation fails when its run raises or its check does.

Workloads (why each was chosen is in README.md):

    cli-cold      nine `python -m borcherds_kit.cli` jobs, each a fresh process
    rank24-pair   glue of A1^24 by the Golay code, theta and direct counts of
                  the two Niemeier lattices, the embedding trick
    cusp-expand   Weyl chamber and product expansions at the E8+U+U cusp, and
                  the j(p) - j(q) expansion at the U+U cusp
    weil-modular  Weil representations and braid checks for |D| = 15, 25, 27,
                  and j through q^100

Names from borcherds_kit are imported here, at module import; a traced worker
installs its wrappers before importing this module so these names are the
wrapped ones.  Checks run with tracing paused.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from borcherds_kit.codes import binary_golay_generators
from borcherds_kit.divisors import DivisorExpr, EmbeddingData, borcherds_relation, embedding_trick
from borcherds_kit.io import load_form, load_lattice
from borcherds_kit.lattice import (
    GramLattice,
    cusp_data,
    direct_sum,
    discriminant_form,
    glue_lattice,
    isotropic_line,
    representation_count,
    theta_series,
)
from borcherds_kit.product import chamber_of, product_expand, reduce_f0
from borcherds_kit.qseries import delta_series, eisenstein, j_series
from borcherds_kit.weil import braid_holds, build_weil_rep

import fixtures

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class CheckFailed(Exception):
    """An operation's result differs from its oracle or golden output."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable      # run(ctx) -> value; timed
    check: Callable    # check(ctx, value); raises CheckFailed


@dataclass
class Workload:
    setup: Callable        # setup(ctx): the database loads, timed as set-up
    ops: Callable          # ops(key) -> operations of one pass; the key is
                           # a chamber point name for cusp-expand, else "all"


# ---------------------------------------------------------------------------
# oracles: independent routes to the expected values
# ---------------------------------------------------------------------------

def j_coefficients(n):
    """c(k) of j = E4^3 / Delta for k = -1 .. n (division by Delta)."""
    j = j_series(n)
    return {k: j.coefficient(k) for k in range(-1, n + 1)}


def one_over_delta_relation(scale):
    """The relation of scale/Delta, from 1/Delta = q^-1 + 24 + O(q).

    The principal part and constant term come from inverting the Euler
    product of Delta, not from the form files the CLI reads.
    """
    inv = delta_series(3).inverse()
    return (DivisorExpr.z(1, (), scale * inv.coefficient(-1))
            + DivisorExpr.omega(-scale * inv.coefficient(0)))


def knz_oracle(v0, w, window):
    """j(p) - j(q) in exponent coordinates p = q_(0,1), q = q_(-1,0),
    restricted to the monomials with grading [key, w] <= window."""
    j = j_coefficients(int(window) + 1)
    out = {}
    for n, c in j.items():
        if n == 0 or c == 0:
            continue
        for key, sign in (((Fraction(0), Fraction(n)), 1), ((Fraction(-n), Fraction(0)), -1)):
            if v0.bilinear(key, w) <= window:
                out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# text formats shared by the CLI checks and the golden files
# ---------------------------------------------------------------------------

def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def expect_golden(name, text):
    expect(text == golden(name), f"output differs from golden/{name}")


def body_text(expansion):
    """Terms of a product expansion, one `(coords) -> coefficient` per line,
    in the order and format of `borcherds expand`."""
    shifted = expansion.shifted_coefficients()
    return "".join(f"({','.join(str(x) for x in key)}) -> {shifted[key]}\n"
                   for key in sorted(shifted))


def parse_theta(text):
    return {Fraction(line[2:line.index(":")]): Fraction(line.split(": ")[1])
            for line in text.splitlines() if line.startswith("q^")}


def parse_terms(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("(") and " -> " in line:
            key, value = line.split(" -> ")
            out[tuple(Fraction(x) for x in key.strip("()").split(","))] = Fraction(value)
    return out


def relation_lines(expr):
    """DivisorExpr in the CLI's line format."""
    lines = []
    for key, coeff in expr.sorted_items():
        if key == "omega":
            lines.append(f"{coeff} * omega")
        else:
            m, mu = key
            lines.append(f"{coeff} * Z({m}, [{','.join(str(x) for x in mu)}])")
    return lines


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

KNZ_CLI_CUTOFF = 5
CLI_JOBS = (
    ("lattice-info-e8", ["lattice", "info", "e8"]),
    ("lattice-info-niemeier-a1", ["lattice", "info", "niemeier-a1"]),
    ("theta-e8", ["theta", "e8", "--prec", "10"]),
    ("theta-niemeier-a1", ["theta", "niemeier-a1", "--prec", "8"]),
    ("theta-niemeier-a2", ["theta", "niemeier-a2", "--prec", "8"]),
    ("expand-knz", ["expand", "--lattice", "u-plus-u", "--form", "knz-input",
                    "--chamber-point", "2,-1", "--weyl", "0,-1",
                    "--cutoff", str(KNZ_CLI_CUTOFF)]),
    ("relation-one-over-delta", ["relation", "--form", "one-over-delta"]),
    ("embed-trick", ["embed-trick", "--form", "one-over-delta-x24"]),
    ("pair-e6", ["pair", "--form", "e4sq-over-delta",
                 "--series", "src/borcherds_kit/data/e6.json"]),
)


def _check_unimodular_info(text, glue_words=None):
    lines = text.splitlines()
    expect("det: 1" in lines and "maximal: true" in lines
           and "discriminant group: trivial" in lines,
           "an even unimodular lattice must report det 1, maximal, trivial D")
    if glue_words is not None:
        expect(f"glue code words: {glue_words}" in lines,
               f"the glue code must have {glue_words} words")


def _check_theta_e8(ctx, text):
    e4 = eisenstein(4, 10)
    expect(parse_theta(text) == {Fraction(n): e4.coefficient(n) for n in range(11)},
           "theta(E8) != E4 through q^10")


def _check_theta_pair(ctx, text):
    theta1 = ctx.get("theta-niemeier-a1")
    expect(theta1 is not None, "theta(niemeier-a1) is missing")
    theta2 = parse_theta(text)
    delta = delta_series(8)
    expect(all(theta1.get(n, 0) - theta2.get(n, 0) == -24 * delta.coefficient(n)
               for n in range(9)),
           "theta(A1^24) - theta(A2^12) != -24 Delta through q^8")


def _check_cli_knz(ctx, text):
    lattice = load_lattice("u-plus-u")
    data = cusp_data(lattice, (1, 0, 0, 0))
    w, rho = (2, -1), (0, -1)
    window = KNZ_CLI_CUTOFF + data.v0.bilinear(rho, w)
    expect(parse_terms(text) == knz_oracle(data.v0, w, window),
           "KNZ expansion != j(p) - j(q) in the cutoff window")


def _check_relation(ctx, text):
    expect(text.splitlines() == relation_lines(one_over_delta_relation(1)),
           "relation of 1/Delta != Z(1) - 24 omega")


def _check_embed_trick(ctx, text):
    lines = text.splitlines()
    expect(lines[:-1] == relation_lines(one_over_delta_relation(24)),
           "embedding trick for 24/Delta != 24 Z(1) - 576 omega")
    expect(lines[-1] == "matches borcherds relation: true",
           "the CLI reports a mismatch with the direct relation")


def _check_pair(ctx, text):
    # E4^2/Delta = q^-1 + 504 + O(q) paired against E6 = 1 - 504 q + O(q^2)
    principal = (eisenstein(4, 2) ** 2) * delta_series(3).inverse()
    e6 = eisenstein(6, 1)
    pairing = principal.coefficient(0) * e6.coefficient(0) + \
        principal.coefficient(-1) * e6.coefficient(1)
    expect(text == f"pairing: {pairing}\n", "pairing of E4^2/Delta with E6 != 0")


CLI_ORACLES = {
    "lattice-info-e8": lambda ctx, text: _check_unimodular_info(text),
    "lattice-info-niemeier-a1": lambda ctx, text: _check_unimodular_info(text, 4096),
    "theta-e8": _check_theta_e8,
    "theta-niemeier-a2": _check_theta_pair,
    "expand-knz": _check_cli_knz,
    "relation-one-over-delta": _check_relation,
    "embed-trick": _check_embed_trick,
    "pair-e6": _check_pair,
}


def _cli_op(job_id, argv):
    def run(ctx):
        return ctx["run_cli"](job_id, argv)

    def check(ctx, text):
        expect_golden(f"cli-{job_id}.txt", text)
        if job_id.startswith("theta-"):
            ctx[job_id] = parse_theta(text)
        oracle = CLI_ORACLES.get(job_id)
        if oracle:
            oracle(ctx, text)

    return Op(job_id, run, check)


def cli_cold_ops(key):
    return [_cli_op(job_id, argv) for job_id, argv in CLI_JOBS]


def cli_cold_setup(ctx):
    """Interpreter start and import; each job loads its own files."""
    import borcherds_kit.cli  # noqa: F401


# ---------------------------------------------------------------------------
# rank24-pair
# ---------------------------------------------------------------------------

def rank24_setup(ctx):
    ctx["n1"] = load_lattice("niemeier-a1")
    ctx["n2"] = load_lattice("niemeier-a2")
    ctx["a1"] = load_lattice("a1")
    ctx["form"], _ = load_form("one-over-delta-x24")


def _glue_a1_golay(ctx):
    gens = [tuple((c,) for c in row) for row in binary_golay_generators()]
    return glue_lattice([ctx["a1"]] * 24, gens, name="A1^24 + Golay")


def _check_glue(ctx, lat):
    expect(lat.gram == ctx["n1"].gram, "glued Gram != loaded niemeier-a1 Gram")
    expect(len(lat.glue.words) == 4096, "the binary Golay code must have 4096 words")


def _theta_op(index):
    name = f"theta-niemeier-a{index}"

    def check(ctx, theta):
        ctx[name] = theta
        expect(theta.coefficient(0) == 1, "theta must start with 1")
        if index == 2:
            delta = delta_series(8)
            theta1 = ctx["theta-niemeier-a1"]
            expect(all(theta1.coefficient(n) - theta.coefficient(n)
                       == -24 * delta.coefficient(n) for n in range(9)),
                   "theta(A1^24) - theta(A2^12) != -24 Delta through q^8")

    return Op(name, lambda ctx: theta_series(ctx[f"n{index}"], 8), check)


def _count_op(index, m, known):
    def check(ctx, count):
        theta = ctx[f"theta-niemeier-a{index}"]
        expect(count == theta.coefficient(m) == known,
               f"direct r({m}) on niemeier-a{index} must equal the glue-route "
               f"theta coefficient and {known}")

    return Op(f"count-a{index}-m{m}",
              lambda ctx: representation_count(ctx[f"n{index}"], m), check)


def _embed_trick(ctx):
    embedding = EmbeddingData(ctx["n1"], ctx["n2"], 8)
    return embedding_trick(ctx["form"], embedding)


def _check_embed(ctx, relation):
    expect(relation == borcherds_relation(ctx["form"]),
           "embedding trick != direct Borcherds relation")
    expect(relation == one_over_delta_relation(24),
           "embedding trick for 24/Delta != 24 Z(1) - 576 omega")


def rank24_ops(key):
    return [
        Op("glue-a1-golay", _glue_a1_golay, _check_glue),
        _theta_op(1),
        _theta_op(2),
        # the direct count at m = 2 on niemeier-a2 (~9 s) is left out: with
        # it a round of the four workloads no longer fits the run budget
        _count_op(1, 1, 48),
        _count_op(2, 1, 72),
        Op("embed-trick", _embed_trick, _check_embed),
    ]


# ---------------------------------------------------------------------------
# cusp-expand
# ---------------------------------------------------------------------------

KNZ_CUTOFF = 12


def cusp_setup(ctx):
    ctx["lattice"] = load_lattice("e8-plus-2u")
    ctx["form"], _ = load_form("e4sq-over-delta")
    ctx["uu"] = load_lattice("u-plus-u")
    ctx["knz"], _ = load_form("knz-input")


def _cusp(ctx):
    lattice = ctx["lattice"]
    data = cusp_data(lattice, isotropic_line(lattice))
    ctx["data"], ctx["f0"] = data, reduce_f0(ctx["form"], data)
    return data


def _check_cusp(ctx, data):
    expect(data.n_value == 1 and data.v0.rank == 10 and abs(data.v0.det) == 1,
           "the cusp of E8+U+U must have N = 1 and a unimodular rank-10 V0")


def _check_body(pe, name):
    coeffs = pe.body.coeffs
    expect(pe.body.coefficient((0,) * len(pe.weyl_exponent)) == 1,
           "constant term must be 1")
    expect(all(Fraction(c).denominator == 1 for c in coeffs.values()),
           "coefficients must be integers")
    expect_golden(name, body_text(pe))


def _expand_ops(point):
    lo, hi = point["cutoffs"]
    terms_lo, terms_hi = point["terms"]
    tag = point["name"]

    def chamber(ctx):
        ctx["chamber"] = chamber_of(point["w"], ctx["f0"], ctx["data"])
        return ctx["chamber"]

    def check_chamber(ctx, ch):
        expect(len(ch.wall_signs) == point["walls"],
               f"{len(ch.wall_signs)} walls, fixture records {point['walls']}")

    def expand(cutoff):
        return lambda ctx: product_expand(ctx["form"], ctx["data"], ctx["chamber"],
                                          (0,) * 10, cutoff)

    def check_lo(ctx, pe):
        ctx["expand-lo"] = pe
        expect(len(pe.body.coeffs) == terms_lo, f"cutoff {lo} must give {terms_lo} terms")
        _check_body(pe, f"body-{tag}-{lo}.txt")

    def check_hi(ctx, pe):
        expect(len(pe.body.coeffs) == terms_hi, f"cutoff {hi} must give {terms_hi} terms")
        _check_body(pe, f"body-{tag}-{hi}.txt")
        low = ctx.get("expand-lo")
        expect(low is not None and pe.truncate(lo).body.coeffs == low.body.coeffs,
               f"cutoff-{hi} body truncated to {lo} != cutoff-{lo} body")

    return [Op(f"chamber-{tag}", chamber, check_chamber),
            Op(f"expand-{tag}-{lo}", expand(lo), check_lo),
            Op(f"expand-{tag}-{hi}", expand(hi), check_hi)]


def _knz(ctx):
    data = cusp_data(ctx["uu"], (1, 0, 0, 0))
    f0 = reduce_f0(ctx["knz"], data)
    chamber = chamber_of((2, -1), f0, data)
    return product_expand(ctx["knz"], data, chamber, (0, -1), KNZ_CUTOFF)


def _check_knz(ctx, pe):
    v0 = pe.body.lattice
    w = pe.body.w
    window = KNZ_CUTOFF + v0.bilinear(pe.weyl_exponent, w)
    expect(pe.constant == 1, "cusp constant A must be 1")
    expect(pe.shifted_coefficients() == knz_oracle(v0, w, window),
           "KNZ expansion != j(p) - j(q) in the cutoff window")
    _check_body(pe, f"body-knz-{KNZ_CUTOFF}.txt")


def cusp_ops(key):
    point = next(p for p in fixtures.CHAMBER_POINTS if p["name"] == key)
    return ([Op("cusp-data", _cusp, _check_cusp)] + _expand_ops(point)
            + [Op("expand-knz", _knz, _check_knz)])


# ---------------------------------------------------------------------------
# weil-modular
# ---------------------------------------------------------------------------

A4_GRAM = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
J_PREC = 100


def weil_setup(ctx):
    ctx["a2"] = load_lattice("a2")
    ctx["a4"] = GramLattice(A4_GRAM, name="A4")


def _weil_op(name, blocks, order, sig8):
    def run(ctx):
        disc = discriminant_form(direct_sum([ctx[b] for b in blocks]))
        # build_weil_rep raises unless the Milgram sum matches sig8
        rep = build_weil_rep(disc, sig8)
        return disc.order, braid_holds(rep)

    def check(ctx, value):
        expect(value == (order, True), f"|D| must be {order} and the braid relation hold")

    return Op(name, run, check)


def _check_j(ctx, j):
    # j * Delta = E4^3, by multiplication only
    lhs = j * delta_series(J_PREC + 1)
    rhs = eisenstein(4, J_PREC) ** 3
    expect(lhs.prec >= J_PREC + 1, "j * Delta must be known through q^100")
    expect(all(lhs.coefficient(n) == rhs.coefficient(n) for n in range(J_PREC + 1)),
           "j * Delta != E4^3 through q^100")
    expect(j.coefficient(-1) == 1 and j.coefficient(0) == 744
           and j.is_integral(), "j must be q^-1 + 744 + ... with integer coefficients")


def weil_ops(key):
    return [
        _weil_op("weil-a2+a4", ("a2", "a4"), 15, 6),
        _weil_op("weil-a4+a4", ("a4", "a4"), 25, 0),
        _weil_op("weil-a2+a2+a2", ("a2", "a2", "a2"), 27, 6),
        Op("j-series-100", lambda ctx: j_series(J_PREC), _check_j),
    ]


WORKLOADS = {
    "cli-cold": Workload(cli_cold_setup, cli_cold_ops),
    "rank24-pair": Workload(rank24_setup, rank24_ops),
    "cusp-expand": Workload(cusp_setup, cusp_ops),
    "weil-modular": Workload(weil_setup, weil_ops),
}
