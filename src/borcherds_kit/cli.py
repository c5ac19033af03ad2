"""Command-line front end.

Subcommands mirror the library's main operations: lattice inspection, theta
series, product expansion, divisor relations, the embedding trick, and the
modularity pairing.  Reports are deterministic: identical inputs give
byte-identical output.  Exit status: 0 success, 1 domain error, 2 I/O or
parse error.
"""

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .divisors import (
    EmbeddingData,
    borcherds_relation,
    embedding_trick,
    modularity_pairing,
)
from .io import FileFormatError, load_form, load_lattice, load_series, save_series
from .lattice import discriminant_form, is_maximal, isotropic_line, cusp_data, theta_series
from .product import chamber_of, product_expand, reduce_f0


@dataclass
class JobConfig:
    """One CLI invocation: the command, its inputs, and its parameters."""
    command: str
    inputs: dict = field(default_factory=dict)
    prec: int = 8
    cutoff: Fraction = Fraction(5)
    chamber_point: tuple = ()
    weyl: tuple = ()
    out: str = None


def _parse_coords(text):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad coordinate list {text!r}: {exc}") from exc


def _emit(config, lines):
    text = "\n".join(lines) + "\n"
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _divisor_lines(expr):
    lines = []
    for key, coeff in expr.sorted_items():
        if key == "omega":
            lines.append(f"{coeff} * omega")
        else:
            m, mu = key
            mu_text = ",".join(str(x) for x in mu)
            lines.append(f"{coeff} * Z({m}, [{mu_text}])")
    if not lines:
        lines.append("0")
    return lines


def run(config):
    """Execute a job; returns the process exit status."""
    handler = {
        "lattice": _run_lattice_info,
        "theta": _run_theta,
        "expand": _run_expand,
        "relation": _run_relation,
        "embed-trick": _run_embed_trick,
        "pair": _run_pair,
    }[config.command]
    try:
        handler(config)
        return 0
    except (FileNotFoundError, FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_lattice_info(config):
    lat = load_lattice(config.inputs["lattice"])
    disc = discriminant_form(lat)
    pos, neg = lat.signature_pair
    lines = [
        f"name: {lat.name}",
        f"rank: {lat.rank}",
        f"det: {lat.det}",
        f"signature: ({pos}, {neg})",
        f"maximal: {str(is_maximal(lat)).lower()}",
        f"discriminant group: {'trivial' if not disc.invariant_factors else ' x '.join(f'Z/{f}' for f in disc.invariant_factors)}",
    ]
    if lat.glue is not None:
        lines.append(f"glue code words: {len(lat.glue.words)}")
    _emit(config, lines)


def _run_theta(config):
    lat = load_lattice(config.inputs["lattice"])
    theta = theta_series(lat, config.prec)
    if config.out:
        save_series(config.out, theta)
    else:
        lines = [f"theta series of {lat.name} through q^{config.prec}"]
        for e in sorted(theta.coeffs):
            lines.append(f"q^{e}: {theta.coeffs[e]}")
        _emit(config, lines)


def _run_expand(config):
    lat = load_lattice(config.inputs["lattice"])
    form, form_lat = load_form(config.inputs["form"])
    if form_lat != lat:
        raise ValueError("form file references a different lattice")
    ell = isotropic_line(lat)
    if ell is None:
        raise ValueError("lattice has no isotropic line; no cusp expansion")
    data = cusp_data(lat, ell)
    f0 = reduce_f0(form, data)
    if not config.chamber_point:
        raise ValueError("--chamber-point is required")
    if not config.weyl:
        raise ValueError("--weyl is required")
    chamber = chamber_of(config.chamber_point, f0, data)
    pe = product_expand(form, data, chamber, config.weyl, config.cutoff)
    lines = [
        f"lattice: {lat.name}",
        f"ell: {','.join(str(x) for x in data.ell)}",
        f"N: {data.n_value}",
        f"A: {pe.constant}",
        f"weight: {pe.weight_out}",
        f"weyl exponent: {','.join(str(x) for x in pe.weyl_exponent)}",
        f"cutoff: {config.cutoff}",
        f"walls: {len(chamber.wall_signs)}",
        f"skipped zero-coefficient exponents: {pe.skipped}",
        "terms (exponent -> coefficient, Weyl prefactor included):",
    ]
    shifted = pe.shifted_coefficients()
    for key in sorted(shifted):
        coords = ",".join(str(x) for x in key)
        lines.append(f"({coords}) -> {shifted[key]}")
    _emit(config, lines)


def _run_relation(config):
    form, _ = load_form(config.inputs["form"])
    rel = borcherds_relation(form)
    _emit(config, _divisor_lines(rel))


def _run_embed_trick(config):
    form, _ = load_form(config.inputs["form"])
    n1 = load_lattice("niemeier-a1")
    n2 = load_lattice("niemeier-a2")
    embedding = EmbeddingData(n1, n2, precision=config.prec)
    result = embedding_trick(form, embedding)
    expected = borcherds_relation(form)
    lines = _divisor_lines(result)
    lines.append(f"matches borcherds relation: {str(result == expected).lower()}")
    _emit(config, lines)


def _run_pair(config):
    form, _ = load_form(config.inputs["form"])
    if form.disc.order != 1:
        raise ValueError("the pair command handles scalar (trivial discriminant) "
                         "forms; supply coefficients per coset through the API")
    series = load_series(config.inputs["series"])
    values = {}
    for (m, mu), c in form.coefficients.items():
        if m <= 0 and c != 0:
            values[(-m, mu)] = series.coefficient(-m)
    result = modularity_pairing(form, values)
    _emit(config, [f"pairing: {result}"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borcherds",
        description="Exact Borcherds-product computations on quadratic lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="inspect a lattice file")
    p.add_argument("action", choices=["info"])
    p.add_argument("lattice")

    p = sub.add_parser("theta", help="theta series of a positive-definite lattice")
    p.add_argument("lattice")
    p.add_argument("--prec", type=int, default=8)

    p = sub.add_parser("expand", help="Borcherds product expansion at a cusp")
    p.add_argument("--lattice", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--chamber-point", required=True)
    p.add_argument("--weyl", required=True)
    p.add_argument("--cutoff", default="5")

    p = sub.add_parser("relation", help="the Picard relation of an integral form")
    p.add_argument("--form", required=True)

    p = sub.add_parser("embed-trick", help="derive the relation via the rank-24 pair")
    p.add_argument("--form", required=True)
    p.add_argument("--prec", type=int, default=8)

    p = sub.add_parser("pair", help="modularity-criterion pairing against a series")
    p.add_argument("--form", required=True)
    p.add_argument("--series", required=True)

    for p_ in sub.choices.values():
        p_.add_argument("--out", default=None)
    return parser


def config_from_args(args):
    inputs = {}
    for key in ("lattice", "form", "series"):
        if getattr(args, key, None):
            inputs[key] = getattr(args, key)
    cfg = JobConfig(command=args.command, inputs=inputs)
    if getattr(args, "prec", None) is not None:
        if args.prec < 1:
            raise FileFormatError("--prec must be at least 1")
        cfg.prec = args.prec
    if getattr(args, "cutoff", None) is not None:
        cfg.cutoff = Fraction(args.cutoff)
    if getattr(args, "chamber_point", None):
        cfg.chamber_point = _parse_coords(args.chamber_point)
    if getattr(args, "weyl", None):
        cfg.weyl = _parse_coords(args.weyl)
    cfg.out = args.out
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
