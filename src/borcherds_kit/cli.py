"""Command-line front end.

Subcommands mirror the library's main operations: lattice inspection, theta
series, product expansion, divisor relations, the embedding trick, and the
modularity pairing.  Reports are deterministic: identical inputs give
byte-identical output.

argparse owns the arguments: defaults live in `add_argument`, the numeric
options are converted by `type=` functions, and each subparser names its
handler, which takes the parsed namespace, with `set_defaults`.

Exit status: 0 success; 1 domain error (a ValueError, KeyError or
ZeroDivisionError raised by a handler, such as a form that is not integral
or a cutoff below 1); 2 a bad argument (argparse's usage error), a
missing file, or a FileFormatError from `io`.
"""

import argparse
import sys
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


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _coords(text):
    return tuple(map(_fraction, text.split(",")))


def _precision(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_lattice_info(args):
    lat = load_lattice(args.lattice)
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
    _emit(args, lines)


def _run_theta(args):
    lat = load_lattice(args.lattice)
    theta = theta_series(lat, args.prec)
    if args.out:
        save_series(args.out, theta)
    else:
        lines = [f"theta series of {lat.name} through q^{args.prec}"]
        for e in sorted(theta.coeffs):
            lines.append(f"q^{e}: {theta.coeffs[e]}")
        _emit(args, lines)


def _run_expand(args):
    lat = load_lattice(args.lattice)
    form, form_lat = load_form(args.form)
    if form_lat != lat:
        raise ValueError("form file references a different lattice")
    ell = isotropic_line(lat)
    if ell is None:
        raise ValueError("lattice has no isotropic line; no cusp expansion")
    data = cusp_data(lat, ell)
    f0 = reduce_f0(form, data)
    chamber = chamber_of(args.chamber_point, f0, data)
    pe = product_expand(form, data, chamber, args.weyl, args.cutoff)
    lines = [
        f"lattice: {lat.name}",
        f"ell: {','.join(str(x) for x in data.ell)}",
        f"N: {data.n_value}",
        f"A: {pe.constant}",
        f"weight: {pe.weight_out}",
        f"weyl exponent: {','.join(str(x) for x in pe.weyl_exponent)}",
        f"cutoff: {args.cutoff}",
        f"walls: {len(chamber.wall_signs)}",
        f"skipped zero-coefficient exponents: {pe.skipped}",
        "terms (exponent -> coefficient, Weyl prefactor included):",
    ]
    shifted = pe.shifted_coefficients()
    for key in sorted(shifted):
        coords = ",".join(str(x) for x in key)
        lines.append(f"({coords}) -> {shifted[key]}")
    _emit(args, lines)


def _run_relation(args):
    form, _ = load_form(args.form)
    rel = borcherds_relation(form)
    _emit(args, rel.lines())


def _run_embed_trick(args):
    form, _ = load_form(args.form)
    n1 = load_lattice("niemeier-a1")
    n2 = load_lattice("niemeier-a2")
    embedding = EmbeddingData(n1, n2)
    result = embedding_trick(form, embedding)
    expected = borcherds_relation(form)
    lines = result.lines()
    lines.append(f"matches borcherds relation: {str(result == expected).lower()}")
    _emit(args, lines)


def _run_pair(args):
    form, _ = load_form(args.form)
    if form.disc.order != 1:
        raise ValueError("the pair command handles scalar (trivial discriminant) "
                         "forms; supply coefficients per coset through the API")
    series = load_series(args.series)
    values = {}
    for (m, mu), c in form.coefficients.items():
        if m <= 0 and c != 0:
            values[(-m, mu)] = series.coefficient(-m)
    result = modularity_pairing(form, values)
    _emit(args, [f"pairing: {result}"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borcherds",
        description="Exact Borcherds-product computations on quadratic lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="inspect a lattice file")
    p.add_argument("action", choices=["info"])
    p.add_argument("lattice")
    p.set_defaults(handler=_run_lattice_info)

    p = sub.add_parser("theta", help="theta series of a positive-definite lattice")
    p.add_argument("lattice")
    p.add_argument("--prec", type=_precision, default=8)
    p.set_defaults(handler=_run_theta)

    p = sub.add_parser("expand", help="Borcherds product expansion at a cusp")
    p.add_argument("--lattice", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--chamber-point", type=_coords, required=True)
    p.add_argument("--weyl", type=_coords, required=True)
    p.add_argument("--cutoff", type=_fraction, default=Fraction(5))
    p.set_defaults(handler=_run_expand)

    p = sub.add_parser("relation", help="the Picard relation of an integral form")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=_run_relation)

    p = sub.add_parser("embed-trick", help="derive the relation via the rank-24 pair")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=_run_embed_trick)

    p = sub.add_parser("pair", help="modularity-criterion pairing against a series")
    p.add_argument("--form", required=True)
    p.add_argument("--series", required=True)
    p.set_defaults(handler=_run_pair)

    for p_ in sub.choices.values():
        p_.add_argument("--out")
    return parser


def main(argv=None):
    """Run one subcommand; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
