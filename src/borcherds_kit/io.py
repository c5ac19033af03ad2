"""File formats and the bundled lattice/form database.

Every file is UTF-8 structured text: a versioned header line followed by a
JSON body with sorted keys, so that emission is byte-deterministic and every
emitted file re-parses to an equal value.

    lattice: {kind, name, rank, gram (row-major ints),
              glue?: {blocks: [names], code_generators: [[...]], modulus}}
    series:  {kind, denominator, precision: [num, den],
              terms: [[exponent_numerator, coeff_num, coeff_den], ...]}
    form:    {kind, lattice, weight: [num, den], precision: [num, den],
              terms: [[m_num, m_den, [coset...], coeff_num, coeff_den], ...]}

A glued lattice is rebuilt on load by `lattice.glue_lattice` from its block
names and code generators (each block must have discriminant group
Z/modulus), and its `gram` must equal that function's Hermite-normal-form
Gram matrix; a mismatch or a non-isotropic code raises FileFormatError.
So does a form file whose terms break a WHForm invariant (the support
condition m = Q(mu) mod 1, or a positive precision), and a file with two
term rows for one exponent (and one coset mod the invariant factors).  A
series' `denominator` may be any multiple of its exponents' least common
denominator, which is what is written.

The environment variable BORCHERDS_DATA overrides the bundled data directory.
"""

import json
import os
from fractions import Fraction
from pathlib import Path

from .forms import WHForm
from .lattice import GramLattice, _BoundedCache, discriminant_form, glue_lattice
from .qseries import FracQSeries

HEADER = "borcherds-kit v1"


class FileFormatError(ValueError):
    pass


def data_directory():
    env = os.environ.get("BORCHERDS_DATA")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _read_body(path):
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n", 1)
    if not lines or lines[0].strip() != HEADER:
        raise FileFormatError(f"{path}: line 1: expected header '{HEADER}'")
    try:
        body = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno + 1}, column {exc.colno}: "
                              f"{exc.msg}") from exc
    if not isinstance(body, dict):
        raise FileFormatError(f"{path}: body must be a JSON object")
    return body


def _field(body, key, path):
    """body[key], or FileFormatError naming the missing key."""
    try:
        return body[key]
    except KeyError:
        raise FileFormatError(f"{path}: missing key {key!r}") from None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok, path, message):
    if not ok:
        raise FileFormatError(f"{path}: {message}")


def _int_field(body, key, path, minimum):
    value = _field(body, key, path)
    _require(_is_int(value) and value >= minimum, path,
             f"{key!r} must be an integer >= {minimum}")
    return value


def _ratio(value, what, path):
    """A [numerator, denominator] pair of integers as a Fraction."""
    _require(isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
             and value[1] != 0, path,
             f"{what} must be a pair [numerator, nonzero denominator] of integers")
    return Fraction(*value)


def _rows(value, width, what, path):
    """A list of rows of `width` entries each."""
    _require(isinstance(value, list)
             and all(isinstance(row, list) and len(row) == width for row in value),
             path, f"{what} must be a list of rows of {width} entries")
    return value


def _int_list(value, what, path):
    _require(isinstance(value, list) and all(map(_is_int, value)), path,
             f"{what} must be a list of integers")
    return value


def _write_body(path, body):
    text = HEADER + "\n" + json.dumps(body, sort_keys=True, indent=1) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def resolve_data_path(ref, relative_to=None):
    """A file path for `ref`: an existing `.json` path as it is or relative to
    `relative_to`, else the database file of a bare name, `e6` or `e6.json`."""
    p = Path(ref)
    if p.suffix == ".json":
        if p.is_file():
            return p
        if relative_to is not None and (Path(relative_to) / p).is_file():
            return Path(relative_to) / p
    candidate = data_directory() / (p.name if p.suffix == ".json" else f"{ref}.json")
    if p.name == str(ref) and candidate.is_file():
        return candidate
    if p.suffix == ".json" or p.name != str(ref):
        raise FileNotFoundError(f"no such file: {ref}")
    raise FileNotFoundError(f"no lattice, form or series named {ref!r} in "
                            f"{data_directory()}")


# resolved path -> (st_mtime_ns, st_size, GramLattice); one entry per path,
# replaced when the file changes, and at most 32 paths (the bundled database
# has 14 files), the first stored dropped first
_LATTICE_CACHE = _BoundedCache(32)


def load_lattice(ref, relative_to=None):
    path = resolve_data_path(ref, relative_to)
    stat = path.stat()
    key = str(path.resolve())
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _LATTICE_CACHE.get(key)
    if cached is not None and cached[:2] == stamp:
        return cached[2]
    body = _read_body(path)
    if _field(body, "kind", path) != "lattice":
        raise FileFormatError(f"{path}: not a lattice file")
    rank = _int_field(body, "rank", path, 0)
    flat = _int_list(_field(body, "gram", path), "'gram'", path)
    name = body.get("name")
    _require(name is None or isinstance(name, str), path, "'name' must be a string")
    if len(flat) != rank * rank:
        raise FileFormatError(f"{path}: gram needs {rank * rank} entries")
    gram = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
    if "glue" in body:
        lat = _load_glued(path, body, gram)
    else:
        try:
            lat = GramLattice(gram, name=name)
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    _LATTICE_CACHE[key] = stamp + (lat,)
    return lat


def _load_glued(path, body, gram):
    """The glued lattice a file specifies, checked against the file's gram."""
    spec = body["glue"]
    _require(isinstance(spec, dict), path, "'glue' must be a JSON object")
    names = _field(spec, "blocks", path)
    _require(isinstance(names, list) and all(isinstance(n, str) for n in names), path,
             "'blocks' must be a list of lattice names")
    blocks = [load_lattice(name, relative_to=path.parent) for name in names]
    modulus = _int_field(spec, "modulus", path, 1)
    for name, block in zip(names, blocks):
        if discriminant_form(block).invariant_factors != (modulus,):
            raise FileFormatError(f"{path}: glue block {name} does not have "
                                  f"discriminant group Z/{modulus}")
    generators = []
    for row in _rows(_field(spec, "code_generators", path), len(blocks),
                     "'code_generators'", path):
        _int_list(row, "a code generator", path)
        generators.append(tuple((c % modulus,) for c in row))
    try:
        lat = glue_lattice(blocks, generators, name=body.get("name"))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if [list(row) for row in lat.gram] != gram:
        raise FileFormatError(f"{path}: gram does not match the Gram matrix "
                              f"glue_lattice builds from the glue spec")
    return lat


def save_lattice(path, lattice, glue_spec=None):
    body = {
        "kind": "lattice",
        "name": lattice.name,
        "rank": lattice.rank,
        "gram": [x for row in lattice.gram for x in row],
    }
    if glue_spec is not None:
        body["glue"] = glue_spec
    _write_body(path, body)


def load_series(path):
    path = resolve_data_path(path)
    body = _read_body(path)
    if _field(body, "kind", path) != "series":
        raise FileFormatError(f"{path}: not a series file")
    den = _int_field(body, "denominator", path, 1)
    prec = _ratio(_field(body, "precision", path), "'precision'", path)
    coeffs = {}
    for row in _rows(_field(body, "terms", path), 3, "'terms'", path):
        expn, cnum, cden = _int_list(row, "a series term", path)
        e = Fraction(expn, den)
        _require(e not in coeffs, path, f"duplicate term row for exponent {e}")
        coeffs[e] = _ratio([cnum, cden], "a series coefficient", path)
    return FracQSeries(coeffs, prec)


def save_series(path, series):
    den = series.denominator
    terms = sorted(
        (int(e * den), c.numerator, c.denominator)
        for e, c in series.coeffs.items())
    body = {
        "kind": "series",
        "denominator": den,
        "precision": [series.prec.numerator, series.prec.denominator],
        "terms": [list(t) for t in terms],
    }
    _write_body(path, body)


def load_form(path):
    path = resolve_data_path(path)
    body = _read_body(path)
    if _field(body, "kind", path) != "form":
        raise FileFormatError(f"{path}: not a form file")
    ref = _field(body, "lattice", path)
    _require(isinstance(ref, str), path, "'lattice' must be a lattice name")
    lattice = load_lattice(ref, relative_to=path.parent)
    disc = discriminant_form(lattice)
    weight = _ratio(_field(body, "weight", path), "'weight'", path)
    prec = _ratio(_field(body, "precision", path), "'precision'", path)
    coeffs = {}
    for mnum, mden, coset, cnum, cden in _rows(_field(body, "terms", path), 5,
                                               "'terms'", path):
        m = _ratio([mnum, mden], "a form term exponent", path)
        coset = _int_list(coset, "a form term coset", path)
        _require(len(coset) == len(disc.invariant_factors), path,
                 f"a form term coset must have {len(disc.invariant_factors)} entries")
        key = (m, disc.normalize(coset))
        _require(key not in coeffs, path,
                 f"duplicate term row for exponent {m}, coset {list(key[1])}")
        coeffs[key] = _ratio([cnum, cden], "a form coefficient", path)
    try:
        return WHForm(disc, weight, coeffs, prec), lattice
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_form(path, form, lattice_name):
    terms = sorted(
        (m.numerator, m.denominator, list(mu), c.numerator, c.denominator)
        for (m, mu), c in form.coefficients.items())
    body = {
        "kind": "form",
        "lattice": lattice_name,
        "weight": [form.weight.numerator, form.weight.denominator],
        "precision": [form.prec.numerator, form.prec.denominator],
        "terms": [list(t) for t in terms],
    }
    _write_body(path, body)
