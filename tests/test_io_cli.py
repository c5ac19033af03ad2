import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from borcherds_kit.cli import main
from borcherds_kit.divisors import borcherds_relation
from borcherds_kit.forms import WHForm
from borcherds_kit.io import (
    _LATTICE_CACHE,
    FileFormatError,
    data_directory,
    load_form,
    load_lattice,
    load_series,
    save_form,
    save_lattice,
    save_series,
)
from borcherds_kit.lattice import (
    GramLattice,
    direct_sum,
    discriminant_form,
    glue_lattice,
    theta_series,
)
from borcherds_kit.qseries import FracQSeries


def test_bundled_database_loads():
    names = ["u", "a1", "a2", "e8", "u-plus-u", "e8-plus-2u",
             "niemeier-a1", "niemeier-a2"]
    for name in names:
        lat = load_lattice(name)
        assert lat.rank > 0
    assert load_lattice("e8").det == 1
    assert load_lattice("niemeier-a1").glue is not None
    assert len(load_lattice("niemeier-a1").glue.words) == 4096
    assert len(load_lattice("niemeier-a2").glue.words) == 729


def test_bundled_niemeier_matches_reconstruction():
    # the stored Gram matrix must agree with re-gluing from the stored code
    for name in ("niemeier-a1", "niemeier-a2"):
        lat = load_lattice(name)
        rebuilt = glue_lattice(lat.glue.blocks, lat.glue.generators)
        assert rebuilt.gram == lat.gram


def _write_glued_copy(tmp_path, edit):
    """A copy of niemeier-a2.json whose JSON body went through `edit`."""
    header, body = (data_directory() / "niemeier-a2.json").read_text(
        encoding="utf-8").split("\n", 1)
    body = json.loads(body)
    edit(body)
    path = tmp_path / "edited.json"
    path.write_text(header + "\n" + json.dumps(body) + "\n", encoding="utf-8")
    return path


def _set_gram_entry(body):
    body["gram"][1] += 2


def _replace_generator(body):
    body["glue"]["code_generators"][0] = [1] + [0] * 11


def _wrong_modulus(body):
    body["glue"]["modulus"] = 2


def _drop_modulus(body):
    del body["glue"]["modulus"]


def _string_modulus(body):
    body["glue"]["modulus"] = "3"


def _short_generator(body):
    body["glue"]["code_generators"][0] = body["glue"]["code_generators"][0][:-1]


def _string_generator_entry(body):
    body["glue"]["code_generators"][0][0] = "1"


def _glue_not_object(body):
    body["glue"] = [1, 2]


def _block_not_name(body):
    body["glue"]["blocks"][0] = 2


@pytest.mark.parametrize("edit, message", [
    (_set_gram_entry, "gram does not match"),
    (_replace_generator, "not isotropic"),
    (_wrong_modulus, "Z/2"),
    (_drop_modulus, "missing key 'modulus'"),
    (_string_modulus, "'modulus' must be an integer"),
    (_short_generator, "'code_generators' must be a list of rows of 12 entries"),
    (_string_generator_entry, "a code generator must be a list of integers"),
    (_glue_not_object, "'glue' must be a JSON object"),
    (_block_not_name, "'blocks' must be a list of lattice names"),
])
def test_inconsistent_glue_file_fails(tmp_path, capsys, edit, message):
    path = _write_glued_copy(tmp_path, edit)
    with pytest.raises(FileFormatError, match=message):
        load_lattice(path)
    assert main(["lattice", "info", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_glued_copy_loads(tmp_path):
    path = _write_glued_copy(tmp_path, lambda body: None)
    assert load_lattice(path).gram == load_lattice("niemeier-a2").gram


def test_lattice_cache_sees_rewritten_file(tmp_path):
    path = tmp_path / "l.json"
    size_before = len(_LATTICE_CACHE)
    save_lattice(path, GramLattice([[2, 1], [1, 4]], name="first"))
    assert load_lattice(path).name == "first"
    assert load_lattice(path) is load_lattice(path)
    # a different size
    save_lattice(path, GramLattice([[2, 1], [1, 4]], name="second-name"))
    assert load_lattice(path).name == "second-name"
    # the same size; a file system with coarse timestamps may keep the
    # modification time, so it is moved forward explicitly
    stat = path.stat()
    save_lattice(path, GramLattice([[2, 1], [1, 6]], name="second-name"))
    assert path.stat().st_size == stat.st_size
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    assert load_lattice(path).gram == ((2, 1), (1, 6))
    # one entry per path: each rewrite replaced the entry before it
    assert len(_LATTICE_CACHE) == size_before + 1
    assert _LATTICE_CACHE[str(path.resolve())][2].gram == ((2, 1), (1, 6))


def test_lattice_cache_is_bounded_and_parses_an_evicted_path_again(tmp_path, monkeypatch):
    from borcherds_kit import io
    size = io._LATTICE_CACHE.size
    assert size > len(list(data_directory().glob("*.json"))) == 14
    # a fresh cache of the same bound, so the test evicts no other test's entry
    monkeypatch.setattr(io, "_LATTICE_CACHE", type(io._LATTICE_CACHE)(size))
    paths = [tmp_path / f"a{k}.json" for k in range(1, size + 2)]
    for k, path in enumerate(paths, 1):
        save_lattice(path, GramLattice([[2 * k]]))
    first = load_lattice(paths[0])
    for path in paths[1:-1]:
        load_lattice(path)
    assert len(io._LATTICE_CACHE) == size and load_lattice(paths[0]) is first
    # one load past the bound drops the path stored first, and only it
    load_lattice(paths[-1])
    assert list(io._LATTICE_CACHE) == [str(p.resolve()) for p in paths[1:]]
    parsed = []
    read_body = io._read_body
    monkeypatch.setattr(io, "_read_body", lambda path: parsed.append(path) or read_body(path))
    again = load_lattice(paths[0])
    assert parsed == [paths[0]] and again is not first and again == first
    assert str(paths[1].resolve()) not in io._LATTICE_CACHE


def _write_body(path, body):
    path.write_text("borcherds-kit v1\n" + json.dumps(body) + "\n", encoding="utf-8")
    return path


LATTICE_BODY = {"kind": "lattice", "name": "t", "rank": 2, "gram": [2, 1, 1, 2]}


@pytest.mark.parametrize("edit, message", [
    (lambda body: body.update(gram=[2, 1, 0, 2]), "must be symmetric"),
    (lambda body: body.update(gram=[1, 0, 0, 2]), "must be even"),
    (lambda body: body.update(gram=[2, 2, 2, 2]), "nonsingular"),
    (lambda body: body.pop("rank"), "missing key 'rank'"),
    (lambda body: body.pop("gram"), "missing key 'gram'"),
    (lambda body: body.pop("kind"), "missing key 'kind'"),
    (lambda body: body.update(rank="2"), "'rank' must be an integer"),
    (lambda body: body.update(rank=True), "'rank' must be an integer"),
    (lambda body: body.update(rank=-2), "'rank' must be an integer >= 0"),
    (lambda body: body.update(gram=[2, 1, "1", 2]), "'gram' must be a list of integers"),
    (lambda body: body.update(gram=[2, 1, 1.0, 2]), "'gram' must be a list of integers"),
    (lambda body: body.update(gram="2112"), "'gram' must be a list of integers"),
    (lambda body: body.update(name=7), "'name' must be a string"),
])
def test_malformed_lattice_file_exits_2(tmp_path, capsys, edit, message):
    body = dict(LATTICE_BODY)
    edit(body)
    path = _write_body(tmp_path / "bad.json", body)
    with pytest.raises(FileFormatError, match=message):
        load_lattice(path)
    assert main(["lattice", "info", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_non_object_body_exits_2(tmp_path, capsys):
    path = _write_body(tmp_path / "bad.json", [1, 2])
    with pytest.raises(FileFormatError, match="JSON object"):
        load_lattice(path)
    assert main(["lattice", "info", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["kind", "lattice", "weight", "precision", "terms"])
def test_form_file_missing_key_exits_2(tmp_path, capsys, key):
    f, _ = load_form("one-over-delta")
    path = tmp_path / "f.json"
    save_form(path, f, "u-plus-u")
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    del body[key]
    _write_body(path, body)
    with pytest.raises(FileFormatError, match=f"missing key '{key}'"):
        load_form(path)
    assert main(["relation", "--form", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["kind", "denominator", "precision", "terms"])
def test_series_file_missing_key_exits_2(tmp_path, capsys, key):
    path = tmp_path / "s.json"
    save_series(path, FracQSeries({Fraction(1, 2): 3}, 4))
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    del body[key]
    _write_body(path, body)
    with pytest.raises(FileFormatError, match=f"missing key '{key}'"):
        load_series(path)
    assert main(["pair", "--form", "e4sq-over-delta", "--series", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("edit, message", [
    (lambda body: body["terms"].__setitem__(0, [1, 3]),
     "'terms' must be a list of rows of 3 entries"),
    (lambda body: body.update(terms=7), "'terms' must be a list of rows of 3 entries"),
    (lambda body: body["terms"].__setitem__(0, [1, "3", 1]),
     "a series term must be a list of integers"),
    (lambda body: body["terms"].__setitem__(0, [1, 3, 0]),
     "a series coefficient must be a pair"),
    (lambda body: body.update(denominator="2"), "'denominator' must be an integer >= 1"),
    (lambda body: body.update(denominator=0), "'denominator' must be an integer >= 1"),
    (lambda body: body.update(precision=4), "'precision' must be a pair"),
    (lambda body: body.update(precision=[4, 0]), "'precision' must be a pair"),
    (lambda body: body["terms"].append([1, 5, 1]), "duplicate term row for exponent 1/2"),
])
def test_malformed_series_file_exits_2(tmp_path, capsys, edit, message):
    path = tmp_path / "s.json"
    save_series(path, FracQSeries({Fraction(1, 2): 3}, 4))
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    edit(body)
    _write_body(path, body)
    with pytest.raises(FileFormatError, match=message):
        load_series(path)
    assert main(["pair", "--form", "e4sq-over-delta", "--series", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda body: body["terms"].__setitem__(0, body["terms"][0][:4]),
     "'terms' must be a list of rows of 5 entries"),
    (lambda body: body["terms"][0].__setitem__(1, 0), "a form term exponent must be a pair"),
    (lambda body: body["terms"][0].__setitem__(2, 0), "a form term coset must be a list"),
    (lambda body: body["terms"][0].__setitem__(2, [0, 0]),
     "a form term coset must have 0 entries"),
    (lambda body: body["terms"][0].__setitem__(3, "1"), "a form coefficient must be a pair"),
    (lambda body: body.update(weight="-12"), "'weight' must be a pair"),
    (lambda body: body.update(precision=[1, 2, 3]), "'precision' must be a pair"),
    (lambda body: body.update(lattice=3), "'lattice' must be a lattice name"),
    # well-formed JSON that breaks a WHForm invariant: m = 1/2 on a trivial group
    (lambda body: body["terms"].append([1, 2, [], 5, 1]), "violates the support condition"),
    (lambda body: body.update(precision=[0, 1]), "precision must be positive"),
    (lambda body: body["terms"].append([-1, 1, [], 5, 1]),
     "duplicate term row for exponent -1, coset"),
])
def test_malformed_form_file_exits_2(tmp_path, capsys, edit, message):
    f, _ = load_form("one-over-delta")
    path = tmp_path / "f.json"
    save_form(path, f, "u-plus-u")
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    edit(body)
    _write_body(path, body)
    with pytest.raises(FileFormatError, match=message):
        load_form(path)
    assert main(["relation", "--form", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_duplicate_form_rows_compare_normalized_cosets(tmp_path, capsys):
    # on A1, the cosets [1] and [3] are one coset
    d = discriminant_form(GramLattice([[2]]))
    path = tmp_path / "f.json"
    save_form(path, WHForm(d, 0, {(Fraction(-3, 4), (1,)): 1, (Fraction(0), (0,)): 2}, 2),
              "a1")
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    body["terms"].append([-3, 4, [3], 7, 1])
    _write_body(path, body)
    with pytest.raises(FileFormatError, match=r"exponent -3/4, coset \[1\]"):
        load_form(path)
    # and through `pair`, on a scalar form
    f, _ = load_form("e4sq-over-delta")
    save_form(path, f, "u-plus-u")
    body = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    body["terms"].append(list(body["terms"][0]))
    _write_body(path, body)
    e6 = str(data_directory() / "e6.json")
    assert main(["pair", "--form", str(path), "--series", e6]) == 2
    err = capsys.readouterr().err
    assert "duplicate term row" in err and str(path) in err


def test_theta_out_golden_bytes(tmp_path):
    # glued lattices: written on the least common exponent denominator (1)
    here = Path(__file__).resolve().parent
    for name in ("niemeier-a1", "niemeier-a2"):
        out = tmp_path / f"{name}.json"
        assert main(["theta", name, "--prec", "3", "--out", str(out)]) == 0
        golden = here / f"theta_{name.replace('-', '_')}_prec3.json"
        assert out.read_bytes() == golden.read_bytes()


def test_series_file_on_a_multiple_denominator_loads_equal(tmp_path):
    golden = Path(__file__).resolve().parent / "theta_niemeier_a1_prec3.json"
    body = json.loads(golden.read_text(encoding="utf-8").split("\n", 1)[1])
    body["denominator"] = 4
    body["terms"] = [[4 * e, c, d] for e, c, d in body["terms"]]
    path = _write_body(tmp_path / "s.json", body)
    series = load_series(path)
    assert series == load_series(golden) and series.denominator == 1
    assert series.coeffs == theta_series(load_lattice("niemeier-a1"), 3).coeffs


def test_load_form_takes_no_relative_to():
    # a form file's lattice is read relative to the form file; the form path
    # itself is a path or a database name
    with pytest.raises(TypeError):
        load_form("one-over-delta.json", relative_to=data_directory())


def test_cli_embed_trick_takes_no_prec(capsys):
    # the pair is compared at the one precision `EmbeddingData` defaults to
    with pytest.raises(SystemExit) as exc:
        main(["embed-trick", "--form", "one-over-delta-x24", "--prec", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --prec 8" in err and "Traceback" not in err


def test_cli_embed_trick_precision_one_exits_1(tmp_path, capsys):
    f, _ = load_form("one-over-delta-x24")
    path = tmp_path / "f.json"
    save_form(path, WHForm(f.disc, f.weight, f.coefficients, 1), "u-plus-u")
    assert main(["embed-trick", "--form", str(path)]) == 1
    assert "needs a form of precision > 1, got precision 1" in capsys.readouterr().err


def test_cli_expand_weyl_wrong_length_exits_1(capsys):
    assert main(["expand", "--lattice", "u-plus-u", "--form", "knz-input",
                 "--chamber-point", "2,-1", "--weyl", "0,-1,0"]) == 1
    assert "expected 2 coordinates, got 3" in capsys.readouterr().err


def test_generate_data_reproduces_bundled_files(tmp_path):
    script = Path(__file__).resolve().parent.parent / "tools" / "generate_data.py"
    spec = importlib.util.spec_from_file_location("generate_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    bundled = sorted(p.name for p in module.OUT.glob("*.json"))
    assert len(bundled) == 14
    assert sorted(p.name for p in tmp_path.glob("*.json")) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (module.OUT / name).read_bytes(), name


def test_bundled_forms_load():
    f, lat = load_form("one-over-delta")
    assert lat.name == "U+U"
    assert f.coefficient(-1, ()) == 1
    assert f.coefficient(0, ()) == 24
    f24, _ = load_form("one-over-delta-x24")
    assert f24.coefficient(0, ()) == 576
    knz, _ = load_form("knz-input")
    assert knz.coefficient(-1, ()) == 1
    assert knz.coefficient(0, ()) == 0
    assert knz.coefficient(1, ()) == 196884
    e4sq, lat2 = load_form("e4sq-over-delta")
    assert lat2.name == "E8+U+U"
    assert e4sq.coefficient(0, ()) == 504


def test_lattice_roundtrip(tmp_path):
    lat = GramLattice([[2, 1], [1, 4]], name="demo")
    path = tmp_path / "demo.json"
    save_lattice(path, lat)
    again = load_lattice(path)
    assert again.gram == lat.gram
    assert again.name == "demo"
    # byte-identical re-emission
    save_lattice(tmp_path / "demo2.json", again)
    assert (tmp_path / "demo.json").read_bytes() == (tmp_path / "demo2.json").read_bytes()


def test_series_roundtrip(tmp_path):
    s = FracQSeries({Fraction(-1): 1, Fraction(1, 4): Fraction(2, 3)}, Fraction(7, 2))
    path = tmp_path / "s.json"
    save_series(path, s)
    again = load_series(path)
    assert again.coeffs == s.coeffs
    assert again.prec == s.prec
    assert again.denominator == s.denominator


def test_form_roundtrip(tmp_path):
    f, _ = load_form("one-over-delta")
    path = tmp_path / "f.json"
    save_form(path, f, "u-plus-u")
    again, _ = load_form(path)
    assert again.coefficients == f.coefficients
    assert again.prec == f.prec
    assert again.weight == f.weight


def test_bad_header_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("wrong header\n{}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="line 1"):
        load_series(path)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("borcherds-kit v1\n{not json\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="line"):
        load_series(path)


def test_data_dir_override(tmp_path, monkeypatch):
    lat = GramLattice([[2]], name="other-a1")
    save_lattice(tmp_path / "special.json", lat)
    monkeypatch.setenv("BORCHERDS_DATA", str(tmp_path))
    loaded = load_lattice("special")
    assert loaded.name == "other-a1"


def test_cli_lattice_info(capsys):
    assert main(["lattice", "info", "e8"]) == 0
    out = capsys.readouterr().out
    assert "rank: 8" in out
    assert "det: 1" in out
    assert "maximal: true" in out


def test_cli_theta(capsys):
    assert main(["theta", "niemeier-a1", "--prec", "2"]) == 0
    out = capsys.readouterr().out
    assert "q^1: 48" in out
    assert "q^2: 195408" in out


def test_cli_theta_to_file_roundtrip(tmp_path):
    out = tmp_path / "theta.json"
    assert main(["theta", "a2", "--prec", "6", "--out", str(out)]) == 0
    series = load_series(out)
    direct = theta_series(GramLattice([[2, -1], [-1, 2]]), 6)
    assert series.coeffs == direct.coeffs


def test_cli_relation(capsys):
    assert main(["relation", "--form", "one-over-delta"]) == 0
    out = capsys.readouterr().out
    assert "1 * Z(1, [])" in out
    assert "-24 * omega" in out


def test_cli_relation_nontrivial_coset(tmp_path, capsys):
    # U+U+A1+A1 has D = Z/2 x Z/2; the coset (1,1) has Q = 1/2, so
    # 2Q = 0 mod 1 and the form stays valid whichever sign the support
    # condition m = +-Q(mu) mod 1 takes
    a1, u = GramLattice([[2]]), GramLattice([[0, 1], [1, 0]])
    lat = direct_sum([u, u, a1, a1], name="U+U+A1+A1")
    disc = discriminant_form(lat)
    assert disc.q((1, 1)) == Fraction(1, 2)
    form = WHForm(disc, 0, {(Fraction(-1, 2), (1, 1)): 2, (Fraction(-1), (0, 0)): 3,
                            (Fraction(0), (0, 0)): 5}, 1)
    save_lattice(tmp_path / "uua1a1.json", lat)
    path = tmp_path / "f.json"
    save_form(path, form, "uua1a1.json")
    assert main(["relation", "--form", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "2 * Z(1/2, [1,1])\n3 * Z(1, [0,0])\n-5 * omega\n"
    assert out.splitlines() == repr(borcherds_relation(form)).split(" + ")


def test_cli_pair(capsys):
    e6 = str(data_directory() / "e6.json")
    assert main(["pair", "--form", "e4sq-over-delta", "--series", e6]) == 0
    assert "pairing: 0" in capsys.readouterr().out


@pytest.mark.parametrize("series, status, out", [
    ("e6", 0, "pairing: 0\n"), ("src/borcherds_kit/data/e6.json", 2, ""),
], ids=["e6", "src/borcherds_kit/data/e6.json"])
def test_cli_pair_reads_a_bundled_series_name(tmp_path, monkeypatch, capsys, series,
                                              status, out):
    # --series resolves as --form and --lattice do, also outside the
    # repository root: a bare name from the database, and a path with a
    # directory part only where it is, so from here it is missing
    monkeypatch.chdir(tmp_path)
    assert main(["pair", "--form", "e4sq-over-delta", "--series", series]) == status
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [
    ["expand", "--lattice", "no/such/dir/u-plus-u.json", "--form", "knz-input",
     "--chamber-point", "2,-1", "--weyl", "0,-1"],
    ["relation", "--form", "no/such/dir/one-over-delta.json"],
    ["pair", "--form", "e4sq-over-delta", "--series", "no/such/dir/e6.json"],
], ids=["--lattice", "--form", "--series"])
def test_cli_missing_path_is_not_read_from_the_database(capsys, argv):
    # a path with a directory part is read only where it is: the bundled
    # file of its name is not a fallback for a mistyped directory
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no such file: no/such/dir/" in captured.err


def test_cli_expand_deterministic(tmp_path):
    args = ["expand", "--lattice", "u-plus-u", "--form", "knz-input",
            "--chamber-point", "2,-1", "--weyl", "0,-1", "--cutoff", "3"]
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "N: 1" in text
    assert "A: 1" in text
    assert "(0,-1) -> 1" in text


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["lattice", "info", "no-such-lattice"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense\n", encoding="utf-8")
    assert main(["lattice", "info", str(bad)]) == 2
    # domain error: expand on a definite lattice (no isotropic line)
    f = WHForm(discriminant_form(GramLattice([[2]])), 0,
               {(Fraction(0), (0,)): 1}, 2)
    form_path = tmp_path / "f.json"
    save_form(form_path, f, "a1")
    assert main(["expand", "--lattice", "a1", "--form", str(form_path),
                 "--chamber-point", "1", "--weyl", "0", "--cutoff", "2"]) == 1
    capsys.readouterr()


def test_cli_rejects_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "info", "e8", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("form, weight", [("knz-input", "0"), ("one-over-delta", "12"),
                                           ("one-over-delta-x24", "288")])
def test_cli_expand_prints_half_the_constant_term(tmp_path, form, weight):
    # the weight line is Borcherds' weight c(0, 0)/2 (c(0, 0) = 0, 24, 576)
    out = tmp_path / "expand.txt"
    assert main(["expand", "--lattice", "u-plus-u", "--form", form, "--chamber-point",
                 "2,-1", "--weyl", "0,-1", "--cutoff", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[4] == f"weight: {weight}"


EXPAND_KNZ = ["expand", "--lattice", "u-plus-u", "--form", "knz-input",
              "--chamber-point", "2,-1", "--weyl", "0,-1"]


# a repeated option takes its last value, so EXPAND_KNZ + [option, value] sets it
@pytest.mark.parametrize("argv, option", [
    (EXPAND_KNZ + ["--cutoff", "1/0"], "--cutoff"),
    (EXPAND_KNZ + ["--cutoff", "abc"], "--cutoff"),
    (EXPAND_KNZ + ["--chamber-point", "1,x"], "--chamber-point"),
    (EXPAND_KNZ + ["--chamber-point", ""], "--chamber-point"),
    (EXPAND_KNZ + ["--weyl", "1/0"], "--weyl"),
    (["theta", "e8", "--prec", "0"], "--prec"),
])
def test_cli_bad_argument_value_exits_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}:" in err
    assert "Traceback" not in err


def test_cli_bad_argument_value_exits_2_in_a_process():
    argv = EXPAND_KNZ + ["--cutoff", "1/0"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "borcherds_kit.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "error: argument --cutoff:" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("cutoff", ["0", "-1", "1/1000"])
def test_cli_nonpositive_cutoff_exits_1(capsys, cutoff):
    assert main(EXPAND_KNZ + ["--cutoff", cutoff]) == 1
    captured = capsys.readouterr()
    assert "cutoff must be positive" in captured.err
    assert captured.out == ""


def test_cli_expand_rank5_search_exhausted_exits_1(tmp_path, capsys, monkeypatch):
    # rank 5 and indefinite, so isotropic (Meyer): a search that runs out is
    # an error, not "no isotropic line"
    from borcherds_kit import lattice as lattice_module
    lat = GramLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                       [0, 0, 0, 2, 0], [0, 0, 0, 0, -14]], name="diag5")
    save_lattice(tmp_path / "diag5.json", lat)
    f = WHForm(discriminant_form(lat), 0, {(Fraction(0), discriminant_form(lat).zero): 1}, 2)
    save_form(tmp_path / "f.json", f, "diag5.json")
    monkeypatch.setattr(lattice_module, "ISOTROPIC_SEARCH_BUDGET", 20)
    assert main(["expand", "--lattice", str(tmp_path / "diag5.json"),
                 "--form", str(tmp_path / "f.json"), "--chamber-point", "1,0,0,0,1",
                 "--weyl", "0,0,0", "--cutoff", "2"]) == 1
    err = capsys.readouterr().err
    assert "isotropic search exhausted" in err and "Meyer" in err
    assert "no isotropic line" not in err
