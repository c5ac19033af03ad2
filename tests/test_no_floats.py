"""The package computes without floating point: no module under
src/borcherds_kit holds a float constant or calls float()."""

import ast
from pathlib import Path

import borcherds_kit

PACKAGE = Path(borcherds_kit.__file__).resolve().parent


def float_uses(source):
    """(line, what) for each float or complex constant and float() call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...)"


def test_scan_finds_float_constants_and_calls():
    found = set(float_uses("r = int(n ** 0.5)\nx = float(y) + 1j\nz = 2 // 3\n"))
    assert found == {(1, "0.5"), (2, "float(...)"), (2, "1j")}


def test_no_floating_point_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.relative_to(PACKAGE)}:{line}: {what}"
             for path in modules for line, what in float_uses(path.read_text())]
    assert found == []
