"""The package holds no dead code: every name a module imports is used in
it, every private module-level function or class is referenced from
somewhere else in src/borcherds_kit, and `__all__` lists exactly the names
the package's `__init__.py` imports, each of which resolves."""

import ast
from collections import Counter
from pathlib import Path

import borcherds_kit

PACKAGE = Path(borcherds_kit.__file__).resolve().parent
INIT = PACKAGE / "__init__.py"


def imported_names(tree):
    """{name bound by an import: line}, for the imports at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def references(node):
    """Counter of the names a tree reads, bare or as an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def unused_imports(source):
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    read = references(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if not read[name])


def private_definitions(tree):
    """The module-level functions and classes named _x (not dunders)."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def unreferenced_private(sources):
    """(module, line, name) for each private module-level function or class
    that no code outside its own definition reads, over {module: source}.
    An import alone is no reference; `unused_imports` flags an unread one."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = Counter()
    for tree in trees.values():
        total.update(references(tree))
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items() for node in private_definitions(tree)
                  if total[node.name] - references(node)[node.name] <= 0)


def init_imports_and_all(source):
    """(names the module imports by `from`, the literal value of __all__)."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return imported, listed


def _modules():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    return {str(path.relative_to(PACKAGE)): path.read_text() for path in modules}


def test_scans_find_dead_code_in_a_snippet():
    used = "from .x import a, b as c\nimport os.path\n\ndef f():\n    return a + os.sep\n"
    assert unused_imports(used) == [(1, "c")]
    # a private function read only inside itself is dead; one read by another
    # module, as a name or an attribute, is not
    sources = {
        "m.py": "def _dead(n):\n    return _dead(n - 1)\n\n"
                "def _used():\n    pass\n\nclass _Kept:\n    pass\n\n"
                "def public():\n    return _Kept\n",
        "n.py": "from . import m\nfrom .m import public\n\nx = m._used\n",
    }
    assert unreferenced_private(sources) == [("m.py", 1, "_dead")]
    imported, listed = init_imports_and_all(
        "from .m import public, _hidden\n__all__ = ['public', 'gone']\n")
    assert imported == {"public", "_hidden"} and listed == ["public", "gone"]


def test_every_import_is_used():
    found = [f"{name}:{line}: {what}" for name, source in _modules().items()
             if name != "__init__.py" for line, what in unused_imports(source)]
    assert found == []


def test_every_private_function_and_class_is_referenced():
    assert unreferenced_private(_modules()) == []


def test_all_lists_exactly_the_names_init_imports():
    imported, listed = init_imports_and_all(INIT.read_text())
    assert len(listed) == len(set(listed))
    assert set(listed) == imported
    assert [name for name in listed if not hasattr(borcherds_kit, name)] == []
