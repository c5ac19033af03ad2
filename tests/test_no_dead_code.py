"""The package holds no dead code: every name a module imports is used in
it, every private module-level function or class is referenced from
somewhere else in src/borcherds_kit, every public one, and every public
method, property and `__init__` attribute of a public class, is named in
README or read by code outside tests/, and `__all__` lists exactly the
names the package's `__init__.py` imports, each of which resolves.  No
function imports a module of the package, bar the one cycle listed in
`FUNCTION_IMPORTS`: an import inside a function hides a cycle between
modules."""

import ast
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import borcherds_kit

PACKAGE = Path(borcherds_kit.__file__).resolve().parent
INIT = PACKAGE / "__init__.py"
ROOT = PACKAGE.parents[1]
# the code outside src/ and tests/ that may call the package
SCRIPTS = ("demos", "tools", "perfbench")
# the attributes of builtin types: a read such as `members.add` on a set is
# no evidence that a class member of that name is called
BUILTIN_ATTRIBUTES = frozenset(name for t in (set, frozenset, dict, list, tuple, str,
                                              bytes, int, float, Fraction)
                               for name in dir(t))
# (module, function, imported module) -> why the import cannot move to the
# top of its module
FUNCTION_IMPORTS = {
    ("qseries.py", "_grading_scale", ".lattice"):
        "lattice imports qseries at module level, for the theta series",
}


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


def function_imports(source):
    """{(function, module)} for each import of a package module (relative, or
    of borcherds_kit) inside a function, at any depth of nesting."""
    out = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            out.update((function.name, m) for m in modules
                       if m.startswith(".") or m.split(".")[0] == "borcherds_kit")
    return out


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


def public_definitions(tree):
    """The module-level functions and classes whose names do not start with _."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def attribute_reads(node):
    """Counter of the attributes a tree reads (`x.name` not assigned to)."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store))


def _init_attributes(init):
    """(node, name) for each attribute `__init__` sets on self, by
    `self.name = ...` or `object.__setattr__(self, "name", ...)`."""
    out = []
    for sub in ast.walk(init):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and getattr(sub.value, "id", None) == "self"):
            out.append((sub, sub.attr))
        elif (isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "__setattr__"
              and len(sub.args) == 3 and isinstance(sub.args[1], ast.Constant)):
            out.append((sub, sub.args[1].value))
    return out


def public_members(cls):
    """(node, name) for each public method and property of a class and each
    public attribute its `__init__` sets."""
    out = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__init__":
                out += _init_attributes(node)
            else:
                out.append((node, node.name))
    return [(node, name) for node, name in out if not name.startswith("_")]


def readme_code_names(text):
    """The identifiers inside README's inline code spans."""
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"\w+", span)}


def uncalled_public(sources, scripts, readme):
    """(module, line, name) for each public module-level function or class
    of {module: source}, and each public member (Class.name) of a public
    class, that README does not name in code and that nothing outside tests/
    reads: no other code of the package (the `__init__` re-export aside) and
    none of the scripts, by a name, an attribute or, in a script, a `from`
    import; a member is read only as an attribute, and one whose name is an
    attribute of a builtin type (`BUILTIN_ATTRIBUTES`) only by README."""
    trees = {name: ast.parse(source) for name, source in sources.items()
             if name != "__init__.py"}
    total, attributes = Counter(), Counter()
    for tree in trees.values():
        total.update(references(tree))
        attributes.update(attribute_reads(tree))
    for source in scripts:
        tree = ast.parse(source)
        total.update(references(tree))
        attributes.update(attribute_reads(tree))
        total.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
    named = readme_code_names(readme)
    found = []
    for module, tree in trees.items():
        for node in public_definitions(tree):
            if node.name not in named and total[node.name] - references(node)[node.name] <= 0:
                found.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(module, member.lineno, f"{node.name}.{name}")
                          for member, name in public_members(node) if name not in named
                          and (name in BUILTIN_ATTRIBUTES
                               or attributes[name] - attribute_reads(member)[name] <= 0)]
    return sorted(found)


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
    # a public function read only by itself or re-exported is uncalled; one
    # read by another module, imported by a script or named in README's
    # code is not, and README prose does not count
    sources = {
        "__init__.py": "from .m import dead, in_readme, in_prose\n"
                       "__all__ = ['dead', 'in_readme', 'in_prose']\n",
        "m.py": "def dead(n):\n    return dead(n - 1)\n\n"
                "def used():\n    pass\n\nclass Imported:\n    pass\n\n"
                "def in_readme():\n    pass\n\ndef in_prose():\n    pass\n",
        "n.py": "from . import m\n\nx = m.used\n",
        # of a public class's members, those only tests read are uncalled:
        # an attribute __init__ sets (its own store is no read) and a method
        # read only by itself; a method a script reads or one README names in
        # code is not, and private members are not checked.  A member named
        # like a builtin type's attribute is uncalled unless README names it:
        # `add` is read only as a set's `.add`, `copy` is named in README
        "c.py": "class Box:\n"
                "    def __init__(self, n):\n"
                "        self.unread = n\n"
                "        object.__setattr__(self, 'frozen', n)\n"
                "        self._private = n\n"
                "    def grow(self):\n"
                "        return self.grow()\n"
                "    def shown(self):\n"
                "        pass\n"
                "    @property\n"
                "    def documented(self):\n"
                "        return 1\n"
                "    def add(self, x):\n"
                "        pass\n"
                "    def copy(self):\n"
                "        pass\n"
                "\n"
                "seen = set()\n"
                "seen.add(1)\n",
    }
    scripts = ["from borcherds_kit.m import Imported\n",
               "from borcherds_kit.c import Box\n\nBox(1).shown()\n"]
    readme = ("Call `m.in_readme(x)`; in_prose is named outside code. "
              "Read `Box(n).documented` and `Box(n).copy()`.\n")
    assert uncalled_public(sources, scripts, readme) == [
        ("c.py", 3, "Box.unread"), ("c.py", 4, "Box.frozen"), ("c.py", 6, "Box.grow"),
        ("c.py", 13, "Box.add"), ("m.py", 1, "dead"), ("m.py", 13, "in_prose")]


def test_scans_find_function_level_imports_in_a_snippet():
    source = ("from . import top\nimport json\n\n"
              "def f():\n    from .lattice import x\n    import json\n"
              "    def g():\n        import borcherds_kit.weil\n    return x\n\n"
              "def h():\n    from collections import Counter\n    from .. import up\n")
    assert function_imports(source) == {("f", ".lattice"), ("f", "borcherds_kit.weil"),
                                        ("g", "borcherds_kit.weil"), ("h", "..")}


def test_no_function_imports_a_package_module():
    found = {(name, function, module) for name, source in _modules().items()
             for function, module in function_imports(source)}
    assert found == set(FUNCTION_IMPORTS)


def test_every_import_is_used():
    found = [f"{name}:{line}: {what}" for name, source in _modules().items()
             if name != "__init__.py" for line, what in unused_imports(source)]
    assert found == []


def test_every_private_function_and_class_is_referenced():
    assert unreferenced_private(_modules()) == []


def test_every_public_function_and_class_is_called_or_documented():
    scripts = [path.read_text() for folder in SCRIPTS
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(scripts) >= 10
    readme = (ROOT / "README.md").read_text()
    assert uncalled_public(_modules(), scripts, readme) == []


def test_all_lists_exactly_the_names_init_imports():
    imported, listed = init_imports_and_all(INIT.read_text())
    assert len(listed) == len(set(listed))
    assert set(listed) == imported
    assert [name for name in listed if not hasattr(borcherds_kit, name)] == []
