"""The package ships only what a program calls.

Every public module-level function or class of src/cylpack, and every
public method or `name = property(...)` member of its public classes, is
referenced at least once by name, outside its own definition, in
src/cylpack/*.py or bench/*.py.  Tests do not count, nor do the package's
_EXPORTS strings: a name only a test calls belongs in the tests.  A
module-level name is referenced by a bare name or an attribute of that
name anywhere in those files; a class member only by an attribute
(`x.name`), since a bare name of the same spelling is some other binding.
The guard parses the files and imports nothing.

A second guard keeps each layout in one module: the pair kernel's table
(_pair_kernel, _frame_xyz, _frame_table, _take_index, _chart_index and
_slope_index) is named only in lines.py, the ring's longitudes (_ring_lons)
only in symmetric.py, and the dual QP and its tableau (_dual_qp, _tableau) only in search.py.
A third finds shadowed definitions: no module or class body of src/ or
tests/ defines a name twice by def or class, where the second silently
replaces the first (a test defined twice runs once).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylpack"


def _public(name):
    return not name.startswith("_")


def _members(cls):
    """Names of a class body's methods and `name = property(...)` assignments."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
              and isinstance(item.value.func, ast.Name) and item.value.func.id == "property"):
            yield from (target.id for target in item.targets if isinstance(target, ast.Name))


def _definitions(tree, module):
    """(qualified name, name, whether a class member) of the module's public functions and
    classes and of their public members."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for name in filter(_public, _members(node)):
                    yield f"{module}.{node.name}.{name}", name, True


def _references(node, enclosing=frozenset()):
    """(name, whether an attribute, enclosing definitions' names) of every bare name and
    attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def unreferenced(package=sorted(PACKAGE.glob("*.py")), others=sorted((ROOT / "bench").glob("*.py"))):
    """Qualified names of the package files' public definitions that no file refers to."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in [*package, *others]}
    defined = [d for path in package for d in _definitions(trees[path], path.stem)]
    # a name used only inside a definition of that name (a recursive call) is not a use
    refs = [(name, attr) for tree in trees.values() for name, attr, inside in _references(tree)
            if name not in inside]
    used = {name for name, _ in refs}
    attributes = {name for name, attr in refs if attr}
    return [qualified for qualified, name, member in defined
            if name not in (attributes if member else used)]


def test_every_public_definition_is_referenced():
    assert unreferenced() == []


def _with_extra(tmp_path, text):
    """Copies of the package files, with text appended to serialize.py."""
    package = []
    for path in sorted(PACKAGE.glob("*.py")):
        package.append(tmp_path / path.name)
        package[-1].write_text(path.read_text())
    with open(tmp_path / "serialize.py", "a") as handle:
        handle.write(text)
    return package


def test_a_name_only_its_own_body_calls_is_flagged(tmp_path):
    package = _with_extra(tmp_path, "\n\nclass Extra:\n    def orphan(self):\n"
                                    "        return self.orphan()\n")
    assert unreferenced(package) == ["serialize.Extra", "serialize.Extra.orphan"]


def test_a_property_only_a_bare_name_spells_is_flagged(tmp_path):
    package = _with_extra(tmp_path, "\n\nclass Extra:\n    spare = property(lambda self: 0)\n"
                                    "\n\ndef _use(spare):\n    return Extra(), spare\n")
    assert unreferenced(package) == ["serialize.Extra.spare"]


# each layout name and the one module that may name it
LAYOUT_HOMES = {**dict.fromkeys(["_pair_kernel", "_frame_xyz", "_frame_table", "_take_index",
                                 "_chart_index", "_slope_index"], "lines"),
                "_ring_lons": "symmetric", "_dual_qp": "search", "_tableau": "search"}


def layout_references(package=sorted(PACKAGE.glob("*.py"))):
    """(module, name) of every naming of a layout name outside its home, imports included."""
    found = []
    for path in package:
        names = {name for name, home in LAYOUT_HOMES.items() if home != path.stem}
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.stem, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name in names]
        found += [(path.stem, name) for name, _, _ in _references(tree) if name in names]
    return found


def test_each_layout_is_named_only_in_its_home():
    assert layout_references() == []


@pytest.mark.parametrize("home, name", [("lines", "_pair_kernel"), ("symmetric", "_ring_lons")])
def test_a_layout_call_outside_its_home_is_flagged(tmp_path, home, name):
    # the import and the call, each inside whatever definition names it
    package = _with_extra(tmp_path, f"\n\nfrom .{home} import {name}\n\n\n"
                                    "def _measure(table, index):\n"
                                    f"    return {name}(table, index)\n")
    assert layout_references(package) == [("serialize", name)] * 2


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def redefined(paths=sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])):
    """(file, body, name) of every name that a module or class body defines twice."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for body in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
            names = [node.name for node in body.body if isinstance(node, DEFINITIONS)]
            found += [(path.name, getattr(body, "name", "<module>"), name)
                      for name in sorted({name for name in names if names.count(name) > 1})]
    return found


def test_no_body_defines_a_name_twice():
    assert redefined() == []


def test_a_second_definition_is_flagged(tmp_path):
    path = tmp_path / "twice.py"
    path.write_text("def f():\n    pass\n\n\nclass T:\n    def test(self):\n        pass\n\n"
                    "    def test(self):\n        pass\n\n\nclass f:\n    pass\n")
    assert redefined([path]) == [("twice.py", "<module>", "f"), ("twice.py", "T", "test")]
