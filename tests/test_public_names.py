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
"""

import ast
from pathlib import Path

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
