"""The package ships only what a program calls.

Every public module-level function or class of src/cylpack, and every
public method of its public classes, is referenced at least once by name,
outside its own definition, in src/cylpack/*.py or bench/*.py.  Tests do
not count, nor do the package's _EXPORTS strings: a name only a test
calls belongs in the tests.  A reference is a bare name or an attribute
of that name anywhere in those files; the guard parses the files and
imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylpack"


def _public(name):
    return not name.startswith("_")


def _definitions(tree, module):
    """(qualified name, name) of the module's public functions, classes and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(node, enclosing=frozenset()):
    """(name, enclosing definitions' names) of every bare name and attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def unreferenced(package=sorted(PACKAGE.glob("*.py")), others=sorted((ROOT / "bench").glob("*.py"))):
    """Qualified names of the package files' public definitions that no file refers to."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in [*package, *others]}
    defined = [d for path in package for d in _definitions(trees[path], path.stem)]
    # a name used only inside a definition of that name (a recursive call) is not a use
    used = {name for tree in trees.values() for name, inside in _references(tree)
            if name not in inside}
    return [qualified for qualified, name in defined if name not in used]


def test_every_public_definition_is_referenced():
    assert unreferenced() == []


def test_a_name_only_its_own_body_calls_is_flagged(tmp_path):
    package = []
    for path in sorted(PACKAGE.glob("*.py")):
        package.append(tmp_path / path.name)
        package[-1].write_text(path.read_text())
    with open(tmp_path / "serialize.py", "a") as handle:
        handle.write("\n\nclass Extra:\n    def orphan(self):\n        return self.orphan()\n")
    assert unreferenced(package) == ["serialize.Extra", "serialize.Extra.orphan"]
