"""The package ships only what a program calls.

Every public module-level function or class of src/cylpack, and every
public method, `name = property(...)` member or dataclass field of its
public classes, is referenced at least once by name, outside its own
definition, in src/cylpack/*.py or bench/*.py: a field is then read,
not only stored.  Tests do not count, nor do the package's
_EXPORTS strings: a name only a test calls belongs in the tests.  A
module-level name is referenced by a bare name or an attribute of that
name anywhere in those files; a class member only by an attribute
(`x.name`), since a bare name of the same spelling is some other binding.
The guard parses the files and imports nothing.

A second guard keeps each layout in one module: the pair kernel's table
(_pair_kernel, _frame_xyz, _frame_table, _take_index, _chart_index and
_slope_index) is named only in lines.py, and so are triu_indices and
combinations, since every other module reads a chart's pairs from
lines._pairs; the ring's longitudes and row rule
(_ring_lons, _ring_rows), its algebraic chart and range check (_alg_map,
_check_tilt_and_twist), its closed form (_neighbor_dists_sq) and the
six-line family's orbit columns (_ORBIT_COLS) only in symmetric.py; the
dual QP and its tableau (_dual_qp, _tableau) only in search.py; and the mesh
builders (_sphere_records, _tube_records), which skip the checks scene_obj makes,
only in scene.py, where only scene_obj calls them.  No test module names a
process's page-fault count or peak resident size (the ru_ fields of
resource.getrusage), in its code or in code it runs in another process: tests
measure memory by traced peaks (helpers.traced_peak_mb), which read the same in
every heap layout and bytecode state.
A third keeps the bench running: every name that bench/*.py imports from
the package root is exported there, and its call of local_maximize binds.
The names only the bench reads (objective and chart_c6, aliases of
min_pairwise_distance and build_c6, distance_sq, make_tangent_line and
SphericalPoint) are named in src/ only in their home modules, as the
layouts are, and the bench imports each, so deleting one from the bench
deletes its last use.
A fourth finds shadowed definitions: no module or class body of src/ or
tests/ defines a name twice by def or class, where the second silently
replaces the first (a test defined twice runs once).
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import cylpack
from cylpack.search import chart_record, local_maximize

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylpack"


def _public(name):
    return not name.startswith("_")


def _is_dataclass(cls):
    """Whether a class is decorated @dataclass or @dataclass(...)."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _members(cls):
    """Names of a class body's methods, `name = property(...)` assignments and, in a dataclass,
    annotated fields."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
              and isinstance(item.value.func, ast.Name) and item.value.func.id == "property"):
            yield from (target.id for target in item.targets if isinstance(target, ast.Name))
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _is_dataclass(cls):
            yield item.target.id


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


def _with_extra(tmp_path, text, module="serialize"):
    """Copies of the package files, with text appended to the module's."""
    package = []
    for path in sorted(PACKAGE.glob("*.py")):
        package.append(tmp_path / path.name)
        package[-1].write_text(path.read_text())
    with open(tmp_path / f"{module}.py", "a") as handle:
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


def test_a_stored_field_no_program_reads_is_flagged(tmp_path):
    # both fields are stored, only kept is read; a plain class's annotation is no field
    package = _with_extra(tmp_path, "\n\n@dataclass(frozen=True)\nclass Extra:\n    kept: float\n"
                                    "    spare: float\n\n\nclass Plain:\n    loose: float\n"
                                    "\n\ndef _use(spare):\n    return Extra(1.0, spare).kept, Plain\n")
    assert unreferenced(package) == ["serialize.Extra.spare"]


# each layout name and the one module that may name it
LAYOUT_HOMES = {**dict.fromkeys(["_pair_kernel", "_frame_xyz", "_frame_table", "_take_index",
                                 "_chart_index", "_slope_index", "triu_indices", "combinations"],
                                "lines"),
                **dict.fromkeys(["_ring_lons", "_ring_rows", "_alg_map", "_neighbor_dists_sq",
                                 "_check_tilt_and_twist", "_ORBIT_COLS"], "symmetric"),
                "_dual_qp": "search", "_tableau": "search",
                "_sphere_records": "scene", "_tube_records": "scene"}
# layout names that skip their inputs' checks, and the one definition in their home that may call them
SOLE_CALLERS = {"_sphere_records": "scene_obj", "_tube_records": "scene_obj"}


def layout_references(package=sorted(PACKAGE.glob("*.py")), homes=LAYOUT_HOMES, sole_callers=SOLE_CALLERS):
    """(module, name) of every naming of a name of homes outside its home, imports included, and
    of a name of sole_callers in its home outside its sole caller."""
    found = []
    for path in package:
        names = {name for name, home in homes.items() if home != path.stem}
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.stem, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name in names]
        found += [(path.stem, name) for name, _, inside in _references(tree)
                  if name in names or name in sole_callers and sole_callers[name] not in inside]
    return found


def test_each_layout_is_named_only_in_its_home():
    assert layout_references() == []


@pytest.mark.parametrize("home, name", [("lines", "_pair_kernel"), ("symmetric", "_ring_lons"),
                                        ("symmetric", "_ring_rows")])
def test_a_layout_call_outside_its_home_is_flagged(tmp_path, home, name):
    # the import and the call, each inside whatever definition names it
    package = _with_extra(tmp_path, f"\n\nfrom .{home} import {name}\n\n\n"
                                    "def _measure(table, index):\n"
                                    f"    return {name}(table, index)\n")
    assert layout_references(package) == [("serialize", name)] * 2


# the resource-usage fields whose counts follow the heap's layout, spelled here in parts so
# that this file names neither
RUSAGE_FIELDS = tuple(f"ru_{field}" for field in ("minflt", "maxrss"))


def rusage_reads(paths=sorted((ROOT / "tests").glob("*.py"))):
    """(file, field) of every naming of a field of RUSAGE_FIELDS in the files' text, code strings
    run in another process included."""
    pattern = re.compile(rf"\b({'|'.join(RUSAGE_FIELDS)})\b")
    return [(path.name, match[0]) for path in paths for match in pattern.finditer(path.read_text())]


def test_memory_is_measured_only_by_traced_peaks():
    assert rusage_reads() == []


def test_a_fault_count_in_a_test_is_flagged(tmp_path):
    # read in the test's process, and in code it hands a fresh one
    faults, rss = RUSAGE_FIELDS
    path = tmp_path / "test_faults.py"
    path.write_text(f"import resource\nimport subprocess\nimport sys\n\n\ndef test_faults():\n"
                    f"    assert resource.getrusage(resource.RUSAGE_SELF).{faults} < 50\n"
                    f"    code = 'import resource; print(resource.getrusage(resource.RUSAGE_SELF).{rss})'\n"
                    f"    subprocess.run([sys.executable, '-c', code], check=True)\n")
    assert rusage_reads([path]) == [("test_faults.py", faults), ("test_faults.py", rss)]


@pytest.mark.parametrize("name", ["_sphere_records", "_tube_records"])
def test_a_second_mesh_caller_is_flagged(tmp_path, name):
    # in scene.py itself, a call from a definition other than scene_obj, and one at module level
    package = _with_extra(tmp_path, f"\n\ndef _preview(*args):\n    return {name}(*args)\n"
                                    f"\n\nPREVIEW = {name}\n", module="scene")
    assert layout_references(package) == [("scene", name)] * 2


@pytest.mark.parametrize("name, text", [
    ("combinations", "from itertools import combinations"),
    ("combinations", "import itertools\n\nPAIRS = list(itertools.combinations(range(6), 2))"),
    ("triu_indices", "import numpy as np\n\nI, J = np.triu_indices(6, 1)")])
def test_a_pair_list_outside_lines_is_flagged(tmp_path, name, text):
    # a module that lists a chart's pairs itself, not through lines._pairs
    assert layout_references(_with_extra(tmp_path, f"\n\n{text}\n")) == [("serialize", name)]


def bench_imports(paths=sorted((ROOT / "bench").glob("*.py"))):
    """(file, name) of every name that a `from cylpack import ...` in the bench files imports."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "cylpack" and not node.level
                  for alias in node.names]
    return found


def unexported(names, exports):
    """The (file, name) pairs whose name is neither a submodule nor an export in exports, a dict
    shaped as cylpack._EXPORTS."""
    public = set(exports).union(*exports.values())
    return [(file, name) for file, name in names if name not in public]


def test_every_name_the_bench_imports_resolves():
    # the bench imports from the package root, so a name moved between modules must stay exported
    names = bench_imports()
    assert len(names) >= 15 and unexported(names, cylpack._EXPORTS) == []
    for _, name in names:
        getattr(cylpack, name)


def test_a_name_dropped_from_the_exports_is_flagged():
    planted = {module: tuple(name for name in names if name != "FreeConfig")
               for module, names in cylpack._EXPORTS.items()}
    assert unexported(bench_imports(), planted) == [("workloads.py", "FreeConfig")]


# the names only the bench reads, each with the one module of src/ that may name it, and the
# function each alias among them is
BENCH_ONLY = {"objective": "lines", "chart_c6": "symmetric", "distance_sq": "lines",
              "make_tangent_line": "lines", "SphericalPoint": "lines"}
BENCH_ALIASES = {"objective": "min_pairwise_distance", "chart_c6": "build_c6"}


def test_the_bench_only_names_are_named_only_in_their_homes():
    assert layout_references(homes=BENCH_ONLY, sole_callers={}) == []
    for alias, function in BENCH_ALIASES.items():
        home = getattr(cylpack, BENCH_ONLY[alias])
        assert getattr(home, alias) is getattr(home, function), alias
    assert set(BENCH_ONLY) <= {name for _, name in bench_imports()}


@pytest.mark.parametrize("home, name", [("lines", "objective"), ("symmetric", "chart_c6")])
def test_a_bench_only_name_outside_its_home_is_flagged(tmp_path, home, name):
    # a check that measures through the bench's name rather than the function it names
    package = _with_extra(tmp_path, f"\n\nfrom .{home} import {name}\n\n\n"
                                    f"def _measure(p):\n    return {name}(p)\n", module="acceptance")
    assert layout_references(package, BENCH_ONLY, {}) == [("acceptance", name)] * 2


def test_the_bench_call_of_local_maximize_binds():
    # bench/workloads.py passes the budget, step0, step_min and a poll seed by position
    inspect.signature(local_maximize).bind(chart_record(), 200000, 0.1, 1e-9, 0)


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
