"""The Quick starts of README.md and PAPER.md run, and their annotated values
hold; PAPER.md's Install and Quick start sections are README's, byte for byte;
the README's command lines run; its Layout table names only what exists.

Each statement of a Quick start block runs in order; an expression
line followed by a comment that opens with a literal (`rep["computed"]["r"]  # 1.09...`,
`...["verdict"]  # 'blocked'`) must evaluate to exactly that literal.  Each
`cylpack ...` line of the Command line block must exit 0.  Each module of
the package has a Layout row, and every backticked name in a row resolves.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cylpack
from cylpack.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PAPER = README.with_name("PAPER.md")

# a number or a quoted string right after the comment sign
_LITERAL = re.compile(r"#\s+('[^']*'|[-+]?\d[\d.]*(?:[eE][-+]?\d+)?)")
# a dotted Python name; other backticked text (flags, shapes, commands) is prose
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _block(section: str, fence: str, path: Path = README) -> str:
    text = path.read_text()
    start = text.index(fence, text.index(section)) + len(fence)
    return text[start:text.index("\n```", start)]


@pytest.mark.parametrize("path", [README, PAPER], ids=lambda path: path.name)
def test_quick_start_values(path):
    block = _block("## Quick start", "```python\n", path)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        found = _LITERAL.search(lines[stmt.lineno - 1])
        if isinstance(stmt, ast.Expr) and found:
            value = eval(compile(ast.Expression(stmt.value), path.name, "eval"), namespace)
            expected = ast.literal_eval(found.group(1))
            assert value == expected, f"{ast.unparse(stmt)}: {value!r} != {expected!r}"
            checked.append(ast.unparse(stmt))
        else:
            exec(compile(ast.Module([stmt], []), path.name, "exec"), namespace)
    assert checked == [
        "rep['computed']['r']",
        "rep['computed']['d']",
        "sample.f_value",
        "cylpack.unlock_verdict(3.14159 / 3)['verdict']",
        "cylpack.unlock_verdict(2.0)['verdict']",
        "cylpack.certify(result.best)['class']",
    ]


def _section(heading: str, path: Path) -> str:
    """The text of a section, from its heading to the next one."""
    text = path.read_text()
    start = text.index(f"\n{heading}\n")
    return text[start:text.index("\n## ", start + 1)]


@pytest.mark.parametrize("heading", ["## Install", "## Quick start"])
def test_paper_repeats_readme_sections(heading):
    assert _section(heading, PAPER) == _section(heading, README)


def test_command_lines_exit_zero(tmp_path):
    ran = []
    for line in _block("## Command line", "```sh\n").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cylpack", line
        argv = argv[1:]
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == 0, line
        ran.append(argv[0])
    assert "export-scene" in ran


def _attr_path(owner, parts):
    """Whether each of parts is an attribute of what the part before it names."""
    for part in parts:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _resolves(name, module, classes):
    """Whether name is the package or a module or attribute under it (`cylpack.lines`), or an
    attribute of the row's module or of a class the row names (`Configuration.dsq`, `lines`)."""
    head, *parts = name.split(".")
    if head == "cylpack":
        return _attr_path(cylpack, parts)
    return any(_attr_path(owner, [head, *parts]) for owner in (module, *classes))


def test_layout_names_exist():
    text = README.read_text()
    start = text.index("## Layout")
    end = text.find("\n## ", start)
    rows = [re.findall(r"`([^`]+)`", line)
            for line in text[start:None if end < 0 else end].splitlines() if line.startswith("| `")]
    modules = [names[0] for names in rows]
    submodules = sorted(f"cylpack.{m.name}" for m in pkgutil.iter_modules(cylpack.__path__))
    assert sorted(modules) == ["cylpack", *submodules]
    missing, checked = [], 0
    for module_name, *names in rows:
        module = importlib.import_module(module_name)
        names = [name for name in names if _NAME.fullmatch(name)]
        classes = [c for c in (getattr(module, n, None) for n in names) if inspect.isclass(c)]
        for name in names:
            checked += 1
            if not _resolves(name, module, classes):
                missing.append(f"{module_name}: {name}")
    assert not missing, missing
    assert checked >= 15
