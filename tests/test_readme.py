"""The README's Quick start runs, and its annotated values hold; its
command lines run.

Each statement of the Quick start block runs in order; an expression
line followed by a comment that opens with a literal (`rep.r_m  # 1.09...`,
`....verdict  # 'blocked'`) must evaluate to exactly that literal.  Each
`cylpack ...` line of the Command line block must exit 0.
"""

import ast
import re
import shlex
from pathlib import Path

from cylpack.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# a number or a quoted string right after the comment sign
_LITERAL = re.compile(r"#\s+('[^']*'|[-+]?\d[\d.]*(?:[eE][-+]?\d+)?)")


def _block(section: str, fence: str) -> str:
    text = README.read_text()
    start = text.index(fence, text.index(section)) + len(fence)
    return text[start:text.index("\n```", start)]


def test_quick_start_values():
    block = _block("## Quick start", "```python\n")
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        found = _LITERAL.search(lines[stmt.lineno - 1])
        if isinstance(stmt, ast.Expr) and found:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            expected = ast.literal_eval(found.group(1))
            assert value == expected, f"{ast.unparse(stmt)}: {value!r} != {expected!r}"
            checked.append(ast.unparse(stmt))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [
        "rep.r_m",
        "rep.d_m",
        "sample.f_value",
        "cylpack.unlock_verdict(3.14159 / 3).verdict",
        "cylpack.unlock_verdict(2.0).verdict",
    ]


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
