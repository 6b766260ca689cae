"""The README's Quick start runs, and its annotated values hold.

Each statement of the Quick start block runs in order; an expression
line followed by a comment that opens with a literal (`rep.r_m  # 1.09...`,
`....verdict  # 'blocked'`) must evaluate to exactly that literal.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a number or a quoted string right after the comment sign
_LITERAL = re.compile(r"#\s+('[^']*'|[-+]?\d[\d.]*(?:[eE][-+]?\d+)?)")


def _quick_start() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    return text[start:text.index("\n```", start)]


def test_quick_start_values():
    block = _quick_start()
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
