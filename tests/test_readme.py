"""The README's ``python`` blocks run, in order, in one namespace, and each
of their expression lines whose comment begins ``True`` or ``False``
evaluates to that."""

import ast
import re

import golden


def _python_blocks() -> list[tuple[int, str]]:
    """(line number of the first line, source) of each ``python`` block."""
    blocks, current = [], None
    with open(golden.README, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.startswith("```"):
                if current is not None:
                    blocks.append(current)
                current = (number + 1, "") if line.strip() == "```python" else None
            elif current is not None:
                current = (current[0], current[1] + line)
    return blocks


def test_readme_python_blocks_run_in_order():
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    checked = 0
    for first, source in blocks:
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            where = f"README.md:{first + stmt.lineno - 1}"
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), where, "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), where, "eval"), namespace)
            claim = re.search(r"#\s*(True|False)\b", lines[stmt.end_lineno - 1])
            if claim:
                assert value is (claim.group(1) == "True"), f"{where}: {lines[stmt.lineno - 1]}"
                checked += 1
    assert checked == 3
