"""Every ```python block of README.md runs, and each expression line with
a comment gives the value the comment states: the Python literal before
the comment's first ':' (`# 2`, `# (5, 5): ...`, `# True: ...`)."""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.M | re.S)


def _stated(line):
    comment = line.split("#", 1)[1]
    return ast.literal_eval(comment.split(":", 1)[0].strip())


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_gives_stated_values(block):
    lines = block.splitlines()
    ns = {}
    checked = 0
    for stmt in ast.parse(block).body:
        line = lines[stmt.lineno - 1]
        if isinstance(stmt, ast.Expr) and "#" in line:
            got = eval(compile(ast.Expression(stmt.value), "README.md",
                               "eval"), ns)
            assert got == _stated(line), line
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert checked
