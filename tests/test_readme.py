"""The README's library tour runs, and every value its comments state is
the value it computes."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_computes_the_values_its_comments_state():
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    exec(block, namespace)
    t = namespace["t"]
    assert next(line for line in lines if line.startswith("t = ")).endswith("# 10 vertices, 15 edges")
    assert (t.graph.n, t.graph.edge_count) == (10, 15)
    stated = []
    for stmt in ast.parse(block).body:
        value = re.match(r"\s*(\d+)\b", lines[stmt.end_lineno - 1].partition("#")[2])
        if isinstance(stmt, ast.Expr) and value:
            stated.append((ast.unparse(stmt), eval(ast.unparse(stmt), namespace), int(value[1])))
    assert [want for _, _, want in stated] == [5, 5, 10, 10]
    assert all(got == want for _, got, want in stated), stated
