"""The README's library tour runs, and its commented results hold."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_results():
    """(value, claim) for each expression line of the tour, claim being its comment up to ':' or ';'."""
    text = README.read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    results = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            claim = re.search(r"#\s*([^:;]+)", lines[node.end_lineno - 1]).group(1).strip()
            results.append((eval(code, namespace), claim))
        else:
            exec(code, namespace)
    return results


def test_library_tour():
    results = tour_results()
    assert [claim for _, claim in results] == ["4.0", "0", "> 0", "-1.0"]
    for value, claim in results:
        if claim == "> 0":
            assert value > 0
        else:
            assert value == pytest.approx(float(claim), abs=1e-12)
