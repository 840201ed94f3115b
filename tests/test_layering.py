"""Where a solve's verdict is read.

Every module other than ``eigensolve`` takes its eigenpairs from
``EigenSolveReport.require``, which raises when the solve did not
converge, so none of them reads ``.converged`` itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nodalscore"


def test_only_eigensolve_reads_converged():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "eigensolve.py" in paths
    readers = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "eigensolve.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "converged"
    ]
    assert readers == []
