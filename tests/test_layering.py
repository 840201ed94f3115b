"""Where a solve's verdict is read, and where a usage error is printed.

Every module other than ``eigensolve`` takes its eigenpairs from
``EigenSolveReport.require``, which raises when the solve did not
converge, so none of them reads ``.converged`` itself.  In ``cli``, every
check raises ``InputRefused`` and ``main`` alone turns it into the parser's
usage error, so no other function holds the parser.
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



def test_only_cli_main_prints_a_usage_error():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    callers = [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "error"
    ]
    assert callers == ["main"]
    binders = [
        f"{top.name}:{node.lineno}"
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name not in ("main", "build_parser")
        for node in ast.walk(top)
        if (isinstance(node, ast.arg) and node.arg == "parser")
        or (isinstance(node, ast.Name) and node.id == "parser" and isinstance(node.ctx, ast.Store))
    ]
    assert binders == []
