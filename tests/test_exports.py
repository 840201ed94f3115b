"""Every exported name resolves and every exported function is reached.

A stale ``__all__`` entry fails here, and so does a public function that
only its own tests call.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import nodalscore

MODULES = ["nodalscore"] + [
    f"nodalscore.{info.name}" for info in pkgutil.iter_modules(nodalscore.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [entry for entry in exported if not hasattr(module, entry)] == []


ROOT = Path(__file__).resolve().parents[1]
# the files whose references make an export reached: the library itself,
# the acceptance gates and the benchmark
REACHING_FILES = (
    sorted((ROOT / "src" / "nodalscore").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "perfbench").glob("*.py"))
)
# exported functions no reaching file needs to name, each with its reason
UNREACHED_ON_PURPOSE = {
    "nodalscore.analytic.interval_sine_basis":
        "closed-form oracle that test_core checks compute_score_field against",
}


def _referenced_names(path):
    """Names read as an ast.Name or ast.Attribute, outside the def of that name."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names


def test_every_exported_function_is_reached():
    assert all(path.exists() for path in REACHING_FILES)
    referenced = set().union(*map(_referenced_names, REACHING_FILES))
    unreached = []
    for name in MODULES:
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            qualified = f"{name}.{entry}"
            if (
                inspect.isfunction(getattr(module, entry))
                and entry not in referenced
                and qualified not in UNREACHED_ON_PURPOSE
            ):
                unreached.append(qualified)
    assert unreached == []
    for qualified in UNREACHED_ON_PURPOSE:
        assert qualified.rpartition(".")[2] not in referenced, f"{qualified} is reached now"
