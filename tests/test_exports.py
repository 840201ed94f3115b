"""Every exported name resolves, so a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

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
