"""Every name a `gridonet` module exports through `__all__` exists in it and is
defined there, so a moved or renamed function cannot leave a stale export or
a re-export behind."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import gridonet

MODULES = [importlib.import_module(f"gridonet.{info.name}")
           for info in pkgutil.iter_modules(gridonet.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def top_level_definitions(module) -> set[str]:
    """Names bound at the top level of a module's source by def, class or
    assignment; imports do not count."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_are_defined_in_their_module(module):
    foreign = sorted(set(module.__all__) - top_level_definitions(module))
    assert not foreign, f"{module.__name__}.__all__ re-exports {foreign}"
