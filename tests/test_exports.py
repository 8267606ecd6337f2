"""Every name a `gridonet` module exports through `__all__` exists in it and is
defined there, so a moved or renamed function cannot leave a stale export or
a re-export behind; and only `deeponet` imports the concurrency modules, so
the package's threads stay in its one helper."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import gridonet

MODULES = [importlib.import_module(f"gridonet.{info.name}")
           for info in pkgutil.iter_modules(gridonet.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]
CONCURRENCY = {"concurrent", "contextvars", "threading"}


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


def imported_packages(module) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_deeponet_imports_concurrency():
    users = {m.__name__: imported_packages(m) & CONCURRENCY for m in MODULES}
    assert {k: v for k, v in users.items() if v} == {"gridonet.deeponet": CONCURRENCY}
