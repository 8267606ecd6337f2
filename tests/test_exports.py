"""Every name a `gridonet` module exports through `__all__` exists in it and is
defined there, so a moved or renamed function cannot leave a stale export or
a re-export behind; only `deeponet` imports the concurrency modules, so
the package's threads stay in its one helper; and importing the package puts
BLAS on one thread before numpy loads, unless the user chose a count."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, "1 1 1"), ("3", "3 1 1")])
def test_import_sets_one_blas_thread_unless_the_user_chose(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(gridonet.__file__).parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, gridonet; print(*(os.environ[k] for k in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == want.split()


def test_the_blas_setting_comes_before_any_import_but_os():
    """BLAS reads its variables when numpy loads, so no import that could load
    numpy may precede the setting in the package's `__init__`."""
    body = ast.parse(inspect.getsource(gridonet)).body
    setting = next(i for i, node in enumerate(body) if ".setdefault(" in ast.unparse(node))
    imports = [ast.unparse(n) for n in body[:setting]
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == ["import os"]
