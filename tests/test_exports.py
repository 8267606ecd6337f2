"""Every name a `gridonet` module exports through `__all__` exists in it, so a
moved or renamed function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import gridonet

MODULES = [importlib.import_module(f"gridonet.{info.name}")
           for info in pkgutil.iter_modules(gridonet.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
