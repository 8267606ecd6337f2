"""The benchmark harness's tracer (`perfbench/tracer.py`, loaded by path and
left as it is) can still hook the package: every module it names imports,
`Tracer.install` wraps them and `tensor.Tape.backward`, and `uninstall` puts
every original back. A refactor that deletes a module or a hooked name fails
here rather than crashing the harness."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_harness_tracer_hooks_and_unhooks_every_module():
    tracer = load_tracer()
    modules = {m: importlib.import_module(f"gridonet.{m}") for m in tracer.MODULES}
    t = tracer.Tracer()
    try:
        t.install(modules)
        patched = list(t._patched)
    finally:
        t.uninstall()
    owners = {owner for owner, _, _ in patched}
    assert set(modules.values()) <= owners, "a module has no function the tracer wraps"
    assert (modules["tensor"].Tape, "backward") in {(o, a) for o, a, _ in patched}
    moved = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in patched if getattr(o, a) is not fn]
    assert not moved, f"uninstall left wrappers on {moved}"
