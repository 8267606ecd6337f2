"""The CLI's frame stays in one place: in `cli`, only `_outdir` makes a
directory, only `_need` raises the error that names a missing input's
writer, and only `_write_csv` writes a CSV. A command that made its own
directory or spelled its own writer would bypass the `COMMANDS` stage
table, and one that wrote its own rows would bypass the named columns.
Every error the package defines is a `gridonet.Error`, and `main` turns
one into one line, exit 2 for a `UsageError` and 1 for any other, so none
ends in a traceback and no list of error classes needs keeping in step."""

import ast
import importlib
import inspect
import pkgutil

import gridonet
from gridonet import cli

TREE = ast.parse(inspect.getsource(cli))


def holders(match) -> set[str]:
    """The top-level definitions of `cli` (by name; "<module>" for other
    statements) that hold a node for which `match` is true."""
    found = set()
    for top in TREE.body:
        if any(match(node) for node in ast.walk(top)):
            found.add(getattr(top, "name", "<module>"))
    return found


def test_only_outdir_makes_directories():
    def makes_dir(node):
        return isinstance(node, ast.Attribute) and node.attr in ("mkdir", "makedirs")

    assert holders(makes_dir) == {"_outdir"}


def test_only_need_names_the_writer_of_a_missing_input():
    def raises_missing(node):
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str)
            and c.value.startswith("missing ") for c in ast.walk(node.exc))

    assert holders(raises_missing) == {"_need"}


def test_only_write_csv_writes_csv():
    def writes_csv(node):
        return (isinstance(node, ast.Attribute) and node.attr == "writer"
                and isinstance(node.value, ast.Name) and node.value.id == "csv")

    assert holders(writes_csv) == {"_write_csv"}


def package_errors() -> dict:
    """The exception classes that the package's modules define, by name."""
    found = {}
    for info in pkgutil.iter_modules(gridonet.__path__):
        module = importlib.import_module(f"gridonet.{info.name}")
        found |= {name: c for name, c in inspect.getmembers(module, inspect.isclass)
                  if issubclass(c, Exception) and c.__module__ == module.__name__}
    return found


def test_every_package_error_is_an_error_and_main_catches_usage_then_error():
    errors = package_errors()
    assert "UsageError" in errors and len(errors) >= 10
    assert {name: c.__bases__ for name, c in errors.items()
            if c.__bases__ != (gridonet.Error,)} == {}
    main = next(top for top in TREE.body if getattr(top, "name", None) == "main")
    handlers = [(ast.unparse(h.type), h.body[-1].value.value)
                for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handlers == [("UsageError", 2), ("Error", 1)]
