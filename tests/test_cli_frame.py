"""The CLI's frame stays in one place: in `cli`, only `_outdir` makes a
directory, only `_need` raises the error that names a missing input's
writer, and only `_write_csv` writes a CSV. A command that made its own
directory or spelled its own writer would bypass the `COMMANDS` stage
table, and one that wrote its own rows would bypass the named columns.
`main` turns every error the package defines into one line, so none ends in
a traceback."""

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


def package_errors() -> set[str]:
    """The names of the exception classes that the package's modules define."""
    found = set()
    for info in pkgutil.iter_modules(gridonet.__path__):
        module = importlib.import_module(f"gridonet.{info.name}")
        found |= {name for name, c in inspect.getmembers(module, inspect.isclass)
                  if issubclass(c, Exception) and c.__module__ == module.__name__}
    return found


def test_main_exits_1_on_every_package_error_but_usage():
    main = next(top for top in TREE.body if getattr(top, "name", None) == "main")
    exit_1 = [h for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)
              and any(isinstance(r, ast.Return) and getattr(r.value, "value", None) == 1
                      for r in h.body)]
    assert len(exit_1) == 1
    caught = {t.attr if isinstance(t, ast.Attribute) else t.id for t in exit_1[0].type.elts}
    assert package_errors() - {"UsageError"} <= caught
