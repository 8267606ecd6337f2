"""The CLI's frame stays in one place: in `cli`, only `_outdir` makes a
directory or removes a file, only `_need` raises the error that names a
missing input's writer, and only `_write_csv` writes a CSV. A command that
made its own directory or spelled its own writer would bypass the `COMMANDS`
stage table, one that removed its own old manifest would keep a second
remove-first rule, and one that wrote its own rows would bypass the named
columns.
Across the package, only `gridonet.write` opens a path for writing, so every
output is hashed as it is written and a failed write names its file.
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


def test_only_outdir_removes_files():
    def removes(node):
        return isinstance(node, ast.Attribute) and (
            node.attr in ("unlink", "rmtree")
            or node.attr == "remove" and ast.unparse(node.value) == "os")

    assert holders(removes) == {"_outdir"}


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


def opened_for_writing(node):
    """The target of `node` if it opens a file for writing, else None: `open`
    or a `.open` method in a w, a, x or + mode (or a mode that is not a
    literal), `write_text` or `write_bytes`."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return ast.unparse(func.value)
    if isinstance(func, ast.Name) and func.id == "open":  # open(file, mode)
        target, args = node.args[0], node.args[1:]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # path.open(mode)
        target, args = func.value, node.args
    else:
        return None
    mode = args[0] if args else next((k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None or (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value)):
        return None
    return ast.unparse(target)


def test_only_write_opens_a_path_for_writing():
    """The one exemption is the simulate child's answer, pickled into the
    write end `w` of the pipe to its caller: a file descriptor, not a path."""
    found = set()
    for module in (gridonet, *(importlib.import_module(f"gridonet.{info.name}")
                               for info in pkgutil.iter_modules(gridonet.__path__))):
        for top in ast.parse(inspect.getsource(module)).body:
            for node in ast.walk(top):
                if (target := opened_for_writing(node)) is not None:
                    found.add((f"{module.__name__}.{getattr(top, 'name', '<module>')}", target))
    assert found == {("gridonet.write", "path"), ("gridonet.gridsim._split", "w")}


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
