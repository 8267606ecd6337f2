"""The CLI's frame stays in one place: in `cli`, only `_outdir` makes a
directory, and only `_need` raises the error that names a missing input's
writer. A command that made its own directory or spelled its own writer
would bypass the `COMMANDS` stage table."""

import ast
import inspect

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
