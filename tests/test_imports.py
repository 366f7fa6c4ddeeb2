"""The package needs numpy and the standard library alone: scipy and the
other test-only tools serve the tests, never ``src/``."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "neharifrac"
ALLOWED = {"numpy", "neharifrac"}


def _top_level_names(tree: ast.Module):
    # the top-level package of every import statement, a relative import
    # being the package itself
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "neharifrac" if node.level else node.module.split(".")[0]


def test_the_package_imports_numpy_and_the_standard_library_alone():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {(path.name, name) for path in files
               for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
               if name not in ALLOWED and name not in sys.stdlib_module_names}
    assert not foreign
