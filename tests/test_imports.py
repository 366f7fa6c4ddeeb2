"""The package needs numpy and the standard library alone: scipy and the
other test-only tools serve the tests, never ``src/``."""

import ast
import importlib.util
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


def _used_names(tree: ast.Module):
    # (module, name) for every ``nf.<name>`` read and every name imported
    # from neharifrac or one of its modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "nf"):
            yield "neharifrac", node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("neharifrac"):
            yield from ((node.module, alias.name) for alias in node.names)


def test_the_benchmark_demos_and_tools_use_names_the_package_has():
    # perfbench/ is frozen between benchmark changes, so a name it uses
    # that leaves the package must fail here, not in a benchmark run
    root = PACKAGE.parents[1]
    used = {(path.relative_to(root).as_posix(), module, name)
            for folder in ("perfbench", "demos", "tools")
            for path in sorted((root / folder).glob("*.py"))
            for module, name in _used_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert {name for path, _, name in used if path.startswith("perfbench/")} >= {
        "GridFunction", "GridSpec", "ProblemSpec", "WeightSpec", "validate_params",
        "assemble_form", "seminorm_sq", "apply_form", "brute_force_norm"}
    def resolves(module, name):
        # a name of the module, or a submodule that ``from module import``
        # loads
        if hasattr(importlib.import_module(module), name):
            return True
        return importlib.util.find_spec(f"{module}.{name}") is not None

    assert not {(path, module, name) for path, module, name in used
                if not resolves(module, name)}
