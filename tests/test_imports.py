"""The package needs numpy and the standard library alone: scipy and the
other test-only tools serve the tests, never ``src/``. It raises its own
errors alone, each of which it raises somewhere."""

import ast
import builtins
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


def _constructed(tree: ast.Module):
    # the class each ``raise X(...)`` names
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            yield ast.unparse(node.exc.func)


def _violation_kinds(tree: ast.Module):
    # the first names of the (kind, message) pairs ``validate_params``
    # collects as ``violations``
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "violations.append"
                and isinstance(node.args[0], ast.Tuple)):
            yield ast.unparse(node.args[0].elts[0])


def _uncaught_bare_builtins(node: ast.AST, caught: frozenset = frozenset()):
    # a builtin exception raised bare (``raise OverflowError``) that no
    # enclosing try of its own function catches
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        caught = frozenset()
    if isinstance(node, ast.Try):
        handled = {n.id for h in node.handlers if h.type is not None
                   for n in ast.walk(h.type) if isinstance(n, ast.Name)}
        for child in node.body:
            yield from _uncaught_bare_builtins(child, caught | handled)
        for child in node.handlers + node.orelse + node.finalbody:
            yield from _uncaught_bare_builtins(child, caught)
        return
    if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
            and hasattr(builtins, node.exc.id) and node.exc.id not in caught):
        yield node.exc.id
    for child in ast.iter_child_nodes(node):
        yield from _uncaught_bare_builtins(child, caught)


def test_the_package_raises_its_own_errors_and_each_of_them():
    # cli.main maps a package error to its exit code; a builtin one would
    # leave that decision to whoever catches it
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    constructed = {(name, cls) for name, tree in trees.items() for cls in _constructed(tree)}
    # _raise_first raises the class of the first violation, its ``cls``
    assert not {(name, cls) for name, cls in constructed if cls not in classes | {"cls"}}
    assert not {(name, cls) for name, tree in trees.items()
                for cls in _uncaught_bare_builtins(tree)}
    kinds = {kind for tree in trees.values() for kind in _violation_kinds(tree)}
    assert classes == {cls for _, cls in constructed} - {"cls"} | kinds
