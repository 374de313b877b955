import ast
import importlib
import re
from pathlib import Path

import pytest

import hanlink


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so invariants must raise explicitly."""
    offenders = []
    for path in sorted(Path(hanlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_package_modules_use_every_import():
    """Each name a package module imports is used in that module, so no
    module imports a name only for another module or a test to take from it."""
    unused = []
    for path in sorted(Path(hanlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_base3_pattern_arithmetic_only_in_linkage():
    """Pattern codes are built in one module: no other package module raises
    3 to a power."""
    offenders = []
    for path in sorted(Path(hanlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                      and isinstance(node.left, ast.Constant) and node.left.value == 3
                      and path.name != "linkage.py"]
    assert offenders == []


def test_package_calls_no_set_operation_that_imports_numpy_ma():
    """numpy 2.4's `np.unique(x)` without a `return_*` flag imports numpy.ma
    (8-14 ms on a 2-vCPU host) on first use, and `np.isin` and the other set
    operations call it: no package module calls one, so no run pays that
    import."""
    set_operations = {"isin", "setdiff1d", "in1d", "intersect1d", "union1d"}
    flags = {"return_index", "return_inverse", "return_counts"}
    offenders = []
    for path in sorted(Path(hanlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                continue
            name = node.func.attr
            if name in set_operations or (
                    name == "unique" and not flags & {k.arg for k in node.keywords}):
                offenders.append(f"{path.name}:{node.lineno} np.{name}")
    assert offenders == []


def test_declared_dependencies_import():
    """Every dependency pyproject.toml declares is importable here."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    for requirement in declared:
        importlib.import_module(re.match(r"[A-Za-z0-9_.-]+", requirement).group(0))


def test_package_definitions_are_named_elsewhere():
    """Every function and class a package module defines, methods included
    (but not dunder methods, which Python calls by protocol), is named by
    some other code in the package, the tests or the benchmark, so no helper
    outlives its last use."""
    package, root = Path(hanlink.__file__).parent, Path(__file__).resolve().parents[1]
    named, defined = set(), []
    for path in [*package.glob("*.py"), *root.glob("tests/*.py"), *root.glob("perfbench/*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.parent == package
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((f"{path.name}:{node.lineno}", node.name))
    assert [f"{where} {name}" for where, name in defined if name not in named] == []
