import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

import hermix

MODULES = sorted(
    p for p in Path(hermix.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finder_reports_only_unreferenced_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(os, a.b, w)\n"
    assert unused_imports(source) == ["z (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_module(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or anything from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == module for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == module:
                return True
    return False


def test_exact_rationals_live_in_cyclotomic_only():
    assert imports_module("from fractions import Fraction as F\n", "fractions")
    assert imports_module("import os, fractions\n", "fractions")
    assert not imports_module("from .fractions import x\nimport fractionsx\n", "fractions")
    package = sorted(Path(hermix.__file__).parent.glob("*.py"))
    importers = [p.name for p in package if imports_module(p.read_text(encoding="utf-8"), "fractions")]
    assert importers == ["cyclotomic.py"]


def test_cli_is_the_command_line_only():
    # the checks and the float comparisons they make live in checks.py, and
    # the decimal evaluation det prints lives in cyclotomic.py
    package = sorted(Path(hermix.__file__).parent.glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in package}
    assert [name for name, text in sources.items() if imports_module(text, "numpy")] == [
        "checks.py",
        "spectral.py",
    ]
    assert not imports_module(sources["cli.py"], "decimal")


def test_public_names_are_the_import_block():
    names = hermix.__all__
    assert names == sorted(names)
    assert all(hasattr(hermix, name) for name in names)
    assert [n for n in names if n.startswith("_")] == []
    assert [n for n in names if isinstance(getattr(hermix, n), ModuleType)] == []
    # the names the package's own `from .module import ...` lines bind, read from source
    tree = ast.parse(Path(hermix.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(names) == imported
    star = {}
    exec("from hermix import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_every_public_name_is_used():
    # each public name is referenced by another module of the package, named
    # in README.md, or traced by the benchmark harness's PROBES
    package = Path(hermix.__file__).parent
    referenced = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    root = package.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    trace = ast.parse((root / "benchmarks" / "hbench" / "trace.py").read_text(encoding="utf-8"))
    probes = next(
        node.value
        for node in trace.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROBES"]
    )
    probed = {entry.elts[1].value.split(".")[0] for entry in probes.elts}
    unused = [
        name
        for name in hermix.__all__
        if name not in referenced
        and name not in probed
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []
