"""Every name a module of the package, the tests or the benchmark imports is
used in that module, and every function and class the package defines is named
by the package or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trcrp").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports and never referenced; listing in ``__all__`` counts as a use."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES + TESTS + BENCH, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(source) == ["path (line 2)"]


def _all_nodes(tree) -> set:
    """The nodes of ``__all__`` assignments, whose strings name exports, not uses."""
    return {
        sub
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for sub in ast.walk(node.value)
    }


def _is_command(node) -> bool:
    """Whether ``node`` is decorated like ``@main.command(...)`` or ``@click.group()``."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unreferenced_definitions(package: dict, others: dict) -> list[str]:
    """Functions and classes of ``package`` that no source of ``package`` or ``others`` names.

    Both map a file name to its source.  A name counts as referenced when it
    appears as an identifier, an attribute or a string equal to it outside
    ``__all__``; dunder methods and click commands are exempt.
    """
    referenced = set()
    defined = []
    for name, source in {**package, **others}.items():
        tree = ast.parse(source)
        exports = _all_nodes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node not in exports:
                    referenced.add(node.value)
            elif name in package and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _is_command(node):
                    defined.append((node.name, f"{name}:{node.lineno}"))
    return [f"{fn} ({where})" for fn, where in defined if fn not in referenced]


def test_every_definition_is_referenced():
    package = {path.name: path.read_text() for path in SOURCES}
    others = {f"bench/{path.name}": path.read_text() for path in BENCH}
    assert unreferenced_definitions(package, others) == []


def test_scan_flags_an_unreferenced_definition():
    source = (
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def called(): pass\n"
        "def named(): pass\n"
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "@main.command('go')\n"
        "def cmd_go(): pass\n"
        "called()\n"
        "getattr(Used, 'named')\n"
    )
    flagged = unreferenced_definitions({"a.py": source}, {})
    assert flagged == ["exported (a.py:2)", "method (a.py:7)"]
