"""Every module-level import of the package is read by its module, and every
top-level function and class, public or private, by the package or the
benchmark.  A definition that only the tests read is a test oracle and lives
in tests/helpers.py.

No linter runs on the package, so an import or a definition stranded by a
refactor would otherwise stay.  `__init__` is exempt: its imports are the
public names, and they count as no read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opuckit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import json\nfrom fractions import Fraction\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["json", "Fraction"]


def _read_names(node) -> set:
    """Names, attributes and from-imports read anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unread_definitions(
    package: dict, readers: dict, strings: str = "", private: bool = False
) -> list[str]:
    """Top-level definitions of `package` that nothing reads, the public ones or the private.

    package and readers map a file label to its source; a package module
    reads too, but a definition's reads of its own name do not count.  Each
    dotted part of a string constant in `strings` counts as a read.  Only
    top-level functions and classes are checked, not methods: a method name
    such as `to_json` recurs across classes, so one read would clear them all.
    """
    read = {}
    for label, source in {**package, **readers}.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            for name in _read_names(stmt):
                read.setdefault(name, set()).add((label, own))
    named = {
        part
        for node in ast.walk(ast.parse(strings))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    unread = []
    for label, source in package.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_") == private:
                if not read.get(stmt.name, set()) - {(label, stmt.name)} and stmt.name not in named:
                    unread.append(stmt.name)
    return unread


def _unread_in_the_package(private: bool) -> list[str]:
    return unread_definitions(
        {p.name: p.read_text() for p in MODULES},
        {p.name: p.read_text() for p in BENCH},
        (ROOT / "perfbench" / "tracing.py").read_text(),
        private,
    )


def test_every_public_definition_is_read():
    # a definition only the tests read belongs in tests/helpers.py
    assert _unread_in_the_package(private=False) == []


def test_every_private_definition_is_read():
    # a private helper has no caller outside the package and the benchmark
    assert _unread_in_the_package(private=True) == []


def test_detects_an_unread_definition():
    package = {
        "a.py": "def used():\n    return 1\n\n\ndef planted():\n    return planted()\n"
        "\n\nclass _Private:\n    pass\n",
        "b.py": "from .a import used\n",
    }
    traced = 'SPANS = (("a.traced", "opuckit.a", "Traced.method"),)\n'
    assert unread_definitions(package, {}) == ["planted"]
    package["a.py"] += "\n\nclass Traced:\n    pass\n"
    assert unread_definitions(package, {}) == ["planted", "Traced"]
    assert unread_definitions(package, {"run.py": "planted\n"}, traced) == []


def test_detects_an_unread_private_definition():
    package = {
        "a.py": "def _used():\n    return 1\n\n\ndef _planted():\n    return _planted()\n"
        "\n\nclass _Stranded:\n    pass\n\n\ndef public():\n    return _used()\n",
    }
    assert unread_definitions(package, {}, private=True) == ["_planted", "_Stranded"]
    assert unread_definitions(package, {"run.py": "a._planted\n"}, private=True) == ["_Stranded"]
