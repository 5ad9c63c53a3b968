"""Every opuckit name the benchmark reads exists in opuckit.

`perfbench/tracing.py` names its targets as (module, attribute path)
strings, so a rename in the package would only surface when someone runs
`perfbench/run.py --trace 1`.  This test loads the tracer module from its
file, without writing bytecode next to it, and resolves every target.  The
names the benchmark's code reads directly, by import or as an attribute
chain such as `opuckit.cli.main`, are read off its syntax tree and resolved
too: a deleted one would otherwise first show as a failed benchmark run.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_span_targets_resolve(tracing):
    assert tracing.SPANS
    for name, module, path in tracing.SPANS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: {module}.{path} does not exist"
            owner = getattr(owner, attr)
        assert callable(owner), f"{name}: {module}.{path} is not callable"


def test_creation_count_targets_resolve(tracing):
    assert tracing.CREATION_COUNTS
    for name, module, cls, method in tracing.CREATION_COUNTS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert owner is not None, f"{name}: {module}.{cls} does not exist"
        assert callable(getattr(owner, method, None)), f"{name}: {module}.{cls}.{method}"


def _dotted(node) -> str | None:
    """`a.b.c` for a chain of attributes on a bare name, else None."""
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return owner and f"{owner}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def perfbench_opuckit_names() -> set:
    """Every opuckit module, name and attribute chain perfbench's code reads."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        chains = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "opuckit")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opuckit"):
                names.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Attribute):
                chains.add(_dotted(node))
        # the longest chains only: `opuckit.cli.main` also walks `opuckit.cli`
        prefixes = {c.rsplit(".", 1)[0] for c in chains if c and "." in c}
        names.update(c for c in chains - prefixes if c and c.split(".")[0] == "opuckit")
    return names


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    owner = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(owner, attr) and inspect.ismodule(owner):
            with contextlib.suppress(ImportError):
                importlib.import_module(".".join(parts[:i]))
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_names_perfbench_reads_resolve():
    names = perfbench_opuckit_names()
    assert {"opuckit.KERNEL_BACKEND", "opuckit.cli.main"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []


def test_a_deleted_name_is_reported():
    assert _resolves("opuckit.shift_algebra.ShiftPolynomial.__mul__")
    assert not _resolves("opuckit.shift_algebra.no_such_name")
    assert not _resolves("opuckit.no_such_module.main")
