"""Every function the benchmark's tracer patches by name exists in opuckit.

`perfbench/tracing.py` names its targets as (module, attribute path)
strings, so a rename in the package would only surface when someone runs
`perfbench/run.py --trace 1`.  This test loads the tracer module from its
file, without writing bytecode next to it, and resolves every target.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
