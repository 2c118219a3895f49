"""The benchmark's trace hooks name functions that still exist.

`perfbench/spans.py` wraps fermigate functions by module and name; a name
that disappears makes a traced benchmark run fail with AttributeError.
"""

import importlib
import sys
from pathlib import Path

import pytest

import fermigate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

# _targets only lists what install() would wrap; it wraps nothing itself
TARGETS = [(mod, fn) for mod, fn, *_ in spans._targets(spans.Tracer(), fermigate)]


@pytest.mark.parametrize("module,function", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_trace_target_exists(module, function):
    assert callable(getattr(importlib.import_module(f"fermigate.{module}"), function))
