"""The benchmark's tracer binds library functions by module and name,
so renaming or deleting one of them must fail the test suite, not only
a traced benchmark run."""

from __future__ import annotations

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """perfbench/tracer.py as a module, executed from its source so no
    bytecode is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(("module", "name"), [(module, name) for _, module, name, _ in tracer.TARGETS])
def test_every_traced_function_resolves(module, name):
    assert callable(tracer.resolve(module, name))
