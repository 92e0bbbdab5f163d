"""The benchmark's tracer finds its entry points by name: a function it times
or a method it counts that is renamed or moved would silently read zero, or
show up only as ``trace.missing_entry_points``. Every name it lists must
still exist in ``tropms``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in layers.SPANS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"tropms.{module}"), function, None))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for m, c, f, _ in layers.COUNTERS])
def test_counted_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"tropms.{module}"), cls, None)
    assert callable(getattr(owner, method, None))
