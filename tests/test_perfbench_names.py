"""The benchmark's tracer finds its entry points by name: a function it times
or a method it counts that is renamed or moved would silently read zero, or
show up only as ``trace.missing_entry_points``. Every name it lists must
still exist in ``tropms``. The benchmark's set-up builds its inputs with the
generators and writers that ``perfbench/inputs.py`` imports, so that module
must load, its builders must run on small sizes, and every operation they
set up must get the answer they expect."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import run_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
inputs = _load("inputs")


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in layers.SPANS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"tropms.{module}"), function, None))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for m, c, f, _ in layers.COUNTERS])
def test_counted_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"tropms.{module}"), cls, None)
    assert callable(getattr(owner, method, None))


def test_setup_imports_resolve():
    for builder in ("build_torus2", "build_torus3", "build_cli_session"):
        assert callable(getattr(inputs, builder, None))


@pytest.mark.parametrize("workload", ["torus2", "torus3", "cli-session"])
def test_setup_builds_and_every_answer_is_right(tmp_path, workload):
    """The three workloads on small inputs, each operation run in process."""
    bundle = {
        "torus2": lambda: inputs.build_torus2(str(tmp_path), 4, 1),
        "torus3": lambda: inputs.build_torus3(str(tmp_path), 3, 1),
        "cli-session": lambda: inputs.build_cli_session(str(tmp_path), 1),
    }[workload]()
    assert bundle.ops
    for label, paths, want in bundle.covers:
        assert inputs.check_counts(label, paths, want) == []
    for op in bundle.ops:
        res = run_cli(op.argv)
        assert op.check(res.exit_code, res.stdout) == [], (op.key, res.stderr)
