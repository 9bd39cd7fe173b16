"""The benchmark binds program names from outside src/; a rename must fail here.

cablebench/tracer.py skips a (module, attribute) it cannot resolve and its
layer then reads zero, so a renamed stage function would silently zero a
per-layer metric instead of breaking the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cablefloer import build_typea_minus, pairing

TRACER_PATH = Path(__file__).resolve().parents[1] / "cablebench" / "tracer.py"
REMOVED = {("cablefloer.pipeline", "grading_filter")}  # repair mode is gone; its layer reads 0


def load_tracer():
    spec = importlib.util.spec_from_file_location("cablebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module_name, attr, layer", [
    entry for entry in TRACER.SPANS + TRACER.ROLLUPS if entry[:2] not in REMOVED])
def test_traced_name_resolves(module_name, attr, layer):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), layer


def test_counted_names_resolve():
    for attr in ("hat_operations", "shift_constant", "tensor_gradings", "tensor_differential"):
        assert callable(getattr(pairing, attr, None)), attr
    module = build_typea_minus(4)
    ops = list(module.finite_operations)
    assert ops and all(isinstance(op.inputs, tuple) for op in ops)
    assert len(pairing.hat_operations(module)) == len(ops)
    assert {module.pairs_with(op.source) for op in ops} == {"i0", "i1"}
