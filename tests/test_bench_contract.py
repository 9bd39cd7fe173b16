"""The benchmark binds program names from outside src/; a rename must fail here.

cablebench/tracer.py skips a (module, attribute) it cannot resolve and its
layer then reads zero, so a renamed stage function would silently zero a
per-layer metric instead of breaking the benchmark.
"""

import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from cablefloer import (
    LaurentPolynomial,
    build_model,
    build_typea_minus,
    build_typed,
    cli,
    compute_cable_hfk,
    pairing,
    synthesize_delta,
)

from conftest import expand_squares

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
    for attr in ("hat_operations", "normalize_double_coset", "shift_constant", "tensor_gradings",
                 "tensor_differential"):
        assert callable(getattr(pairing, attr, None)), attr
    module = build_typea_minus(4)
    ops = list(module.finite_operations)
    assert ops and all(isinstance(op.inputs, tuple) for op in ops)
    assert len(pairing.hat_operations(module)) == len(ops)
    assert {module.pairs_with(op.source) for op in ops} == {"i0", "i1"}


@pytest.mark.parametrize("tau, counts, p, n", [
    (0, {1: 2, 0: 2, -1: 2}, 5, 3),        # golden 11n50, m < 0
    (2, {1: 3, 0: 4, -1: 3}, 4, 1),        # m > 0
    (-3, {2: 2, 0: 5, -2: 2}, 3, -2),      # tau < 0, m < 0
    (-1, {0: 3}, 6, -5),                   # tau < 0, m > 0
    (1, {1: 2, -1: 2}, 3, 2),              # m = 0
])
def test_complex_stays_whole(tau, counts, p, n):
    """The generator view, built on demand from the rows, still counts every
    tensor generator, and the arrows stay whole although the complement
    module stores one square per level; the benchmark compares the generator
    count with its prediction and reads its arrow and block counts off the
    arrows.  The reference walks every square copy written out."""
    s = sum(counts.values())
    model = build_model(synthesize_delta(tau, counts), tau)
    A, D = build_typea_minus(p), build_typed(model, n)
    complex_ = pairing.pair_modules(A, D, model.params.l, n)
    predicted = (2 * abs(tau) + 1 + 4 * s) + (2 * p - 2) * (2 * abs(tau) + 4 * s + abs(2 * tau - n))
    assert len(complex_.generators) == predicted
    assert len(complex_.arrows) == len(pairing.tensor_differential(A, expand_squares(D)))


def test_gradings_rollup_sees_every_normalization(monkeypatch):
    """The tracer's gradings rollup wraps normalize_double_coset on
    cablefloer.pairing: the rows must call it through that name, once per
    (A generator, b slot) of the complement module."""
    calls = []
    real = pairing.normalize_double_coset

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pairing, "normalize_double_coset", counted)
    p, n = 7, -100
    model = build_model(synthesize_delta(3, {0: 1}), 3)
    module_d = build_typed(model, n)
    pairing.pair_modules(build_typea_minus(p), module_d, model.params.l, n)
    slots = {(g.idempotent, g.grading.b2) for g in module_d.generators}
    assert len(calls) == sum(1 if idempotent == "i0" else 2 * p - 2 for idempotent, _ in slots)


def test_tensor_generator_record():
    gen = pairing.TensorGenerator(a_side="b3", d_side="y4.s0", N=-1, Aprime=2, alexander=5, maslov=9)
    assert (gen.a_side, gen.d_side, gen.N, gen.Aprime, gen.alexander, gen.maslov) == (
        "b3", "y4.s0", -1, 2, 5, 9)
    assert gen.name == "b3 y4.s0"
    with pytest.raises(AttributeError):
        gen.maslov = 0


def test_result_surface_resolves():
    """What cablebench/run.py reads from a run, its stages and the CLI."""
    delta = LaurentPolynomial.from_centered_list([2, -6, 9, -6, 2])
    result = compute_cable_hfk(delta, 0, 5, 3)
    assert type(result.cable_tau) is int and result.cable_tau == 30
    assert sum(result.table.ranks.values()) == result.table.total == 181
    model = result.model
    assert (model.params.s, model.params.l) == (6, 0)
    assert sum(model.square_counts.values()) == 6
    module_d = build_typed(model, 3)
    assert len(module_d.edges) > 0
    assert {(g.kind, g.idempotent) for g in module_d.generators} == {
        ("u", "i0"), ("x", "i0"), ("y", "i1"), ("mu", "i1")}
    complex_ = result.complex
    assert complex_.arrows
    assert all(type(complex_.generators[src].alexander) is int for src, _ in complex_.arrows)

    config = cli.RunConfig(delta="2,-6,9,-6,2", tau=0, p=5, n=3, fmt="json")
    out = io.StringIO()
    assert cli.run(config, out) == 0
    doc = json.loads(out.getvalue())
    assert {(e["a"], e["m"]): e["rank"] for e in doc["ranks"]} == result.table.ranks
    assert doc["tau"] == result.cable_tau
