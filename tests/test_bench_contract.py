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
    reduce_complex,
    synthesize_delta,
)

from conftest import written_out

TRACER_PATH = Path(__file__).resolve().parents[1] / "cablebench" / "tracer.py"
REMOVED = {
    ("cablefloer.pipeline", "grading_filter"),  # repair mode is gone; its layer reads 0
    # the cell-by-cell checks and the satellite polynomial, which no run
    # calls, moved to the tests as oracles; their spans read 0 already
    ("cablefloer.invariants", "check_symmetry"),
    ("cablefloer.invariants", "euler_characteristic"),
    ("cablefloer.invariants", "cable_alexander"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("cablebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module_name, attr, layer", TRACER.SPANS + TRACER.ROLLUPS)
def test_traced_name_resolves(module_name, attr, layer):
    """A live traced name resolves to a callable; a REMOVED one resolves nowhere."""
    found = getattr(importlib.import_module(module_name), attr, None)
    if (module_name, attr) in REMOVED:
        assert found is None, layer
    else:
        assert callable(found), layer


def test_removed_names_are_traced_and_gone():
    """Every REMOVED entry is still a traced name and resolves nowhere in the
    package, so the set can neither hide a live rename nor outlive the
    tracer's entry."""
    import cablefloer

    traced = {entry[:2] for entry in TRACER.SPANS + TRACER.ROLLUPS}
    for module_name, attr in sorted(REMOVED):
        assert (module_name, attr) in traced, attr
        assert not hasattr(importlib.import_module(module_name), attr), attr
        assert not hasattr(cablefloer, attr), attr


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
    """What the benchmark reads off the complex: the generator view, built on
    demand from the rows, still counts every tensor generator for the
    prediction, while the arrows are those of the stored module (one square
    per level).  The flat arrows are derived from the links, ascending, each
    end at its slot's start plus its position; the arrow and block counts
    read every arrow's source through the view, which is the record at
    that (slot, first copy, position), and the blocks assume an arrow keeps
    its Alexander grading."""
    s = sum(counts.values())
    model = build_model(synthesize_delta(tau, counts), tau)
    A, D = build_typea_minus(p), build_typed(model, n)
    complex_ = pairing.pair_modules(A, D, model.params.l, n)
    gens = complex_.generators
    predicted = (2 * abs(tau) + 1 + 4 * s) + (2 * p - 2) * (2 * abs(tau) + 4 * s + abs(2 * tau - n))
    assert len(gens) == predicted
    assert len(complex_.arrows) == len(pairing.tensor_differential(A, D))
    assert all(0 <= i < len(gens) for arrow in complex_.arrows for i in arrow)
    assert all(gens[src].alexander == gens[tgt].alexander for src, tgt in complex_.arrows)
    arrows, starts = complex_.arrows, gens.starts
    assert list(arrows) == sorted(arrows)
    assert arrows == tuple((starts[j] + k, starts[j_target] + k_target)
                           for j, k, j_target, k_target in complex_.links)
    assert all(gens[src] == gens.at(j, 0, k) for (src, _), (j, k, _, _) in zip(arrows, complex_.links))


def test_gradings_rollup_sees_every_normalization(monkeypatch):
    """The tracer's gradings rollup wraps normalize_double_coset on
    cablefloer.pairing: the rows must call it through that name, once per
    (b slot of the complement module, A generator among the first three of
    its grading family): once for a, and 2*min(3, p - 1) times for the b_k."""
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
    assert len(calls) == sum(1 if idempotent == "i0" else 2 * min(3, p - 1) for idempotent, _ in slots)


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


def test_library_result_is_no_tuple():
    """run.py's Workload.outcome reads any tuple as a CLI (exit code, text)
    pair, so a library result must be something else."""
    assert not isinstance(compute_cable_hfk(LaurentPolynomial.from_centered_list([1]), 0, 2, 1), tuple)


def test_run_config_builds_by_keyword():
    """Workload.cli_config builds its configuration by keyword, leaving mode and q to their defaults."""
    config = cli.RunConfig(delta="1", tau=0, p=2, n=1, fmt="json")
    assert (config.delta, config.tau, config.p, config.n, config.fmt) == ("1", 0, 2, 1, "json")
    assert (config.mode, config.q) == ("hfk", None)


def test_rank_table_merges_ranks_on_first_read():
    """The run reads a table's parts only; ranks, which run.py reads, is
    merged on its first read and the same dict is returned after."""
    table = compute_cable_hfk(LaurentPolynomial.from_centered_list([1]), 0, 2, 7).table
    assert table.progressions and table._ranks is None
    ranks = table.ranks
    assert type(ranks) is dict and sum(ranks.values()) == table.total
    assert table._ranks is ranks and table.ranks is ranks


def test_outcome_reads_a_table_with_square_lines():
    """What Workload.outcome and LayerCounts read off a table that keeps the
    square's survivors as lines: ranks is a dict, equal to the table of the
    module with every level's squares and the chain written out, and total
    is the sum of its ranks."""
    tau, counts, p, n = 1, {1: 2, 0: 3, -1: 2}, 4, 6
    delta = synthesize_delta(tau, counts)
    table = compute_cable_hfk(delta, tau, p, n).table
    assert table.square[1] and table.progressions
    model = build_model(delta, tau)
    want = reduce_complex(pairing.pair_modules(build_typea_minus(p), written_out(build_typed(model, n)),
                                               model.params.l, n))
    assert type(table.ranks) is dict and dict(table.ranks) == want.ranks
    assert table.total == sum(table.ranks.values()) == want.total


def test_every_export_resolves():
    """A name left in cablefloer.__all__ after its definition is deleted
    would break `from cablefloer import *`."""
    import cablefloer

    assert [name for name in cablefloer.__all__ if not hasattr(cablefloer, name)] == []
