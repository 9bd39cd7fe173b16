from collections import Counter
from itertools import chain as concat

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cablefloer import (
    ComplexError,
    DEdge,
    DGenerator,
    GradingElement,
    GradingError,
    RankTable,
    TensorGenerator,
    TypeDModule,
    build_model,
    build_typea_minus,
    build_typed,
    closed_form_gradings,
    compute_cable_hfk,
    euler_holds,
    framing_h,
    hat_operations,
    normalize_double_coset,
    pair_modules,
    parse_delta,
    reduce_complex,
    shift_constant,
    symmetry_holds,
    synthesize_delta,
    table_rank,
    tensor_differential,
    tensor_gradings,
)
from cablefloer import pairing
from cablefloer.pairing import FAMILY_RUN, FamilyRow, Progression, _rows
from cablefloer.pipeline import _check_budget
from cablefloer.type_a import TypeAModule

from conftest import (
    DELTA_5_2,
    DELTA_11N50,
    DELTA_TREFOIL,
    ROW_PARAMS,
    check_symmetry,
    euler_characteristic,
    euler_matches_cable,
    expand_chain,
    expand_levels,
    injected_pattern,
    module_gradings,
    named_arrows,
    stored_name,
    thin_grid_cases,
    with_generators,
    written_out,
)


def modules_for(delta_text, tau, p, n):
    model = build_model(parse_delta(delta_text), tau)
    return build_typea_minus(p), build_typed(model, n), model


def reference_differential(A, D, edges=None):
    """Generic matcher: every hat operation against every complement label
    path, mod 2; the paths follow edges, D's stored edges by default."""
    outgoing = {}
    for edge in D.edges if edges is None else edges:
        outgoing.setdefault(edge.source, []).append(edge)
    parity = {}
    for (a_src, labels), a_tgt in hat_operations(A).items():
        for d_gen in D.generators:
            if d_gen.idempotent != A.pairs_with(a_src):
                continue
            ends = [d_gen.name]  # one entry per label path, so parallel paths repeat
            for label in labels:
                ends = [e.target for node in ends for e in outgoing.get(node, ()) if e.label == label]
            for d_tgt in ends:
                key = ((a_src, d_gen.name), (a_tgt, d_tgt))
                parity[key] = parity.get(key, 0) ^ 1
    return {arrow for arrow, odd in parity.items() if odd}


def reference_pairs(A, D):
    """Complementary-idempotent (A generator, D generator) pairs, complement-major order."""
    return [(a_name, d_gen.name) for d_gen in D.generators for a_name in A.generators
            if A.pairs_with(a_name) == d_gen.idempotent]


def reference_gradings(A, D, c):
    """Every tensor generator normalized on its own, complement-major order."""
    out = {}
    grading = {d_gen.name: d_gen.grading for d_gen in D.generators}
    pattern = module_gradings(A)
    for a_name, d_name in reference_pairs(A, D):
        N, Aprime = normalize_double_coset(pattern[a_name] * grading[d_name], A.g, D.h)
        alexander = Aprime + c
        out[(a_name, d_name)] = (N, Aprime, alexander, N + 2 * alexander)
    return out


ROW_CASES = pytest.mark.parametrize("tau, counts, p, n", ROW_PARAMS)


def cells_of(view):
    """The (alexander, maslov) cell of every generator of a view, in order."""
    return [(g.alexander, g.maslov) for g in view]


def spots_of(view):
    """(slot, copy, position) of every generator of a view, in view order,
    read off the slots' starts and row lengths without a lookup per index."""
    ends = view.starts[1:] + [len(view)]
    return [(j, copy, k) for j, (start, end, row) in enumerate(zip(view.starts, ends, view.rows)) if row
            for copy in range((end - start) // len(row)) for k in range(len(row))]


def along(view):
    """The view's Repeat listed once each along offsets 0, 1, ... (a range):
    the unstable chain's, or None."""
    return next((rep for rep in view.repeats if type(rep.offsets) is range), None)


def steps_by_slot(repeats):
    """slot -> its step row, over every Repeat."""
    return {j: steps for rep in repeats for j, steps in zip(rep.slots, rep.steps)}


def named_links(complex_):
    """The (source, target) names of each link of a complex, in link order."""
    gens = complex_.generators
    return [(gens.at(j, 0, k).name, gens.at(j_target, 0, k_target).name)
            for j, k, j_target, k_target in complex_.links]


def generator_pairs(delta_text, tau, p, n):
    """(A side, D side) of every generator of the paired complex, with the
    reference loop over every square copy checked to list the same pairs."""
    A, D, model = modules_for(delta_text, tau, p, n)
    pairs = [(g.a_side, g.d_side) for g in pair_modules(A, D, model.params.l, n).generators]
    assert pairs == [(a, stored_name(d)) for a, d in reference_pairs(A, written_out(D))]
    return pairs


class TestTensorGenerators:
    def test_unknot_p2(self):
        assert generator_pairs("1", 0, 2, 1) == [("a", "u1"), ("b1", "mu1"), ("b2", "mu1")]

    def test_right_trefoil_count(self):
        pairs = generator_pairs(DELTA_TREFOIL, 1, 2, 1)
        assert len(pairs) == 9

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_square_block_size(self, p):
        pairs = generator_pairs("-1,3,-1", 0, p, 1)  # figure-eight: one square
        square_pairs = [pair for pair in pairs if "." in pair[1]]
        assert len(square_pairs) == 4 + 4 * (2 * p - 2)


class TestShiftConstant:
    def test_values(self):
        assert shift_constant(0, 5, 3) == -30
        assert shift_constant(0, 2, 1) == -1
        assert shift_constant(1, 2, -2) == 4


class TestDifferential:
    def test_left_trefoil_p2(self):
        A, D, _ = modules_for(DELTA_TREFOIL, -1, 2, -2)
        arrows = named_arrows(A, D)
        assert arrows == [(("a", "u1"), ("b2", "v1"))]

    def test_square_arrows(self):
        A, D, _ = modules_for("-1,3,-1", 0, 3, 1)
        arrows = set(named_arrows(A, D))
        assert (("a", "x1.s0"), ("b4", "y4.s0")) in arrows
        assert (("a", "x2.s0"), ("b4", "y2.s0")) in arrows
        assert (("b4", "y1.s0"), ("b3", "y2.s0")) in arrows

    def test_m_zero_long_staircase_arrow_needs_p3(self):
        # u3 --D12--> u1 --D1--> v1 matches an operation only once p >= 3
        A2, D2, _ = modules_for(DELTA_TREFOIL, -1, 2, -2)
        assert (("a", "u3"), ("b1", "v1")) not in named_arrows(A2, D2)
        A3, D3, _ = modules_for(DELTA_TREFOIL, -1, 3, -2)
        assert (("a", "u3"), ("b3", "v1")) in named_arrows(A3, D3)

    def test_positive_m_arrows(self):
        A, D, _ = modules_for(DELTA_TREFOIL, 1, 3, 1)  # m = 1, case tau > 0
        arrows = set(named_arrows(A, D))
        assert (("a", "u3"), ("b4", "mu1")) in arrows        # end of staircase into chain
        assert (("a", "u2"), ("b4", "v1")) in arrows         # vertical staircase arrow
        assert (("b4", "v2"), ("b3", "mu1")) in arrows       # rho_2 rho_1 path

    @pytest.mark.parametrize("p", range(2, 9))
    def test_walk_matches_reference_matcher(self, p):
        checked = 0
        for tau in range(-3, 4):
            for counts in ({}, {1: 1, 0: 2, -1: 1}):
                model = build_model(synthesize_delta(tau, counts), tau)
                A = build_typea_minus(p)
                for m in (-2, 0, 2):  # includes the zero-framed unknot's D_12 self-loop
                    D = build_typed(model, 2 * tau - m)
                    arrows = named_arrows(A, D)
                    assert len(arrows) == len(set(arrows)), (tau, counts, m)
                    assert set(arrows) == reference_differential(A, expand_chain(D)), (tau, counts, m)
                    checked += len(arrows)
        assert checked > 0

    @pytest.mark.parametrize("p", range(2, 9))
    def test_walk_matches_reference_on_synthetic_paths(self, p):
        # a D_12 self-loop that feeds a D_1 edge at every depth, and rho_2
        # entries into it (from q) and into a D_1 edge back (z -> w -> z);
        # D_3, D_123 and D_23 edges, two D_3 out of s among them, change
        # neither side; a second D_1 or D_12 edge out of s is refused
        i0, i1 = ("s", "t", "w"), ("y", "z", "q")
        gens = tuple(DGenerator(name, idem, GradingElement.identity(), "x", j)
                     for idem, names in (("i0", i0), ("i1", i1)) for j, name in enumerate(names))
        edges = tuple(DEdge(*e) for e in (
            ("s", "12", "s"), ("s", "1", "y"), ("t", "1", "q"),
            ("q", "2", "s"), ("z", "2", "w"), ("w", "1", "z"),
        ))
        D = TypeDModule.from_edges(gens, edges, GradingElement.identity())
        A = build_typea_minus(p)
        arrows = named_arrows(A, D)
        assert len(arrows) == len(set(arrows))
        assert set(arrows) == reference_differential(A, D)
        assert arrows
        stray_edges = edges + tuple(DEdge(*e) for e in (
            ("s", "3", "y"), ("s", "3", "z"), ("t", "123", "y"), ("q", "23", "z"), ("z", "23", "q"),
        ))
        stray = TypeDModule.from_edges(gens, stray_edges, GradingElement.identity())
        assert named_arrows(A, stray) == arrows
        assert reference_differential(A, stray, stray_edges) == reference_differential(A, D)
        for label, extra in (("1", [("s", "1", "z"), ("s", "1", "z")]), ("12", [("s", "12", "t")])):
            with pytest.raises(ComplexError, match=rf"^complement generator s has two D_{label} edges$"):
                TypeDModule.from_edges(gens, edges + tuple(DEdge(*e) for e in extra), GradingElement.identity())

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_self_loop_with_a_d1_edge_closes_every_family(self, p):
        """A D_12 self-loop on a node that also has a D_1 edge is walked to
        the end: one arrow a*s -> b_{2p-i-2}*y for every family i <= p - 2.
        Without the D_1 edge the walk stops at the loop, with no arrow."""
        gens = (DGenerator("s", "i0", GradingElement.identity(), "x", 1),
                DGenerator("y", "i1", GradingElement.identity(), "x", 2))
        loop = DEdge("s", "12", "s")
        D = TypeDModule.from_edges(gens, (loop, DEdge("s", "1", "y")), GradingElement.identity())
        A = build_typea_minus(p)
        assert named_arrows(A, D) == [(("a", "s"), (f"b{2 * p - i - 2}", "y")) for i in range(p - 1)]
        assert set(named_arrows(A, D)) == reference_differential(A, D)
        bare = TypeDModule.from_edges(gens, (loop,), GradingElement.identity())
        assert named_arrows(A, bare) == [] and reference_differential(A, bare) == set()

    def test_zero_framed_unknot_does_not_grow_with_p(self):
        """Delta = 1, tau = 0, n = 0 is one tensor generator whatever p: no
        pattern name or grading per b_k is held, so p = 100,000 peaks well
        under a megabyte, and the walk ends at the D_12 self-loop, so even
        p = 10^12 walks one step."""
        import tracemalloc

        delta = synthesize_delta(0, {})
        assert tensor_differential(build_typea_minus(10**12), build_typed(build_model(delta, 0), 0)) == []
        tracemalloc.start()
        try:
            result = compute_cable_hfk(delta, 0, 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.table.ranks == {(0, 0): 1} and result.consistent
        assert peak < 1_000_000, peak

    def test_wide_rows_do_not_grow_with_p(self):
        """tau = 1, n = 2, p = 2000 is inside both budgets, and its 7,999
        tensor generators lie on two rows of 3,998 cells each.  Those rows
        are their grading families and hold no cell, so pairing peaks under
        100 KB, where rows of cells took 1.2 MB."""
        import tracemalloc

        tau, n, p = 1, 2, 2000
        model = build_model(synthesize_delta(tau, {}), tau)
        _check_budget(model.params, p, n)
        A, D = build_typea_minus(p), build_typed(model, n)
        tracemalloc.start()
        try:
            complex_ = pair_modules(A, D, model.params.l, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(complex_.generators) == 7999
        assert reduce_complex(complex_).total == table_rank(tau, 0, p, n)
        assert peak < 100_000, peak

    def test_wide_chain_does_not_grow_with_p(self):
        """tau = 0, n = -3, p = 2000: a chain of two generators beside
        patterns of two grading families of 1,999 positions.  The chain's
        survivors are one progression per family and chain generator, four
        in all, so pairing and reduction together peak under 50 KB, where
        one progression per b_k, 3,998 in all, took 870 KB.  The pairing and
        reduction are measured alone: the cable's satellite polynomial is
        over the run's degree budget."""
        import tracemalloc

        tau, n, p = 0, -3, 2000
        model = build_model(synthesize_delta(tau, {}), tau)
        A, D = build_typea_minus(p), build_typed(model, n)
        tracemalloc.start()
        try:
            table = reduce_complex(pair_modules(A, D, model.params.l, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # in slot order: the two left of mu1's families by the arrow on it, then the chain's four
        assert [progression.length for progression in table.progressions] == [p - 1, p - 2] + [p - 1] * 4
        assert table.total == table_rank(tau, 0, p, n)
        assert peak < 50_000, peak

    @pytest.mark.parametrize("tau, n, total", [
        (0, 0, 1), (0, 1, 2199), (0, -1, 2197), (1, 2, 4397), (-1, -2, 4395),
    ])
    def test_p_over_1000_end_to_end(self, tau, n, total):
        # p = 1100: the zero-framed unknot's D_12 self-loop ends the walk at
        # once, and no operation table of about p^3/6 chord letters is built
        result = compute_cable_hfk(synthesize_delta(tau, {}), tau, 1100, n)
        assert result.consistent
        assert result.table.total == total

    @pytest.mark.parametrize("n", [-2, 0, 1])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_tau_zero_arrows_match_printed_lists(self, p, n):
        """For tau = 0 the arrow set is exactly the printed one: three square
        families plus one unstable-chain arrow when m > 0."""
        delta = synthesize_delta(0, {0: 2, 1: 1, -1: 1})
        model = build_model(delta, 0)
        A = build_typea_minus(p)
        D = build_typed(model, n)
        expected = set()
        for gen in D.generators:
            if gen.kind == "x" and gen.index == 1:
                tag = gen.name.split(".")[1]
                expected.add((("a", f"x1.{tag}"), (f"b{2 * p - 2}", f"y4.{tag}")))
                expected.add((("a", f"x2.{tag}"), (f"b{2 * p - 2}", f"y2.{tag}")))
                for k in range(p + 1, 2 * p - 1):
                    expected.add(((f"b{k}", f"y1.{tag}"), (f"b{k - 1}", f"y2.{tag}")))
        if 2 * 0 - n > 0:
            expected.add((("a", "u1"), (f"b{2 * p - 2}", "mu1")))
        assert set(named_arrows(A, D)) == expected


class TestGradings:
    def test_unknot_p2_n1(self):
        A, D, model = modules_for("1", 0, 2, 1)
        gradings = tensor_gradings(A, D, shift_constant(model.params.l, 2, 1))
        by_pair = {pair: (a, m) for pair, (_, _, a, m) in gradings.items()}
        assert by_pair == {("a", "u1"): (-1, -2), ("b1", "mu1"): (0, -1), ("b2", "mu1"): (1, 0)}

    def test_left_trefoil_offdiagonal(self):
        A, D, model = modules_for(DELTA_TREFOIL, -1, 2, -2)
        gradings = tensor_gradings(A, D, shift_constant(model.params.l, 2, -2))
        assert gradings[("b1", "v2")][2:] == (-3, 0)

    def test_right_trefoil_survivors(self):
        from cablefloer import compute_cable_hfk

        table = compute_cable_hfk(parse_delta(DELTA_TREFOIL), 1, 2, 1).table
        assert sorted(table.alexander_multiset()) == [-3, -2, 0, 2, 3]

    @pytest.mark.parametrize(
        "delta_text, tau, p, n",
        [(DELTA_11N50, 0, 5, 3), (DELTA_5_2, 1, 3, 1), (DELTA_5_2, -1, 4, -1)],
        ids=["golden-11n50", "tau-pos-m-pos", "tau-neg-m-neg"],
    )
    def test_pair_modules_matches_tensor_gradings(self, delta_text, tau, p, n):
        A, D, model = modules_for(delta_text, tau, p, n)
        complex_ = pair_modules(A, D, model.params.l, n)
        gradings = tensor_gradings(A, written_out(D), shift_constant(model.params.l, p, n))
        assert [(g.a_side, g.d_side) for g in complex_.generators] == [
            (a, stored_name(d)) for a, d in reference_pairs(A, written_out(D))]
        for g in complex_.generators:
            assert (g.N, g.Aprime, g.alexander, g.maslov) == gradings[(g.a_side, g.d_side)]

    @ROW_CASES
    def test_shared_rows_match_per_generator_reference(self, tau, counts, p, n):
        model = build_model(synthesize_delta(tau, counts), tau)
        assert model.params.s == sum(counts.values())
        A, D = build_typea_minus(p), build_typed(model, n)
        c = shift_constant(model.params.l, p, n)
        gradings = tensor_gradings(A, D, c)
        want = reference_gradings(A, D, c)
        assert list(gradings.items()) == list(want.items())

    @ROW_CASES
    def test_generator_view_matches_eager_records(self, tau, counts, p, n):
        """The lazy view, the counts and the links' indices (slot start plus
        position) against one record per generator and an index dict, with
        every square level and copy written out and walked by the generic
        matcher; the complex keeps the arrows of the stored square's first
        copy.  With the links left out, the rank table lists every
        generator's cell once: the chain by its progressions and the square
        by its levels."""
        model = build_model(synthesize_delta(tau, counts), tau)
        A, D = build_typea_minus(p), build_typed(model, n)
        expanded = written_out(D)
        gradings = reference_gradings(A, expanded, shift_constant(model.params.l, p, n))
        pairs = reference_pairs(A, expanded)
        want = [TensorGenerator(a, stored_name(d), *gradings[(a, d)]) for a, d in pairs]
        complex_ = pair_modules(A, D, model.params.l, n)
        generators = complex_.generators
        assert list(generators) == want
        assert len(generators) == len(want)
        assert [generators[i] for i in range(len(want))] == want
        assert generators[-1] == want[-1]
        assert generators[-len(want)] == want[0]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                generators[i]
        assert [len(rep.offsets) for rep in generators.repeats if type(rep.offsets) is range] == \
            [d_gen.length for d_gen in D.generators if d_gen.length > 1]
        assert reduce_complex(complex_._replace(links=())) == RankTable(Counter((g.alexander, g.maslov) for g in want))
        assert [generators.at(*spot) for spot in spots_of(generators)] == want
        stored = {d_gen.name for d_gen in expand_chain(D).generators}
        index = {pair: i for i, pair in enumerate(pairs)}
        starts = generators.starts
        assert tuple((starts[j] + k, starts[j_target] + k_target)
                     for j, k, j_target, k_target in complex_.links) == tuple(sorted(
            (index[src], index[tgt]) for src, tgt in reference_differential(A, expanded)
            if src[1] in stored and tgt[1] in stored))

    def test_rows_keyed_by_idempotent_and_grading(self):
        # s and y share a grading but pair with different A generators, and
        # t repeats s; a row keyed on the grading alone would give y the
        # single-entry row of s.  The pattern gradings are hand-picked so
        # that one D grading normalizes against both a and the b's.
        A = injected_pattern((GradingElement.identity(), GradingElement(2, 2, 0, 2), GradingElement(0, 0, 4, -2)))
        shared, other = GradingElement.identity(), GradingElement(0, 2, 0, 4)
        gens = tuple(DGenerator(name, idem, grading, "x", j) for j, (name, idem, grading) in enumerate((
            ("s", "i0", shared), ("y", "i1", shared), ("t", "i0", shared), ("z", "i1", other))))
        D = TypeDModule.from_edges(gens, (), GradingElement(0, -2, 0, 0))
        gradings = tensor_gradings(A, D, 7)
        assert list(gradings.items()) == list(reference_gradings(A, D, 7).items())
        assert list(gradings) == [("a", "s"), ("b1", "y"), ("b2", "y"), ("a", "t"), ("b1", "z"), ("b2", "z")]
        assert gradings[("a", "s")] != gradings[("b1", "y")]

    @pytest.mark.parametrize("idempotent, grading, error", [
        ("i0", GradingElement(0, 0, 1, 0), GradingError),       # odd doubled c slot
        ("i1", GradingElement(0, 1, 0, 0), ArithmeticError),    # b and c half-parts differ
    ], ids=["odd-c-slot", "odd-determinant"])
    @pytest.mark.parametrize("first", [True, False], ids=["anchor", "later-row"])
    def test_grading_that_does_not_normalize_raises(self, idempotent, grading, error, first):
        """One hand-made complement grading outside the group's half-integer
        lattice fails the pairing with the group law's own error, whether it
        anchors its b slot or is translated from a row anchored before it."""
        A, D, model = modules_for(DELTA_11N50, 0, 5, 3)
        ks = [j for j, g in enumerate(D.generators) if g.idempotent == idempotent]
        k = ks[0] if first else ks[-1]
        D = with_generators(D, D.generators[:k] + (D.generators[k]._replace(grading=grading),)
                            + D.generators[k + 1:])
        with pytest.raises(error):
            reference_gradings(A, D, 0)
        with pytest.raises(error):
            pair_modules(A, D, model.params.l, 3)

    def test_arrows_preserve_alexander_and_drop_maslov(self):
        for delta_text, tau, p, n in ((DELTA_TREFOIL, 1, 3, 1), ("-1,3,-1", 0, 4, -1)):
            A, D, model = modules_for(delta_text, tau, p, n)
            complex_ = pair_modules(A, D, model.params.l, n)
            assert complex_.links
            for j, k, j_target, k_target in complex_.links:
                x, y = complex_.generators.at(j, 0, k), complex_.generators.at(j_target, 0, k_target)
                assert x.alexander == y.alexander
                assert x.maslov == y.maslov + 1


def test_closed_forms_match_group_arithmetic_everywhere():
    """Acceptance-grade cross-check on the full grid (criterion 4 backbone), plus
    the reference rows: levels down to -20, chains with |m| of 106 and 100, p up to 10.
    The computed side is the paired complex's generator view, so every
    b_k*mu_j the chain's progression stands for is compared."""
    rows = [(synthesize_delta(tau, counts), tau, p, n)
            for tau, counts, p, n in (row.values for row in ROW_PARAMS)]
    checked = 0
    for delta, tau, p, n in thin_grid_cases() + rows:
        model = build_model(delta, tau)
        A = build_typea_minus(p)
        D = build_typed(model, n)
        complex_ = pair_modules(A, D, model.params.l, n)
        computed = {(g.a_side, g.d_side): (g.N, g.Aprime) for g in complex_.generators}
        oracle = closed_form_gradings(model, p, n)
        assert oracle, (tau, p, n)
        for pair, want in oracle.items():
            assert computed[pair] == want, (tau, p, n, pair)
            checked += 1
    assert checked > 10_000


def test_closed_forms_cover_every_survivor():
    """Everything the closed forms skip dies in homology: a*x2, high b*y1, b*y2."""
    delta = synthesize_delta(0, {0: 1})
    model = build_model(delta, 0)
    p, n = 4, 1
    A = build_typea_minus(p)
    D = build_typed(model, n)
    oracle = closed_form_gradings(model, p, n)
    missing = {pair for pair in reference_pairs(A, expand_chain(D)) if pair not in oracle}
    for a_name, d_name in missing:
        corner = d_name.split(".")[0]
        assert corner in ("x2", "y1", "y2")
        if corner.startswith("y"):
            k = int(a_name[1:])
            assert k > p if corner == "y1" else k >= p


@ROW_CASES
def test_closed_forms_cover_every_chain_generator(tau, counts, p, n):
    """The closed forms read the chain record: (2p-2)*|m| keys b_k*mu_j, one
    per b_k and chain position, as many as the written-out chain pairs to."""
    model = build_model(synthesize_delta(tau, counts), tau)
    m = 2 * tau - n
    keys = {pair for pair in closed_form_gradings(model, p, n) if pair[1].startswith("mu")}
    assert len(keys) == (2 * p - 2) * abs(m)
    assert keys == {(f"b{k}", f"mu{j}") for k in range(1, 2 * p - 1) for j in range(1, abs(m) + 1)}


def chain_modules(tau, counts, p, m):
    model = build_model(synthesize_delta(tau, counts), tau)
    return build_typea_minus(p), build_typed(model, 2 * tau - m), model.params.l, 2 * tau - m


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("counts", [{}, {1: 2, 0: 3, -1: 2}], ids=["staircase", "squares-x2"])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2, 3, -3, 7, -7] + [
    sign * size for size in (31, 32, 33, 96) for sign in (1, -1)])
@pytest.mark.parametrize("tau", [-2, 0, 3])
def test_chain_progression_equals_written_out_chain(tau, m, counts, p):
    """The chain paired as one progression against the record path on the
    module with the chain written out: the same generators, cells, counts,
    arrows, rank table and check verdicts.  tau = 0, m = 0 is the D_12
    self-loop, and the squares carry copies > 1 beside the chain.  The chain
    has |m| - 1 generators; from |m| = 3 on they are one D entry, whose
    survivors are one progression per b_k, and at |m| = 2 the one is a
    plain stored generator.  On both modules slot j of the view is D
    entry j, and the links are tensor_differential's arrows, sorted: each
    end at the position tensor_differential gives it on the first copy of
    the slot of its D index."""
    A, D, l, n = chain_modules(tau, counts, p, m)
    assert any(d_gen.length > 1 for d_gen in D.generators) == (abs(m) > 2)
    stored, written = pair_modules(A, D, l, n), pair_modules(A, expand_chain(D), l, n)
    for module, complex_ in ((D, stored), (expand_chain(D), written)):
        view = complex_.generators
        assert view.d_names == tuple(d_gen.name for d_gen in module.generators)
        assert complex_.links == tuple(sorted(tensor_differential(A, module)))
    size = len(written.generators)
    assert len(stored.generators) == size
    assert [stored.generators[i] for i in range(size)] == [written.generators[i] for i in range(size)]
    assert cells_of(stored.generators) == cells_of(written.generators)
    chain = along(stored.generators)
    assert (chain is not None) == (abs(m) > 2) and along(written.generators) is None
    listed, listed_written = (reduce_complex(complex_._replace(links=())) for complex_ in (stored, written))
    assert listed == listed_written == RankTable(Counter(cells_of(written.generators)))
    assert named_links(stored) == named_links(written)
    table, want = reduce_complex(stored), reduce_complex(written)
    assert table.ranks == want.ranks and type(table.ranks) is dict
    assert not want.progressions
    if chain is not None:  # one progression per b_k: its cells at mu1, mu2, ... in turn
        (j,), length = chain.slots, len(chain.offsets)
        view = stored.generators
        assert [list(progression.cells()) for progression in table.progressions] == [
            [(g.alexander, g.maslov) for g in (view.at(j, r, k) for r in range(length))] for k in range(2 * p - 2)]
        assert table.progressions == listed.progressions
    else:
        assert (table.stored, table.progressions) == (want.stored, want.progressions)
        assert listed.stored == listed_written.stored and not listed.progressions
    delta, q = synthesize_delta(tau, counts), p * n + 1
    assert symmetry_holds(table) == check_symmetry(want)
    assert euler_holds(table, delta, p, q) == euler_matches_cable(euler_characteristic(want), delta, p, q)


@pytest.mark.parametrize("change", [
    lambda chain: {"grading": chain.grading._replace(c2=chain.grading.c2 + 1)},  # every entry fails
    lambda chain: {"step": chain.step + 1},                                       # the second fails
], ids=["c-parity", "odd-step"])
@pytest.mark.parametrize("m", [-7, 7])
@pytest.mark.parametrize("tau", [0, -2])
def test_chain_off_the_lattice_is_refused_like_written_out_chain(tau, m, change):
    """A chain whose c slot has the wrong parity, at its first generator or
    from its second on, fails the pairing with the group law's own error,
    word for word as on the written-out chain, whether the chain anchors
    its b slot (tau = 0, m < 0) or is translated from a row anchored before it."""
    A, D, l, n = chain_modules(tau, {0: 1}, 3, m)
    j, chain = next((j, g) for j, g in enumerate(D.generators) if g.length > 1)
    D = with_generators(D, D.generators[:j] + (chain._replace(**change(chain)),) + D.generators[j + 1:])
    with pytest.raises((ArithmeticError, GradingError)) as written:
        pair_modules(A, expand_chain(D), l, n)
    with pytest.raises((ArithmeticError, GradingError)) as stored:
        pair_modules(A, D, l, n)
    assert (type(stored.value), str(stored.value)) == (type(written.value), str(written.value))


@pytest.mark.parametrize("idempotent, anchor, shift, error", [
    ("i1", GradingElement(-1, -1, -1, 0), (0, 1, 1), ArithmeticError),  # odd dc2 alone: odd determinant
    ("i0", GradingElement(0, 0, 0, 0), (0, 1, 0), GradingError),        # odd dc2, even b slot: c slot
    ("i1", GradingElement(-1, -1, -1, 0), (1, 2, 0), GradingError),     # 4 does not divide 2*da2 + (b2 - g.a2)*dc2
    ("i1", GradingElement(-1, -1, -1, 0), (0, 2, 1), GradingError),     # 4 does not divide 2*dd2 - g.d2*dc2
    ("i1", GradingElement(-1, -1, -1, 0), (2, 2, 2), None),             # every residue passes
], ids=["odd-dc2-determinant", "odd-dc2-c-slot", "n-residue", "m-residue", "translated"])
def test_later_row_is_decided_by_one_check(idempotent, anchor, shift, error):
    """An anchor and one later row in the same (idempotent, b slot): one
    check on the translation refuses the later row with the error type that
    normalize_double_coset(y * x) raises for the group's first A generator
    y, or passes it with the group law's values for every A generator."""
    A, h = build_typea_minus(3), framing_h(0, -1)
    da2, dc2, dd2 = shift
    later = GradingElement(anchor.a2 + da2, anchor.b2, anchor.c2 + dc2, anchor.d2 + dd2)
    gens = (DGenerator("s", idempotent, anchor, "x", 1), DGenerator("t", idempotent, later, "x", 2))
    D = TypeDModule.from_edges(gens, (), h)
    first = A.grading(idempotent, 0)
    if error is None:
        normalize_double_coset(first * later, A.g, h)
        assert list(tensor_gradings(A, D, 0).items()) == list(reference_gradings(A, D, 0).items())
        return
    for refused in (lambda: normalize_double_coset(first * later, A.g, h),
                    lambda: tensor_gradings(A, D, 0), lambda: pair_modules(A, D, 0, -1)):
        with pytest.raises(error) as got:
            refused()
        assert type(got.value) is error


@pytest.mark.parametrize("shift, error", [
    ((0, 1, 1), ArithmeticError),  # odd dc2 alone: odd determinant
    ((1, 2, 0), GradingError),     # 4 does not divide 2*da2 + (b2 - g.a2)*dc2
    ((0, 2, 1), GradingError),     # 4 does not divide 2*dd2 - g.d2*dc2
    ((2, 2, 2), None),             # every residue passes
], ids=["odd-dc2-determinant", "n-residue", "m-residue", "translated"])
@pytest.mark.parametrize("units", [2, 4, -2, -4])
@pytest.mark.parametrize("slot_seen", [False, True], ids=["fresh-b-slot", "b-slot-seen"])
def test_later_row_at_another_b_slot(shift, error, units, slot_seen):
    """One anchor serves every b slot of its parity: a later i1 grading
    units doubled b slot units from the anchor, in the double coset of the
    anchor moved by shift, is moved to the anchor's b slot by a power of h
    and then as at a fixed b slot.  It passes with reference_gradings'
    values for every A generator, or raises the error type that
    normalize_double_coset(first * later) raises for the group's first A
    generator.  On a b slot no row was made at before, the error is that
    normalization's own, message and all, as when such a grading anchored
    its b slot; after a row that passed on the same b slot, it is the one
    check's."""
    A, h = build_typea_minus(3), framing_h(0, -1)
    anchor = GradingElement(-1, -1, -1, 0)

    def at_slot(da2, dc2, dd2):
        """The anchor moved by (da2, dc2, dd2), then right-multiplied by a power of h onto the later b slot."""
        return GradingElement(anchor.a2 + da2, anchor.b2, anchor.c2 + dc2, anchor.d2 + dd2) * h ** (-units // 2)

    later = at_slot(*shift)
    assert later.b2 == anchor.b2 + units
    gens = [DGenerator("s", "i1", anchor, "x", 1)] + [DGenerator("r", "i1", at_slot(2, 2, 2), "x", 2)] * slot_seen
    D = TypeDModule.from_edges(tuple(gens) + (DGenerator("t", "i1", later, "x", 3),), (), h)
    first = A.grading("i1", 0)
    if error is None:
        normalize_double_coset(first * later, A.g, h)
        assert list(tensor_gradings(A, D, 0).items()) == list(reference_gradings(A, D, 0).items())
        return
    with pytest.raises(error) as want:
        normalize_double_coset(first * later, A.g, h)
    for refused in (lambda: tensor_gradings(A, D, 0), lambda: pair_modules(A, D, 0, -1)):
        with pytest.raises(error) as got:
            refused()
        assert type(got.value) is error
        if not slot_seen:
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("even, error, message", [
    (GradingElement(0, 0, 0, 0), GradingError, "b slot of (1/2; 1/2, -1/2; -2) admits no integral right power"),
    (GradingElement(0, 2, 0, 0), GradingError, "b slot of (1; 3/2, -1/2; -2) admits no integral right power"),
    # b and c half-parts differ; moved from the odd anchor, this one would pass the one check
    (GradingElement(1, 0, 1, 0), ArithmeticError, "determinant term is not a half-integer"),
], ids=["b0", "b2", "b0-odd-c"])
def test_even_b_slot_after_odd_ones_is_refused(even, error, message):
    """i1 gradings of odd b slots -1 and 1 share one anchor; a later one of
    even b slot is of the other parity, so it takes its own anchor, which
    raises the group law's error for the group's first A generator, word
    for word as before one anchor served several b slots.  Moved from the
    odd anchor instead, the last one would get a row."""
    A, h = build_typea_minus(3), framing_h(0, -1)
    gens = tuple(DGenerator(name, "i1", grading, "x", j) for j, (name, grading) in enumerate((
        ("s", GradingElement(-1, -1, -1, 0)), ("t", GradingElement(-1, 1, 1, 0)), ("u", even))))
    odd = TypeDModule.from_edges(gens[:2], (), h)
    assert list(tensor_gradings(A, odd, 0).items()) == list(reference_gradings(A, odd, 0).items())
    D = TypeDModule.from_edges(gens, (), h)
    for refused in (lambda: reference_gradings(A, D, 0), lambda: tensor_gradings(A, D, 0),
                    lambda: pair_modules(A, D, 0, -1)):
        with pytest.raises(error) as got:
            refused()
        assert (type(got.value), str(got.value)) == (error, message)


@pytest.mark.parametrize("tau, counts, p, n", [
    pytest.param(-2, {}, 4, 20, id="chain"),                  # m = -24: a chain of 23
    pytest.param(0, {1: 2, 0: 3, -1: 2}, 3, 1, id="squares"),  # c_t of 2 and 3
])
def test_at_reads_the_view_as_indices_do(tau, counts, p, n):
    """at(slot, copy, position) builds the record that reading the index
    of that spot does, at every index, on a chain cable and on squares with
    c_t > 1, where each level's corner is listed c_t times; an index out of
    range raises."""
    model = build_model(synthesize_delta(tau, counts), tau)
    view = pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n).generators
    spots = spots_of(view)
    assert len(spots) == len(view)
    records = [view.at(*spot) for spot in spots]
    assert records == [view[i] for i in range(len(view))]
    listed = Counter(g.d_side for g in records if g.d_side.startswith("x1."))
    assert listed == {f"x1.s{serial}": counts[t] for serial, t in enumerate(sorted(counts))}
    assert [view[len(view) - 1], view[-len(view)]] == [records[-1], records[0]]
    for i in (len(view), -len(view) - 1):
        with pytest.raises(IndexError):
            view[i]


@st.composite
def square_multisets(draw):
    """A symmetric square multiset of one to nine levels: the positive
    levels are reached by gaps of 1 to 4, so adjacent levels and gaps of
    both parities occur, level 0 is drawn or not, and every level has a
    count of 1 to 4."""
    gaps = draw(st.lists(st.integers(1, 4), max_size=4), label="gaps")
    zero = draw(st.booleans(), label="level 0") or not gaps
    levels = [0] * zero + [sum(gaps[:i + 1]) for i in range(len(gaps))]
    counts = {}
    for i in levels:
        counts[i] = counts[-i] = draw(st.integers(1, 4), label=f"c_{i}")
    return counts


def paired(A, D, delta, tau, p, n):
    """The complex, its table and the three check verdicts of the pipeline."""
    model = build_model(delta, tau)
    complex_ = pair_modules(A, D, model.params.l, n)
    table = reduce_complex(complex_)
    checks = (symmetry_holds(table), euler_holds(table, delta, p, p * n + 1),
              table.total == table_rank(tau, model.params.s, p, n))
    return complex_, table, checks


@settings(max_examples=60, deadline=None)
@given(square_multisets(), st.integers(-3, 3), st.sampled_from((-3, -2, -1, 0, 1, 2, 3)), st.integers(2, 9))
def test_one_square_pairs_as_every_level_written_out(counts, tau, m, p):
    """The one stored square, placed at every level by translation, against
    the module with every level's squares written out (expand_levels, each
    square stored and counted once): the same ranks, progressions, total
    and check verdicts, the stored survivors with the square's lines placed
    at the levels listed more than once making up the written-out table's
    stored survivors, and a view of the same length listing the same names
    and cells; also with the chain written out on both sides."""
    delta, n = synthesize_delta(tau, counts), 2 * tau - m
    A, D = build_typea_minus(p), build_typed(build_model(delta, tau), n)
    assert len({g.level for g in D.generators if g.level is not None}) == 1
    for one_square in (D, expand_chain(D)):
        every_level = expand_levels(one_square)
        assert not every_level.copies
        (complex_, table, checks), (reference, want, want_checks) = (
            paired(A, module, delta, tau, p, n) for module in (one_square, every_level))
        assert table.ranks == want.ranks and table.progressions == want.progressions
        assert RankTable(table.stored, (), table.square).ranks == want.stored and not want.square[1]
        assert [count for _, count in table.square[1]] == [count for _, count in sorted(counts.items()) if count > 1]
        assert table.total == want.total and checks == want_checks == (True, True, True)
        view, listed = complex_.generators, reference.generators
        assert len(view) == len(listed)
        assert [(g.a_side, g.d_side) for g in view] == [(g.a_side, stored_name(g.d_side)) for g in listed]
        assert cells_of(view) == cells_of(listed)


@settings(max_examples=60, deadline=None)
@given(counts=st.one_of(st.just({}), square_multisets()), tau=st.integers(-3, 3),
       n=st.one_of(st.sampled_from((0, 1, -1)), st.integers(-6, 6)), wide=st.integers(1, 8),
       twice_tau=st.booleans())
@example(counts={1: 2, -1: 2}, tau=0, n=0, wide=1, twice_tau=False)       # tau = 0, n = 0: steps 1 and 0
@example(counts={2: 3, 0: 1, -2: 3}, tau=2, n=1, wide=2, twice_tau=False)  # |n| = 1, m = 3
@example(counts={1: 2, -1: 2}, tau=-2, n=-1, wide=3, twice_tau=False)     # |n| = 1, m = -3
@example(counts={}, tau=3, n=0, wide=1, twice_tau=True)                   # n = 2tau, no squares
@example(counts={}, tau=1, n=-25, wide=1, twice_tau=False)                # m = 27 >= p: one piece per b_k
@example(counts={1: 2, -1: 2}, tau=-1, n=25, wide=1, twice_tau=False)     # m = -27
def test_long_families_pair_as_progressions(counts, tau, n, wide, twice_tau):
    """A pattern wider than FAMILY_RUN keeps every grading family of a
    stored row as one progression per slot, cut at arrow ends and placed
    at every square level with the level's count as its rank, and the
    chain's as one progression per family and chain generator, or per b_k
    when the chain is at least as long as a family.  Against the
    module with the chain and every square level and copy written out,
    counted cell by cell (every generator's cell less both ends of every
    arrow), the rank table is the same, and the two checks decided from
    the parts give the cell-by-cell verdicts.  A family piece with one
    cell dropped fails Euler, and one with its bend moved by 2, which keeps
    every Alexander grading and Maslov parity, fails symmetry."""
    p = FAMILY_RUN + wide
    n = 2 * tau if twice_tau else n
    delta = synthesize_delta(tau, counts)
    model = build_model(delta, tau)
    A, D = build_typea_minus(p), build_typed(model, n)
    complex_, table, checks = paired(A, D, delta, tau, p, n)
    assert checks == (True, True, True)
    view = complex_.generators
    chain, rows = along(view), list(view.rows)
    chained = []  # the chain's pieces: one per b_k, or one per family and chain generator when that is fewer
    if chain is not None:
        (steps,), length = chain.steps, len(chain.offsets)
        row = rows.pop(chain.slots[0])
        chained = ([part.moved(step, r) for part, step in zip(row.parts, steps.parts) for r in range(length)]
                   if len(row.parts) * length < len(row) else
                   [Progression(*cell, *step, length) for cell, step in zip(row, steps)])
        assert not Counter(chained) - Counter(table.progressions)
    families = [part for row in rows if type(row) is FamilyRow for part in row.parts]
    assume(families)  # the unknot at n = 0 has no i1 generator
    assert all(family.length == p - 1 for family in families)
    reference = pair_modules(A, written_out(D), model.params.l, n)
    written = reference.generators
    want = Counter(cells_of(written))
    want.subtract((g.alexander, g.maslov) for j, k, j_target, k_target in reference.links
                  for g in (written.at(j, 0, k), written.at(j_target, 0, k_target)))
    assert table.ranks == {cell: rank for cell, rank in want.items() if rank}
    q = p * n + 1
    merged = RankTable(table.ranks)
    assert euler_matches_cable(euler_characteristic(merged), delta, p, q) and check_symmetry(merged)
    # the longest of the families' pieces, the chain's left out
    j = max((j for j, piece in enumerate(table.progressions) if piece not in chained),
            key=lambda j: table.progressions[j].length)
    longest = table.progressions[j]
    short = longest._replace(length=longest.length - 1)
    bent = longest._replace(maslov_bend=longest.maslov_bend + 2)
    for piece, failing in ((short, "euler"), (bent, "symmetry")):
        mutant = RankTable(table.stored, table.progressions[:j] + (piece,) + table.progressions[j + 1:],
                           table.square)
        merged = RankTable(mutant.ranks)
        verdicts = {"symmetry": symmetry_holds(mutant), "euler": euler_holds(mutant, delta, p, q)}
        assert verdicts == {"symmetry": check_symmetry(merged),
                            "euler": euler_matches_cable(euler_characteristic(merged), delta, p, q)}
        assert not verdicts[failing], failing


def test_rows_do_not_grow_with_the_levels():
    """211 levels of two squares each, p = 30, n = 10: the view holds one
    row per stored complement generator and the chain, 11 in all, as for
    the same cable with one level, and still lists every one of the
    100,173 tensor generators."""
    for counts, generators in (({i: 2 for i in range(-105, 106)}, 100_173), ({0: 2}, 1_053)):
        model = build_model(synthesize_delta(0, counts), 0)
        s, p, n = model.params.s, 30, 10
        complex_ = pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n)
        assert len(complex_.generators.rows) == 11
        assert len(complex_.generators) == generators == (1 + 4 * s) + (2 * p - 2) * (4 * s + n)


def cell_of(y, x, A, D, c):
    """The (alexander, maslov) cell of y * x, normalized on its own."""
    N, Aprime = normalize_double_coset(y * x, A.g, D.h)
    return Aprime + c, N + 2 * (Aprime + c)


@pytest.mark.parametrize("tau, counts, n", [
    (1, {1: 1, 0: 2, -1: 1}, -2),         # m = 4
    (-1, {2: 1, 0: 1, -2: 1}, 1),         # m = -3
], ids=["m-pos", "m-neg"])
def test_family_rows_read_like_cells(monkeypatch, tau, counts, n):
    """On a pattern wider than FAMILY_RUN every i1 row and step row is a
    FamilyRow.  Anchors, rows moved from them, and the step rows of the
    square's corners and of the chain entry all read as the cells of each
    A generator normalized on its own (a step row as the difference of the
    cells one level or one chain generator apart): by len, by index from
    either end and by iteration, with IndexError one past either end.  The
    same modules with every row a tuple of cells give the same rows."""
    p = FAMILY_RUN + 1
    model = build_model(synthesize_delta(tau, counts), tau)
    A, D = build_typea_minus(p), build_typed(model, n)
    c = shift_constant(model.params.l, p, n)
    _, rows, repeats = _rows(A, D, c)
    steps = steps_by_slot(repeats)
    ys = [A.grading("i1", k) for k in range(2 * p - 2)]
    kinds, slots = Counter(), set()
    for j, (d_gen, row) in enumerate(zip(D.generators, rows)):
        if d_gen.idempotent == "i0":
            assert type(row) is tuple
            continue
        x = d_gen.grading
        want = [cell_of(y, x, A, D, c) for y in ys]
        kinds["moved" if x.b2 in slots else "anchor"] += 1
        slots.add(x.b2)
        checked = [(row, want)]
        if j in steps:
            da2, dc2, kind = (1 + x.b2, 2, "level") if d_gen.level is not None else (d_gen.step, d_gen.step, "chain")
            up = [cell_of(y, x._replace(a2=x.a2 + da2, c2=x.c2 + dc2), A, D, c) for y in ys]
            checked.append((steps[j], [(a1 - a0, m1 - m0) for (a0, m0), (a1, m1) in zip(want, up)]))
            kinds[kind] += 1
        for got, cells in checked:
            assert isinstance(got, FamilyRow) and len(got) == len(cells) == 2 * p - 2
            assert list(got) == cells
            assert [got[k] for k in range(len(cells))] == cells
            assert [got[-k] for k in range(1, len(cells) + 1)] == cells[::-1]
            for k in (len(cells), -len(cells) - 1):
                with pytest.raises(IndexError):
                    got[k]
    assert set(kinds) == {"anchor", "moved", "level", "chain"}, kinds
    monkeypatch.setattr(pairing, "FAMILY_RUN", p)  # the i1 families fall short: rows of cells
    _, cell_rows, cell_repeats = _rows(A, D, c)
    cell_steps = steps_by_slot(cell_repeats)
    assert all(type(row) is tuple for row in concat(cell_rows, cell_steps.values()))
    assert list(map(list, rows)) == list(map(list, cell_rows))
    assert {j: list(row) for j, row in steps.items()} == {j: list(row) for j, row in cell_steps.items()}


class BentPattern(TypeAModule):
    """The pattern module with k^2 added to the d slot of the i1 grading at
    group position k, so that along each family the Alexander grading of a
    row is quadratic, not affine."""

    def grading(self, idempotent, k):
        y = super().grading(idempotent, k)
        return y._replace(d2=y.d2 + 2 * k * k) if idempotent == "i1" else y


def test_family_with_an_alexander_bend_is_refused():
    """No module build_typed makes has an Alexander second difference along
    a grading family, so an anchor whose family has one raises
    ComplexError, as a tuple row (p = FAMILY_RUN) and as a FamilyRow
    (p = FAMILY_RUN + 1) alike."""
    model = build_model(synthesize_delta(1, {0: 1}), 1)
    D, l = build_typed(model, 1), model.params.l
    narrow, wide = (BentPattern(p=p, g=build_typea_minus(p).g) for p in (FAMILY_RUN, FAMILY_RUN + 1))
    for refused in (lambda: tensor_gradings(narrow, D, 0), lambda: pair_modules(narrow, D, l, 1),
                    lambda: pair_modules(wide, D, l, 1)):
        with pytest.raises(ComplexError, match="have second difference 2, not 0$"):
            refused()
