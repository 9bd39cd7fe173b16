from collections import Counter
from dataclasses import replace

import pytest

from cablefloer import (
    ComplexError,
    DEdge,
    DGenerator,
    GradingElement,
    GradingError,
    TensorGenerator,
    TypeDModule,
    build_model,
    build_typea_minus,
    build_typed,
    closed_form_gradings,
    compute_cable_hfk,
    hat_operations,
    normalize_double_coset,
    pair_modules,
    parse_delta,
    shift_constant,
    synthesize_delta,
    tensor_differential,
    tensor_gradings,
)

from conftest import (
    DELTA_5_2,
    DELTA_11N50,
    DELTA_TREFOIL,
    SPREAD_55,
    expand_squares,
    stored_name,
    thin_grid_cases,
)


def modules_for(delta_text, tau, p, n):
    model = build_model(parse_delta(delta_text), tau)
    return build_typea_minus(p), build_typed(model, n), model


def reference_differential(A, D):
    """Generic matcher: every hat operation against every complement label path, mod 2."""
    outgoing = {}
    for edge in D.edges:
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
    for a_name, d_name in reference_pairs(A, D):
        N, Aprime = normalize_double_coset(A.gradings[a_name] * grading[d_name], A.g, D.h)
        alexander = Aprime + c
        out[(a_name, d_name)] = (N, Aprime, alexander, N + 2 * alexander)
    return out


ROW_CASES = pytest.mark.parametrize("tau, counts, p, n", [
    (0, {1: 2, 0: 2, -1: 2}, 5, 3),    # golden 11n50: two squares per level
    (10, SPREAD_55, 10, 30),           # 55 squares spread over 21 levels
    (-2, {1: 2, 0: 3, -1: 2}, 3, -1),  # tau < 0, m < 0
    (0, {}, 4, 0),                     # the zero-framed unknot
    (3, {0: 1}, 7, -100),              # long unstable chain, m = 106
    (-2, {}, 6, 96),                   # long unstable chain, m = -100
    (-1, {1: 1, 0: 2, -1: 1}, 2, 1),   # p = 2: a square of 12 generators
    (2, {1: 1, 0: 2, -1: 1}, 4, 4),    # m = 0: one D_12 edge joins the staircase ends
], ids=["golden-11n50", "spread-55", "tau-neg-m-neg", "unknot-n0", "chain-m106", "chain-m-100",
        "p2-squares", "m0-squares"])


def generator_pairs(delta_text, tau, p, n):
    """(A side, D side) of every generator of the paired complex, with the
    reference loop over every square copy checked to list the same pairs."""
    A, D, model = modules_for(delta_text, tau, p, n)
    pairs = [(g.a_side, g.d_side) for g in pair_modules(A, D, model.params.l, n).generators]
    assert pairs == [(a, stored_name(d)) for a, d in reference_pairs(A, expand_squares(D))]
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
        arrows = tensor_differential(A, D)
        assert arrows == [(("a", "u1"), ("b2", "v1"))]

    def test_square_arrows(self):
        A, D, _ = modules_for("-1,3,-1", 0, 3, 1)
        arrows = set(tensor_differential(A, D))
        assert (("a", "x1.s0"), ("b4", "y4.s0")) in arrows
        assert (("a", "x2.s0"), ("b4", "y2.s0")) in arrows
        assert (("b4", "y1.s0"), ("b3", "y2.s0")) in arrows

    def test_m_zero_long_staircase_arrow_needs_p3(self):
        # u3 --D12--> u1 --D1--> v1 matches an operation only once p >= 3
        A2, D2, _ = modules_for(DELTA_TREFOIL, -1, 2, -2)
        assert (("a", "u3"), ("b1", "v1")) not in tensor_differential(A2, D2)
        A3, D3, _ = modules_for(DELTA_TREFOIL, -1, 3, -2)
        assert (("a", "u3"), ("b3", "v1")) in tensor_differential(A3, D3)

    def test_positive_m_arrows(self):
        A, D, _ = modules_for(DELTA_TREFOIL, 1, 3, 1)  # m = 1, case tau > 0
        arrows = set(tensor_differential(A, D))
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
                    arrows = tensor_differential(A, D)
                    assert len(arrows) == len(set(arrows)), (tau, counts, m)
                    assert set(arrows) == reference_differential(A, D), (tau, counts, m)
                    checked += len(arrows)
        assert checked > 0

    @pytest.mark.parametrize("p", range(2, 9))
    def test_walk_matches_reference_on_synthetic_paths(self, p):
        # a D_12 self-loop that feeds D_1 edges at every depth, parallel paths
        # that cancel mod 2 from depth 1 on (s -> y directly and through t),
        # and a doubled D_1 edge that always cancels
        i0, i1 = ("s", "t", "w"), ("y", "z", "q")
        gens = tuple(DGenerator(name, idem, GradingElement.identity(), "x", j)
                     for idem, names in (("i0", i0), ("i1", i1)) for j, name in enumerate(names))
        edges = tuple(DEdge(*e) for e in (
            ("s", "12", "s"), ("s", "1", "y"), ("s", "12", "t"), ("t", "1", "y"),
            ("s", "1", "z"), ("s", "1", "z"), ("t", "1", "q"),
            ("q", "2", "s"), ("z", "2", "w"), ("w", "1", "z"),
        ))
        D = TypeDModule(tau=0, framing=0, generators=gens, edges=edges, h=GradingElement.identity())
        A = build_typea_minus(p)
        arrows = tensor_differential(A, D)
        assert len(arrows) == len(set(arrows))
        assert set(arrows) == reference_differential(A, D)
        assert arrows

    @pytest.mark.parametrize("tau, n, total", [
        (0, 0, 1), (0, 1, 2199), (0, -1, 2197), (1, 2, 4397), (-1, -2, 4395),
    ])
    def test_p_over_1000_end_to_end(self, tau, n, total):
        # p = 1100: the zero-framed unknot's D_12 self-loop is walked p - 1
        # times, and no operation table of about p^3/6 chord letters is built
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
        assert set(tensor_differential(A, D)) == expected


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
        gradings = tensor_gradings(A, D, shift_constant(model.params.l, p, n))
        assert [(g.a_side, g.d_side) for g in complex_.generators] == [
            (a, stored_name(d)) for a, d in reference_pairs(A, expand_squares(D))]
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
        """The lazy view, the row-times-copies counts and the offset arrow
        indices against one record per generator and an index dict, with
        every square copy written out and walked by the generic matcher."""
        model = build_model(synthesize_delta(tau, counts), tau)
        A, D = build_typea_minus(p), build_typed(model, n)
        expanded = expand_squares(D)
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
        assert complex_.bigradings == Counter((g.alexander, g.maslov) for g in want)
        index = {pair: i for i, pair in enumerate(pairs)}
        assert complex_.arrows == tuple(sorted((index[src], index[tgt])
                                               for src, tgt in reference_differential(A, expanded)))

    @ROW_CASES
    def test_square_summands_follow_square_counts(self, tau, counts, p, n):
        """One (start, stop, c_t) entry per level: its first copy's arrows lie
        in that copy's 8p - 4 generators, under the level's stored square,
        and the next c_t - 1 blocks of arrows are them shifted by whole
        squares."""
        model = build_model(synthesize_delta(tau, counts), tau)
        complex_ = pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n)
        gens, arrows, size = complex_.generators, complex_.arrows, 8 * p - 4
        assert [count for _, _, count in complex_.levels] == [model.square_counts[i]
                                                              for i in sorted(model.square_counts)]
        end = complex_.levels[0][0] if complex_.levels else len(arrows)
        assert all("." not in gens[i].d_side for arrow in arrows[:end] for i in arrow)
        d_sides = [g.d_side for g in gens]
        for serial, (start, stop, count) in enumerate(complex_.levels):
            assert start == end
            first = d_sides.index(f"x1.s{serial}")
            own = arrows[start:stop]
            assert own and all(first <= i < first + size for arrow in own for i in arrow)
            assert all(d_sides[i].endswith(f".s{serial}") for i in range(first, first + count * size))
            end = stop + (count - 1) * len(own)
            assert arrows[stop:end] == tuple((src + k * size, tgt + k * size)
                                             for k in range(1, count) for src, tgt in own)
        assert end == len(arrows)

    def test_rows_keyed_by_idempotent_and_grading(self):
        # s and y share a grading but pair with different A generators, and
        # t repeats s; a row keyed on the grading alone would give y the
        # single-entry row of s.  The pattern gradings are hand-picked so
        # that one D grading normalizes against both a and the b's.
        A = replace(build_typea_minus(2), gradings={
            "a": GradingElement.identity(),
            "b1": GradingElement(2, 2, 0, 2),
            "b2": GradingElement(0, 0, 4, -2),
        })
        shared, other = GradingElement.identity(), GradingElement(0, 2, 0, 4)
        gens = tuple(DGenerator(name, idem, grading, "x", j) for j, (name, idem, grading) in enumerate((
            ("s", "i0", shared), ("y", "i1", shared), ("t", "i0", shared), ("z", "i1", other))))
        D = TypeDModule(tau=0, framing=0, generators=gens, edges=(), h=GradingElement(0, -2, 0, 0))
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
        anchors its b slot's affine maps or meets maps anchored before it."""
        A, D, model = modules_for(DELTA_11N50, 0, 5, 3)
        ks = [j for j, g in enumerate(D.generators) if g.idempotent == idempotent]
        k = ks[0] if first else ks[-1]
        D = replace(D, generators=D.generators[:k] + (replace(D.generators[k], grading=grading),)
                    + D.generators[k + 1:])
        with pytest.raises(error):
            reference_gradings(A, D, 0)
        with pytest.raises(error):
            pair_modules(A, D, model.params.l, 3)

    def test_arrows_preserve_alexander_and_drop_maslov(self):
        for delta_text, tau, p, n in ((DELTA_TREFOIL, 1, 3, 1), ("-1,3,-1", 0, 4, -1)):
            A, D, model = modules_for(delta_text, tau, p, n)
            complex_ = pair_modules(A, D, model.params.l, n)
            for src, tgt in complex_.arrows:
                x, y = complex_.generators[src], complex_.generators[tgt]
                assert x.alexander == y.alexander
                assert x.maslov == y.maslov + 1


def test_closed_forms_match_group_arithmetic_everywhere():
    """Acceptance-grade cross-check on the full grid (criterion 4 backbone)."""
    checked = 0
    for delta, tau, p, n in thin_grid_cases():
        model = build_model(delta, tau)
        A = build_typea_minus(p)
        D = build_typed(model, n)
        computed = tensor_gradings(A, D, shift_constant(model.params.l, p, n))
        oracle = closed_form_gradings(model, p, n)
        assert oracle, (tau, p, n)
        for pair, (want_n, want_aprime) in oracle.items():
            got_n, got_aprime, _, _ = computed[pair]
            assert (got_n, got_aprime) == (want_n, want_aprime), (tau, p, n, pair)
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
    missing = {pair for pair in reference_pairs(A, D) if pair not in oracle}
    for a_name, d_name in missing:
        corner = d_name.split(".")[0]
        assert corner in ("x2", "y1", "y2")
        if corner.startswith("y"):
            k = int(a_name[1:])
            assert k > p if corner == "y1" else k >= p
