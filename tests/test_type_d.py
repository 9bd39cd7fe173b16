from fractions import Fraction

import pytest

from cablefloer import (
    GradingElement,
    build_model,
    build_typed,
    framing_h,
    parse_delta,
    synthesize_delta,
    unstable_chain,
)

from conftest import DELTA_11N50, DELTA_TREFOIL

half = Fraction(1, 2)


def module_for(delta_text, tau, n):
    return build_typed(build_model(parse_delta(delta_text), tau), n)


class TestUnstableChain:
    def test_zero_framing_difference_is_single_edge(self):
        mus, edges = unstable_chain(0, 0)
        assert mus == []
        assert edges == [("u1", "12", "u1")]

    def test_negative_m_chain(self):
        mus, edges = unstable_chain(0, 1)  # m = -1
        assert mus == ["mu1"]
        assert edges == [("u1", "123", "mu1"), ("mu1", "2", "u1")]

    def test_positive_m_chain(self):
        mus, edges = unstable_chain(1, 1)  # m = 1
        assert mus == ["mu1"]
        assert edges == [("u3", "1", "mu1"), ("u1", "3", "mu1")]

    def test_long_chains(self):
        mus, edges = unstable_chain(0, -3)  # m = 3
        assert mus == ["mu1", "mu2", "mu3"]
        assert ("u1", "1", "mu1") in edges
        assert ("mu2", "23", "mu1") in edges and ("mu3", "23", "mu2") in edges
        assert ("u1", "3", "mu3") in edges

        mus, edges = unstable_chain(0, 3)  # m = -3
        assert mus == ["mu1", "mu2", "mu3"]
        assert ("u1", "123", "mu1") in edges
        assert ("mu1", "23", "mu2") in edges and ("mu2", "23", "mu3") in edges
        assert ("mu3", "2", "u1") in edges


class TestBuild:
    def test_unknot_positive_framing(self):
        module = module_for("1", 0, 1)
        names = {g.name: g for g in module.generators}
        assert set(names) == {"u1", "mu1"}
        assert names["u1"].idempotent == "i0"
        assert names["mu1"].idempotent == "i1"
        assert module.h == GradingElement.of(-1, -1, -1, 0)

    def test_left_trefoil(self):
        module = module_for(DELTA_TREFOIL, -1, -2)
        names = {g.name: g for g in module.generators}
        assert module.h == GradingElement.of(-Fraction(3, 2), -1, 2, 0)
        assert names["u3"].grading == GradingElement.of(1, 0, 2, 0)

    def test_right_trefoil(self):
        module = module_for(DELTA_TREFOIL, 1, 1)
        names = {g.name: g for g in module.generators}
        assert names["u3"].grading == GradingElement.of(-1, 0, -2, 0)

    def test_degenerate_staircase_self_loop(self):
        module = module_for("1", 0, 0)
        assert [g.name for g in module.generators] == ["u1"]
        assert list(module.edges) == [("u1", "12", "u1")]

    @pytest.mark.parametrize("tau,n", [(0, 0), (0, 2), (-1, -2), (-2, 1), (1, 1), (2, -3)])
    @pytest.mark.parametrize("counts", [{}, {0: 1}, {1: 1, -1: 1}, {1: 2, 0: 3, -1: 2}])
    def test_generator_counts(self, tau, n, counts):
        """One square of 8 generators and 8 edges per level, whatever its
        count, and the counts keyed by level t = i - tau."""
        model = build_model(synthesize_delta(tau, counts), tau)
        module = build_typed(model, n)
        levels = len(model.square_counts)
        m = 2 * tau - n
        i0 = [g for g in module.generators if g.idempotent == "i0"]
        i1 = [g for g in module.generators if g.idempotent == "i1"]
        assert len(i0) == 2 * abs(tau) + 1 + 4 * levels
        assert len(i1) == 2 * abs(tau) + abs(m) + 4 * levels
        assert sum(g.level is not None for g in module.generators) == 8 * levels
        assert sum("." in e.source for e in module.edges) == 8 * levels
        assert module.copies == {i - tau: c for i, c in model.square_counts.items()}

    @pytest.mark.parametrize("tau,n", [(0, 1), (0, -2), (-1, -2), (1, 1), (2, 0), (-2, -1)])
    def test_gadget_well_formed(self, tau, n):
        """Staircase/square i1 generators have one incoming D1-or-D3 edge and
        one incoming D123 or outgoing D2 edge."""
        model = build_model(synthesize_delta(tau, {0: 1, 1: 1, -1: 1}), tau)
        module = build_typed(model, n)
        for gen in module.generators:
            if gen.idempotent != "i1" or gen.kind == "mu":
                continue
            into_13 = [e for e in module.edges if e.target == gen.name and e.label in ("1", "3")]
            into_123 = [e for e in module.edges if e.target == gen.name and e.label == "123"]
            out_2 = [e for e in module.edges if e.source == gen.name and e.label == "2"]
            assert len(into_13) == 1
            assert len(into_123) + len(out_2) == 1

    def test_square_level_shift(self):
        # 11n50 has two squares in each level -1, 0, 1, stored as one square
        # per level; corner gradings are the base square times (t/2; 0, t; 0)
        module = module_for(DELTA_11N50, 0, 3)
        squares = {}
        for gen in module.generators:
            if gen.level is not None:
                squares.setdefault(gen.level, []).append(gen)
        assert {level: len(gens) for level, gens in squares.items()} == {-1: 8, 0: 8, 1: 8}
        assert module.copies == {-1: 2, 0: 2, 1: 2}
        for level, gens in squares.items():
            shift = GradingElement(level, 0, 2 * level, 0)
            x1 = next(gen for gen in gens if gen.kind == "x" and gen.index == 1)
            assert x1.grading == GradingElement.identity() * shift
            assert [gen.name.split(".")[0] for gen in gens] == ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"]

    def test_staircase_and_square_gradings_differ_by_case(self):
        case1 = {g.name: g for g in module_for(DELTA_TREFOIL, -1, 0).generators}
        case2 = {g.name: g for g in module_for(DELTA_TREFOIL, 1, 0).generators}
        assert case1["v1"].grading == GradingElement.of(-half, -half, half, 0)
        assert case2["v1"].grading == GradingElement.of(-half, -half, -half, 0)
        assert case1["v2"].grading == GradingElement.of(Fraction(3, 2), half, Fraction(3, 2), 0)
        assert case2["v2"].grading == GradingElement.of(-Fraction(3, 2), half, -Fraction(3, 2), 0)


def test_h_specialization_at_m_zero():
    # the listed m = 0 value (-l - 1/2; -1, 2l; 0) is the general formula at m = 0
    for l in range(-3, 4):
        assert framing_h(l, 0) == GradingElement.of(-l - half, -1, 2 * l, 0)
