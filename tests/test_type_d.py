from fractions import Fraction

import pytest

from cablefloer import (
    DGenerator,
    GradingElement,
    build_model,
    build_typed,
    framing_h,
    parse_delta,
    synthesize_delta,
)
from cablefloer.type_d import _SQUARE_BASE, _at_level

from conftest import DELTA_11N50, DELTA_TREFOIL, expand_chain, grading_of

half = Fraction(1, 2)


def module_for(delta_text, tau, n):
    return build_typed(build_model(parse_delta(delta_text), tau), n)


def unstable_chain(tau, n):
    """The mu names and the chain's edges of the staircase-only module, with
    the chain's interior written out."""
    module = expand_chain(build_typed(build_model(synthesize_delta(tau, {}), tau), n))
    mus = [g.name for g in module.generators if g.kind == "mu"]
    return mus, [e for e in module.edges if e.label == "12" or "mu" in e.source + e.target]


class TestUnstableChain:
    def test_zero_framing_difference_is_single_edge(self):
        mus, edges = unstable_chain(0, 0)
        assert mus == []
        assert edges == [("u1", "12", "u1")]

    def test_negative_m_chain(self):
        mus, edges = unstable_chain(0, 1)  # m = -1
        assert mus == ["mu1"]
        assert edges == [("mu1", "2", "u1")]

    def test_positive_m_chain(self):
        mus, edges = unstable_chain(1, 1)  # m = 1
        assert mus == ["mu1"]
        assert edges == [("u3", "1", "mu1")]

    def test_long_chains(self):
        # the chain's one edge is at its end; its interior has none
        mus, edges = unstable_chain(0, -3)  # m = 3
        assert mus == ["mu1", "mu2", "mu3"]
        assert edges == [("u1", "1", "mu1")]

        mus, edges = unstable_chain(0, 3)  # m = -3
        assert mus == ["mu1", "mu2", "mu3"]
        assert edges == [("mu3", "2", "u1")]

    @pytest.mark.parametrize("m", [-7, -2, -1, 0, 1, 2, 7])
    @pytest.mark.parametrize("tau", [-2, 0, 3])
    def test_chain_is_one_record(self, tau, m):
        """One mu generator, the end arrows reach, and one record for the
        other |m| - 1, placed in D order where the old list had them; only
        D_1, D_2 and D_12 edges are stored."""
        model = build_model(synthesize_delta(tau, {0: 1}), tau)
        module = build_typed(model, 2 * tau - m)
        assert {e.label for e in module.edges} <= {"1", "2", "12"}
        mus = [(j, g) for j, g in enumerate(module.generators) if g.kind == "mu"]
        assert [g.name for _, g in mus] == ([] if m == 0 else ["mu1" if m > 0 else f"mu{-m}"])
        chain = module.chain
        if abs(m) < 2:
            assert chain is None
            return
        (end, _), = mus
        assert (chain.index, chain.step, chain.length) == ((2, 2, m - 1) if m > 0 else (1, -2, -m - 1))
        assert chain.at == (end + 1 if m > 0 else end)
        names = [g.name for g in expand_chain(module).generators if g.kind == "mu"]
        assert names == [f"mu{j}" for j in range(1, abs(m) + 1)]


class TestBuild:
    def test_unknot_positive_framing(self):
        module = module_for("1", 0, 1)
        names = {g.name: g for g in module.generators}
        assert set(names) == {"u1", "mu1"}
        assert names["u1"].idempotent == "i0"
        assert names["mu1"].idempotent == "i1"
        assert module.h == grading_of(-1, -1, -1, 0)

    def test_left_trefoil(self):
        module = module_for(DELTA_TREFOIL, -1, -2)
        names = {g.name: g for g in module.generators}
        assert module.h == grading_of(-Fraction(3, 2), -1, 2, 0)
        assert names["u3"].grading == grading_of(1, 0, 2, 0)

    def test_right_trefoil(self):
        module = module_for(DELTA_TREFOIL, 1, 1)
        names = {g.name: g for g in module.generators}
        assert names["u3"].grading == grading_of(-1, 0, -2, 0)

    def test_degenerate_staircase_self_loop(self):
        module = module_for("1", 0, 0)
        assert [g.name for g in module.generators] == ["u1"]
        assert list(module.edges) == [("u1", "12", "u1")]

    @pytest.mark.parametrize("tau,n", [(0, 0), (0, 2), (-1, -2), (-2, 1), (1, 1), (2, -3)])
    @pytest.mark.parametrize("counts", [{}, {0: 1}, {1: 1, -1: 1}, {1: 2, 0: 3, -1: 2}])
    def test_generator_counts(self, tau, n, counts):
        """One square of 8 generators and 4 edges, at the lowest level,
        whatever the number of levels and their counts, and the counts keyed
        by level t = i - tau; one edge per model arrow (2 per staircase step,
        4 for the square) plus the chain's one."""
        model = build_model(synthesize_delta(tau, counts), tau)
        module = build_typed(model, n)
        square = bool(model.square_counts)
        m = 2 * tau - n
        i0 = [g for g in module.generators if g.idempotent == "i0"]
        i1 = [g for g in module.generators if g.idempotent == "i1"]
        assert len(i0) == 2 * abs(tau) + 1 + 4 * square
        assert len(i1) == 2 * abs(tau) + (m != 0) + 4 * square
        assert (module.chain.length if module.chain else 0) == max(abs(m) - 1, 0)
        written = [g for g in expand_chain(module).generators if g.idempotent == "i1"]
        assert len(written) == 2 * abs(tau) + abs(m) + 4 * square
        levels = {g.level for g in module.generators if g.level is not None}
        assert levels == ({min(module.copies)} if square else set())
        assert sum(g.level is not None for g in module.generators) == 8 * square
        assert sum("." in e.source for e in module.edges) == 4 * square
        assert len(module.edges) == 2 * abs(tau) + 4 * square + 1
        assert module.copies == {i - tau: c for i, c in model.square_counts.items()}
        assert list(module.copies) == sorted(module.copies)

    @pytest.mark.parametrize("tau,n", [(0, 1), (0, -2), (-1, -2), (1, 1), (2, 0), (-2, -1)])
    def test_gadget_well_formed(self, tau, n):
        """Each staircase/square i1 generator has exactly one stored edge:
        an incoming D1 (a vertical model arrow) or an outgoing D2 (a
        horizontal one)."""
        model = build_model(synthesize_delta(tau, {0: 1, 1: 1, -1: 1}), tau)
        module = build_typed(model, n)
        for gen in module.generators:
            if gen.idempotent != "i1" or gen.kind == "mu":
                continue
            touching = [("in" if e.target == gen.name else "out", e.label)
                        for e in module.edges if gen.name in (e.source, e.target)]
            assert touching in ([("in", "1")], [("out", "2")])

    def test_square_level_shift(self):
        # 11n50 has two squares in each level -1, 0, 1, stored as one square
        # at level -1 with the count of every level; corner gradings are the
        # base square times (t/2; 0, t; 0)
        module = module_for(DELTA_11N50, 0, 3)
        gens = [gen for gen in module.generators if gen.level is not None]
        assert {gen.level for gen in gens} == {-1}
        assert module.copies == {-1: 2, 0: 2, 1: 2}
        x1 = next(gen for gen in gens if gen.kind == "x" and gen.index == 1)
        assert x1.grading == GradingElement.identity() * GradingElement(-1, 0, -2, 0)
        assert [gen.name for gen in gens] == [f"{corner}.s0" for corner in ("x1", "x2", "x3", "x4",
                                                                          "y1", "y2", "y3", "y4")]

    def test_staircase_and_square_gradings_differ_by_case(self):
        case1 = {g.name: g for g in module_for(DELTA_TREFOIL, -1, 0).generators}
        case2 = {g.name: g for g in module_for(DELTA_TREFOIL, 1, 0).generators}
        assert case1["v1"].grading == grading_of(-half, -half, half, 0)
        assert case2["v1"].grading == grading_of(-half, -half, -half, 0)
        assert case1["v2"].grading == grading_of(Fraction(3, 2), half, Fraction(3, 2), 0)
        assert case2["v2"].grading == grading_of(-Fraction(3, 2), half, -Fraction(3, 2), 0)


def test_generator_record_contract():
    """An immutable value, equal and hashed by value, whose level defaults
    to None; refusal messages embed its repr word for word."""
    gen = DGenerator("v1", "i1", GradingElement(1, -1, 3, 0), "v", 1)
    assert gen.level is None
    with pytest.raises(AttributeError):
        gen.name = "v2"
    same = DGenerator("v1", "i1", GradingElement(1, -1, 3, 0), "v", 1, None)
    assert gen == same and hash(gen) == hash(same)
    assert gen != gen._replace(level=0)
    assert repr(gen) == ("DGenerator(name='v1', idempotent='i1', "
                         "grading=GradingElement(a2=1, b2=-1, c2=3, d2=0), kind='v', index=1, level=None)")


def level_shift(t):
    """(t/2; 0, t; 0), the right factor that moves a square corner to level t."""
    return GradingElement(t, 0, 2 * t, 0)


def test_square_corners_match_group_product():
    """The closed form that places a corner at a level against the group
    product it stands for, the level-0 corner times the shift of its level,
    for all eight corners at every level from -12 to 12; the stored square
    is the one at the lowest level."""
    for corner, base in _SQUARE_BASE.items():
        for t in range(-12, 13):
            assert _at_level(base, t) == base * level_shift(t), (corner, t)
    module = build_typed(build_model(synthesize_delta(0, dict.fromkeys(range(-12, 13), 1)), 0), 1)
    stored = {gen.name.split(".")[0]: gen for gen in module.generators if gen.level is not None}
    assert set(stored) == set(_SQUARE_BASE)
    assert all(gen.level == -12 and gen.grading == _SQUARE_BASE[corner] * level_shift(-12)
               for corner, gen in stored.items())
    assert module.copies == dict.fromkeys(range(-12, 13), 1)


@pytest.mark.parametrize("tau", [-3, 0, 3])
def test_staircase_corners_match_group_product(tau):
    """u_i is the x3 corner at level sigma*(i - 1), and v_j the y4 (odd j)
    or y3 (even j) corner at the level of the u emitted with it, u_j for
    tau <= 0 and u_{j+1} for tau > 0; each grading equals that group product."""
    sigma = 1 if tau <= 0 else -1
    module = build_typed(build_model(synthesize_delta(tau, {}), tau), 2 * tau + 1)
    staircase = [gen for gen in module.generators if gen.kind in ("u", "v")]
    assert len(staircase) == 4 * abs(tau) + 1
    for gen in staircase:
        if gen.kind == "u":
            corner, u = "x3", gen.index
        else:
            corner, u = "y4" if gen.index % 2 else "y3", gen.index if tau <= 0 else gen.index + 1
        assert gen.grading == _SQUARE_BASE[corner] * level_shift(sigma * (u - 1))


def written_out_staircase(tau):
    """The staircase's doubled gradings and stored edges (D_1 and D_2, one
    per model arrow), written out for each sign of tau."""
    steps = abs(tau)
    gens, edges = {}, set()
    if tau <= 0:
        for k in range(steps + 1):
            gens[f"u{2 * k + 1}"] = GradingElement(2 * k, 0, 4 * k, 0)
        for k in range(1, steps + 1):
            gens[f"u{2 * k}"] = GradingElement(2 * k - 1, 0, 4 * k - 2, 0)
            gens[f"v{2 * k}"] = GradingElement(4 * k - 1, 1, 4 * k - 1, 0)
        for k in range(steps):
            gens[f"v{2 * k + 1}"] = GradingElement(-1, -1, 4 * k + 1, 0)
        for t in range(steps):
            edges |= {(f"u{2 * t + 1}", "1", f"v{2 * t + 1}"), (f"v{2 * t + 2}", "2", f"u{2 * t + 2}")}
    else:
        for k in range(steps + 1):
            gens[f"u{2 * k + 1}"] = GradingElement(-2 * k, 0, -4 * k, 0)
        for k in range(1, steps + 1):
            gens[f"u{2 * k}"] = GradingElement(-2 * k + 1, 0, -4 * k + 2, 0)
            gens[f"v{2 * k}"] = GradingElement(-4 * k + 1, 1, -4 * k + 1, 0)
        for k in range(steps):
            gens[f"v{2 * k + 1}"] = GradingElement(-1, -1, -4 * k - 1, 0)
        for t in range(1, steps + 1):
            edges |= {(f"u{2 * t}", "1", f"v{2 * t - 1}"), (f"v{2 * t}", "2", f"u{2 * t + 1}")}
    return gens, edges


@pytest.mark.parametrize("tau", range(-4, 5))
def test_staircase_matches_written_out_gradings_and_edges(tau):
    """Every staircase generator and edge, against the two cases written out by hand."""
    # n = 2*tau + 1, so no D_12 edge joins the staircase ends
    module = build_typed(build_model(synthesize_delta(tau, {0: 1}), tau), 2 * tau + 1)
    gens, edges = written_out_staircase(tau)
    staircase = {g.name: g for g in module.generators if g.kind in ("u", "v")}
    assert set(staircase) == set(gens)
    for name, grading in gens.items():
        gen = staircase[name]
        assert (gen.idempotent, gen.grading, gen.kind, gen.index, gen.level) == \
            ("i0" if name[0] == "u" else "i1", grading, name[0], int(name[1:]), None)
    assert {e for e in module.edges if e.source in staircase and e.target in staircase} == edges


@pytest.mark.parametrize("n", [-20000, 20000])
def test_chain_is_not_written_out(n):
    """A chain of 20,000 generators adds one generator and one record to the
    module: 2|tau|+1 u's, 2|tau| v's, the 8 corners of the one stored square,
    whatever its levels, and the chain end."""
    tau, counts = 0, {1: 1, 0: 2, -1: 1}
    model = build_model(synthesize_delta(tau, counts), tau)
    module = build_typed(model, n)
    assert len(module.generators) == 2 * abs(tau) + 1 + 2 * abs(tau) + 8 + 1
    assert module.chain.length == abs(2 * tau - n) - 1


def test_h_specialization_at_m_zero():
    # the listed m = 0 value (-l - 1/2; -1, 2l; 0) is the general formula at m = 0
    for l in range(-3, 4):
        assert framing_h(l, 0) == grading_of(-l - half, -1, 2 * l, 0)
