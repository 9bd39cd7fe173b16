import random
from dataclasses import replace

import pytest

from cablefloer import (
    BigradedComplex,
    ComplexError,
    RankTable,
    TensorGenerator,
    build_model,
    build_typea_minus,
    build_typed,
    pair_modules,
    parse_delta,
    reduce_complex,
    synthesize_delta,
)

from conftest import DELTA_11N50, DELTA_TREFOIL, SPREAD_55


def gen(a_side, d_side, alexander, maslov):
    return TensorGenerator(a_side=a_side, d_side=d_side, N=maslov - 2 * alexander,
                           Aprime=alexander, alexander=alexander, maslov=maslov)


def complex_for(delta_text, tau, p, n):
    model = build_model(parse_delta(delta_text), tau)
    return pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n)


class TestRankTable:
    def test_totals_and_order(self):
        table = RankTable({(1, 0): 1, (0, -1): 2, (1, 2): 1, (2, 2): 0})
        assert table.total == 4
        assert table.entries() == [(1, 2, 1), (1, 0, 1), (0, -1, 2)]
        assert table.alexander_multiset() == {1: 2, 0: 2}

    def test_zero_entries_dropped(self):
        assert RankTable({(0, 0): 0}).ranks == {}


class TestGradingFilter:
    """reduce_complex refuses any arrow that does not keep the Alexander
    grading and lower the Maslov grading by one."""

    def test_empty_complex_unchanged(self):
        assert reduce_complex(BigradedComplex(generators=(), arrows=())).ranks == {}

    def test_strict_raises(self):
        # same Alexander grading, Maslov not lowered by one
        bad = BigradedComplex(
            generators=(gen("a", "u1", 0, 0), gen("b1", "v1", 0, 0)),
            arrows=((0, 1),),
        )
        with pytest.raises(ComplexError, match=r"a u1 \(A=0, M=0\) -> b1 v1 \(A=0, M=0\)"):
            reduce_complex(bad)

    def test_left_trefoil_p2_has_no_misfits(self):
        # the long-staircase arrow that would break the bigrading does not
        # arise at p = 2 (no matching operation), so the check passes
        complex_ = complex_for(DELTA_TREFOIL, -1, 2, -2)
        assert len(complex_.arrows) == 1
        assert reduce_complex(complex_).total == len(complex_.generators) - 2

    def test_11n50_strict_clean(self):
        complex_ = complex_for(DELTA_11N50, 0, 5, 3)
        gens = complex_.generators
        assert complex_.arrows
        assert all((gens[s].alexander, gens[s].maslov - 1) == (gens[t].alexander, gens[t].maslov)
                   for s, t in complex_.arrows)
        reduce_complex(complex_)


class TestReduce:
    def test_no_arrows(self):
        complex_ = BigradedComplex(
            generators=(gen("a", "u1", 0, 0), gen("b1", "v1", 1, 1), gen("b2", "v1", 1, 3)),
            arrows=(),
        )
        assert reduce_complex(complex_).total == 3

    def test_right_trefoil_cable(self):
        complex_ = complex_for(DELTA_TREFOIL, 1, 2, 1)
        assert len(complex_.generators) == 9
        assert len(complex_.arrows) == 2
        table = reduce_complex(complex_)
        assert table.total == 5
        assert sorted(table.alexander_multiset()) == [-3, -2, 0, 2, 3]

    def test_11n50_total(self):
        assert reduce_complex(complex_for(DELTA_11N50, 0, 5, 3)).total == 181

    def test_acyclic_chain(self):
        # da = b, dc = b + d: full rank, nothing survives
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 1), gen("b1", "g1", 0, 0),
                        gen("b1", "g2", 0, 1), gen("b2", "g3", 0, 0)),
            arrows=((0, 1), (2, 1), (2, 3)),
        )
        assert reduce_complex(complex_).total == 0

    def test_zigzag_composition(self):
        # da = b + d, dc = b, de = d: rank 2 differential on 5 generators,
        # so exactly one class survives; cancelling (a, b) must toggle the
        # composite arrow c -> d for the count to come out right
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 1), gen("b1", "g1", 0, 0),
                        gen("b1", "g2", 0, 0), gen("b2", "g3", 0, 1),
                        gen("b2", "g4", 0, 1)),
            arrows=((0, 1), (0, 2), (3, 1), (4, 2)),
        )
        table = reduce_complex(complex_)
        assert table.total == 1
        assert table.ranks == {(0, 1): 1}

    def test_d_squared_violation_raises(self):
        # a -> b -> c is not a differential
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 2), gen("b1", "g1", 0, 1), gen("b1", "g2", 0, 0)),
            arrows=((0, 1), (1, 2)),
        )
        with pytest.raises(ComplexError, match=r"^d\^2 != 0 at generator index 0$"):
            reduce_complex(complex_)

    def test_d_squared_violation_in_second_block_raises(self):
        # Alexander block 0 is one clean arrow; a -> b -> c sits in block 1
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 1), gen("b1", "g1", 0, 0),
                        gen("a", "g2", 1, 2), gen("b1", "g3", 1, 1), gen("b2", "g4", 1, 0)),
            arrows=((0, 1), (2, 3), (3, 4)),
        )
        with pytest.raises(ComplexError, match=r"^d\^2 != 0 at generator index 2$"):
            reduce_complex(complex_)

    def test_d_squared_paths_cancel_mod_two(self):
        # da = b + c, db = dc = d: the two 2-paths a -> d cancel over F2
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 2), gen("b1", "g1", 0, 1),
                        gen("b1", "g2", 0, 1), gen("b2", "g3", 0, 0)),
            arrows=((0, 1), (0, 2), (1, 3), (2, 3)),
        )
        assert reduce_complex(complex_).total == 0

    def test_bigradings_default_to_generator_count(self):
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 1), gen("b1", "g1", 0, 0), gen("b2", "g2", 0, 0)),
            arrows=((0, 1),),
        )
        assert complex_.bigradings == {(0, 1): 1, (0, 0): 2}
        assert reduce_complex(complex_).ranks == {(0, 0): 1}

    def test_undercounted_bigrading_raises(self):
        # the arrow cancels both generators, but the counts hold none at (0, 0)
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 0, 1), gen("b1", "g1", 0, 0)),
            arrows=((0, 1),),
            bigradings={(0, 1): 1},
        )
        with pytest.raises(ComplexError, match=r"bigrading \(A=0, M=0\)"):
            reduce_complex(complex_)

    def test_unfiltered_cross_grading_arrow_raises(self):
        complex_ = BigradedComplex(
            generators=(gen("a", "g0", 1, 1), gen("b1", "g1", 0, 0)),
            arrows=((0, 1),),
        )
        with pytest.raises(ComplexError, match=r"a g0 \(A=1, M=1\) -> b1 g1 \(A=0, M=0\)"):
            reduce_complex(complex_)


@pytest.mark.parametrize("seed", range(6))
def test_reduction_order_invariance(seed):
    """Shuffling arrow order never changes the reduced table."""
    base = complex_for(DELTA_11N50, 0, 3, -2)
    reference = reduce_complex(base)
    rng = random.Random(seed)
    arrows = list(base.arrows)
    rng.shuffle(arrows)
    shuffled = BigradedComplex(generators=base.generators, arrows=tuple(arrows))
    assert reduce_complex(shuffled).ranks == reference.ranks


def test_symmetry_of_reduced_output():
    table = reduce_complex(complex_for(DELTA_11N50, 0, 2, -1))
    assert all(table.ranks.get((-a, m - 2 * a)) == r for (a, m), r in table.ranks.items())


@pytest.mark.parametrize("tau, counts, p, n", [
    (0, {1: 2, 0: 2, -1: 2}, 5, 3),                        # golden 11n50
    (10, SPREAD_55, 10, 30),                               # 55 squares over 21 levels
    (-2, {1: 2, 0: 3, -1: 2}, 3, -1),                      # tau < 0, m < 0
    (-3, {3: 2, 2: 4, 1: 3, 0: 5, -1: 3, -2: 4, -3: 2}, 4, -4),  # tau < 0, m < 0, seven runs
], ids=["golden-11n50", "spread-55", "tau-neg-m-neg", "tau-neg-m-neg-7-runs"])
def test_summand_wise_reduction_equals_whole_reduction(tau, counts, p, n):
    model = build_model(synthesize_delta(tau, counts), tau)
    complex_ = pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n)
    assert [count for _, _, count in complex_.levels] == [c for _, c in sorted(counts.items()) if c]
    whole = reduce_complex(replace(complex_, levels=()))
    assert reduce_complex(complex_).ranks == whole.ranks


class TestSummands:
    """A hand-built complex: one arrow at Alexander grading 5 on generators
    0-1, then squares of (a, b1, b2) with the same arrows: one square at
    level 0 (generators 2-4) and two copies at level 1 (5-7 and 8-10)."""

    def complex_with(self, square, low=(1, 0, 0), top=(2, 1, 1), bigradings=None):
        """low and top are the Maslov gradings of a, b1, b2 at levels 0 and 1."""
        rows = [("a", 5, 1), ("b1", 5, 0)]
        for alexander, maslovs in ((0, low), (1, top), (1, top)):
            rows += [(a, alexander, m) for a, m in zip(("a", "b1", "b2"), maslovs)]
        arrows = [(0, 1)] + [(first + src, first + tgt) for first in (2, 5, 8) for src, tgt in square]
        gens = tuple(gen(a, f"g{j}", alexander, m) for j, (a, alexander, m) in enumerate(rows))
        k = len(square)
        return BigradedComplex(generators=gens, arrows=tuple(sorted(arrows)), bigradings=bigradings,
                               levels=((1, 1 + k, 1), (1 + k, 1 + 2 * k, 2)))

    def test_copies_reduce_once_and_scale(self):
        complex_ = self.complex_with(((0, 1),))
        assert reduce_complex(complex_).ranks == {(0, 0): 1, (1, 1): 2} == reduce_complex(
            replace(complex_, levels=())).ranks

    def test_template_misgraded_at_second_level_raises(self):
        # a -> b2 lowers the Maslov grading by one at level 0 and by two at level 1
        complex_ = self.complex_with(((0, 2),), top=(2, 1, 0))
        for reduced in (complex_, replace(complex_, levels=())):
            with pytest.raises(ComplexError,
                               match=r"^mis-graded arrow a g5 \(A=1, M=2\) -> b2 g7 \(A=1, M=0\)$"):
                reduce_complex(reduced)

    def test_template_d_squared_violation_raises(self):
        complex_ = self.complex_with(((0, 1), (1, 2)), low=(2, 1, 0), top=(3, 2, 1))
        with pytest.raises(ComplexError, match=r"^d\^2 != 0 at generator index 2$"):
            reduce_complex(complex_)

    def test_template_kills_over_a_level_count_raise(self):
        # level 1's two squares kill two generators at (1, 1), which counts one
        complex_ = self.complex_with(((0, 1),))
        bigradings = dict(complex_.bigradings) | {(1, 1): 1}
        with pytest.raises(ComplexError, match=r"bigrading \(A=1, M=1\) loses 2 generators"):
            reduce_complex(replace(complex_, bigradings=bigradings))
