import random
from itertools import chain as concat

import pytest

from cablefloer import (
    BigradedComplex,
    ComplexError,
    RankTable,
    TensorGenerator,
    build_model,
    build_typea_minus,
    build_typed,
    compute_cable_hfk,
    pair_modules,
    parse_delta,
    reduce_complex,
    synthesize_delta,
)
from cablefloer.invariants import table_rank
from cablefloer.pairing import FAMILY_RUN, FamilyRow, Progression, Repeat, TensorGenerators

from conftest import DELTA_11N50, DELTA_TREFOIL, ROW_PARAMS, written_out


def gen(a_side, d_side, alexander, maslov):
    return TensorGenerator(a_side=a_side, d_side=d_side, N=maslov - 2 * alexander,
                           Aprime=alexander, alexander=alexander, maslov=maslov)


def complex_of(records, arrows):
    """A complex whose view holds one complement generator per record, each
    listed once with its cell and shift constant 0 (the records have A' = A).
    Record i is slot i, so the arrow (i, t) is the link (i, 0, t, 0)."""
    generators = TensorGenerators(lambda: [g.d_side for g in records], tuple((g.a_side,) for g in records),
                                  tuple(((g.alexander, g.maslov),) for g in records), 0)
    return BigradedComplex(generators=generators, links=tuple((i, 0, t, 0) for i, t in arrows))


def complex_for(delta_text, tau, p, n):
    model = build_model(parse_delta(delta_text), tau)
    return pair_modules(build_typea_minus(p), build_typed(model, n), model.params.l, n)


class TestRankTable:
    def test_totals_and_order(self):
        table = RankTable({(1, 0): 1, (0, -1): 2, (1, 2): 1, (2, 2): 0})
        assert table.total == 4
        assert table.entries() == [(1, 2, 1), (1, 0, 1), (0, -1, 2)]
        assert table.alexander_multiset() == {1: 2, 0: 2}

    @pytest.mark.parametrize("delta_text, tau, p, n", [
        (DELTA_11N50, 0, 5, 3),      # golden 11n50: a chain of 2
        (DELTA_TREFOIL, 1, 3, -20),  # a chain of 21
    ], ids=["golden-11n50", "chain"])
    def test_entries_sort_like_the_keys(self, delta_text, tau, p, n):
        """entries sorts (a, m, rank) triples; keys are unique, so the order
        is the descending key order with each rank looked up."""
        table = compute_cable_hfk(parse_delta(delta_text), tau, p, n).table
        assert table.progressions and table.stored
        ranks = table.ranks
        assert table.entries() == [(a, m, ranks[a, m]) for a, m in sorted(ranks, reverse=True)]

    def test_zero_entries_dropped(self):
        assert RankTable({(0, 0): 0}).ranks == {}
        chain = (Progression(1, 1, 2, 2, 3),)
        table = RankTable({(0, 0): 0, (1, 1): 2}, chain)
        assert table.stored == {(1, 1): 2} and table.progressions == chain
        assert table.ranks == {(1, 1): 3, (3, 3): 1, (5, 5): 1} and table.total == 5
        assert table == RankTable(table.ranks) != RankTable(table.stored)

    def test_square_lines_count_on_their_levels(self):
        """Each survivor of the square part is its cell plus offset times its
        step at each level, count times, in ranks and total alike."""
        square = ([((0, 0), (-2, -3)), ((1, 1), (-2, -1))], ((0, 2), (3, 3)))
        table = RankTable({(0, 0): 1}, (), square)
        assert table.ranks == {(0, 0): 3, (1, 1): 2, (-6, -9): 3, (-5, -2): 3} and table.total == 11
        assert table == RankTable(table.ranks) != RankTable(table.stored)
        assert repr(table).endswith(f"square={square!r})")

    def test_caller_mapping_left_alone(self):
        ranks = {(0, 0): 0, (1, 1): 2}
        table = RankTable(ranks)
        assert table.ranks == {(1, 1): 2} and ranks == {(0, 0): 0, (1, 1): 2}
        assert table.ranks is not ranks

    def test_reduction_copies_the_counts_once_and_keeps_them(self):
        """The table is a zero-free dict of its own; the complex's rows stay as they were."""
        complex_ = complex_of((gen("a", "u1", 0, 0), gen("b1", "v1", 1, 3), gen("b2", "v1", 1, 2),
                               gen("b3", "v1", 1, 1), gen("b4", "v1", 1, 1)), ((2, 3),))
        before = complex_.generators.rows
        table = reduce_complex(complex_)
        assert table.ranks == {(0, 0): 1, (1, 3): 1, (1, 1): 1}
        assert complex_.generators.rows == before == (((0, 0),), ((1, 3),), ((1, 2),), ((1, 1),), ((1, 1),))
        assert type(table.ranks) is dict and 0 not in table.ranks.values()

    def test_long_chain_is_not_merged_until_read(self):
        """At the budget edge the chain has 998,000 generators; the run reads
        its parts only, and ranks is merged on the first read."""
        result = compute_cable_hfk(parse_delta("1"), 0, 2, 499000)
        table = result.table
        assert result.consistent and len(table.progressions) == 2
        assert table.total == table_rank(0, 0, 2, 499000) == 998001
        assert table._ranks is None
        ranks = table.ranks
        assert type(ranks) is dict and sum(ranks.values()) == table.total
        assert table._ranks is ranks and table.ranks is ranks


class TestArrowGrading:
    """reduce_complex refuses any arrow that does not keep the Alexander
    grading and lower the Maslov grading by one."""

    def test_empty_complex_unchanged(self):
        assert reduce_complex(complex_of((), ())).ranks == {}

    def test_strict_raises(self):
        # same Alexander grading, Maslov not lowered by one
        bad = complex_of((gen("a", "u1", 0, 0), gen("b1", "v1", 0, 0)), ((0, 1),))
        with pytest.raises(ComplexError, match=r"a u1 \(A=0, M=0\) -> b1 v1 \(A=0, M=0\)"):
            reduce_complex(bad)

    def test_left_trefoil_p2_has_no_misfits(self):
        # the long-staircase arrow that would break the bigrading does not
        # arise at p = 2 (no matching operation), so the check passes
        complex_ = complex_for(DELTA_TREFOIL, -1, 2, -2)
        assert len(complex_.links) == 1
        assert reduce_complex(complex_).total == len(complex_.generators) - 2

    def test_11n50_strict_clean(self):
        complex_ = complex_for(DELTA_11N50, 0, 5, 3)
        gens = complex_.generators
        assert complex_.links
        for j, k, j_target, k_target in complex_.links:
            source, target = gens.at(j, 0, k), gens.at(j_target, 0, k_target)
            assert (source.alexander, source.maslov - 1) == (target.alexander, target.maslov)
        reduce_complex(complex_)


class TestReduce:
    def test_no_arrows(self):
        complex_ = complex_of((gen("a", "u1", 0, 0), gen("b1", "v1", 1, 1), gen("b2", "v1", 1, 3)), ())
        assert reduce_complex(complex_).total == 3

    def test_right_trefoil_cable(self):
        complex_ = complex_for(DELTA_TREFOIL, 1, 2, 1)
        assert len(complex_.generators) == 9
        assert len(complex_.links) == 2
        table = reduce_complex(complex_)
        assert table.total == 5
        assert sorted(table.alexander_multiset()) == [-3, -2, 0, 2, 3]

    def test_11n50_total(self):
        assert reduce_complex(complex_for(DELTA_11N50, 0, 5, 3)).total == 181

    @pytest.mark.parametrize("generators, arrows, shared", [
        # da = b, dc = b + d
        pytest.param(((0, 1), (0, 0), (0, 1), (0, 0)), ((0, 1), (2, 1), (2, 3)), 1,
                     id="acyclic_chain"),
        # da = b + d, dc = b, de = d
        pytest.param(((0, 1), (0, 0), (0, 0), (0, 1), (0, 1)), ((0, 1), (0, 2), (3, 1), (4, 2)), 0,
                     id="zigzag_composition"),
        # a -> b -> c
        pytest.param(((0, 2), (0, 1), (0, 0)), ((0, 1), (1, 2)), 1, id="d_squared_violation"),
        # Alexander grading 0 is one clean arrow; a -> b -> c sits at grading 1
        pytest.param(((0, 1), (0, 0), (1, 2), (1, 1), (1, 0)), ((0, 1), (2, 3), (3, 4)), 3,
                     id="d_squared_violation_in_second_block"),
        # da = b + c, db = dc = d: the two 2-paths a -> d cancel over F2
        pytest.param(((0, 2), (0, 1), (0, 1), (0, 0)), ((0, 1), (0, 2), (1, 3), (2, 3)), 0,
                     id="d_squared_paths_cancel_mod_two"),
    ])
    def test_shared_generator_raises(self, generators, arrows, shared):
        # a differential that is not a matching is refused, d^2 = 0 or not
        complex_ = complex_of([gen("a", f"g{k}", a, m) for k, (a, m) in enumerate(generators)], arrows)
        with pytest.raises(ComplexError, match=rf"^generator a g{shared} \(index {shared}\) lies on two arrows$"):
            reduce_complex(complex_)

    def test_unfiltered_cross_grading_arrow_raises(self):
        complex_ = complex_of((gen("a", "g0", 1, 1), gen("b1", "g1", 0, 0)), ((0, 1),))
        with pytest.raises(ComplexError, match=r"a g0 \(A=1, M=1\) -> b1 g1 \(A=0, M=0\)"):
            reduce_complex(complex_)


@pytest.mark.parametrize("seed", range(6))
def test_reduction_order_invariance(seed):
    """Shuffling link order never changes the reduced table."""
    base = complex_for(DELTA_11N50, 0, 3, -2)
    reference = reduce_complex(base)
    rng = random.Random(seed)
    links = list(base.links)
    rng.shuffle(links)
    shuffled = base._replace(links=tuple(links))
    assert reduce_complex(shuffled).ranks == reference.ranks


def test_symmetry_of_reduced_output():
    table = reduce_complex(complex_for(DELTA_11N50, 0, 2, -1))
    assert all(table.ranks.get((-a, m - 2 * a)) == r for (a, m), r in table.ranks.items())


@pytest.mark.parametrize("tau, counts, p, n", ROW_PARAMS + [
    pytest.param(-3, {3: 2, 2: 4, 1: 3, 0: 5, -1: 3, -2: 4, -3: 2}, 4, -4,  # seven runs
                 id="tau-neg-m-neg-7-runs"),
])
def test_summand_wise_reduction_equals_whole_reduction(tau, counts, p, n):
    """Cancelling the stored square once and placing its survivors at every
    level, c_t times each, with the chain counted as a progression, equals
    cancelling every level's copies and chain generator written out."""
    model = build_model(synthesize_delta(tau, counts), tau)
    A, D = build_typea_minus(p), build_typed(model, n)
    whole = reduce_complex(pair_modules(A, written_out(D), model.params.l, n))
    assert reduce_complex(pair_modules(A, D, model.params.l, n)).ranks == whole.ranks


@pytest.mark.parametrize("tau, counts, p, n", [
    pytest.param(0, {1: 2, 0: 2, -1: 2}, 5, 3, id="golden-11n50"),
    pytest.param(-2, {2: 1, 1: 2, 0: 3, -1: 2, -2: 1}, 4, 1, id="chain-m-5"),
    pytest.param(3, {1: 1, -1: 1}, 6, 4, id="two-levels"),
    pytest.param(1, {3: 1, 0: 2, -3: 1}, 3, 2, id="gapped-levels-n-2tau"),
])
def test_square_part_scales_with_the_counts(tau, counts, p, n):
    """Every c_t times k, so that every level is listed more than once: the
    stored survivors, the progressions and the square's survivors are
    those at k = 2, only the square part's counts scale, and the total is
    the total-rank table's."""
    tables = []
    for k in (2, 3, 7):
        delta = synthesize_delta(tau, {t: k * c for t, c in counts.items()})
        result = compute_cable_hfk(delta, tau, p, n)
        table = result.table
        assert result.consistent and table.total == table_rank(tau, result.model.params.s, p, n)
        assert table.square[1] == tuple((t - min(counts), k * c) for t, c in sorted(counts.items()))
        tables.append(table)
    first = tables[0]
    for table in tables[1:]:
        assert table.stored == first.stored
        assert table.progressions == first.progressions and table.square[0] == first.square[0]


@pytest.mark.parametrize("delta_text, tau, counts, p, n", [
    pytest.param(DELTA_11N50, 0, None, 5, 3, id="golden-11n50"),
    pytest.param(None, -2, {1: 2, 0: 3, -1: 2}, 3, -1, id="squares-c3"),    # c_t of 2 and 3
    pytest.param(None, 3, {0: 1}, 7, -100, id="chain-m106"),
    pytest.param(None, 2, {1: 2, 0: 1, -1: 2}, FAMILY_RUN + 1, 4, id="wide"),  # i1 rows are FamilyRows
])
def test_run_reads_no_flat_index(monkeypatch, delta_text, tau, counts, p, n):
    """A cable's run reads its links and rows only: with the flat arrows and
    every generator record refused, it gives the same rank table and check
    verdicts."""
    delta = parse_delta(delta_text) if delta_text else synthesize_delta(tau, counts)
    want = compute_cable_hfk(delta, tau, p, n)
    assert want.table.total < len(want.complex.generators)  # arrows cancel

    def refused(*_):
        raise AssertionError("the run read the flat generator view")

    monkeypatch.setattr(BigradedComplex, "arrows", property(refused))
    for name in ("__getitem__", "at"):
        monkeypatch.setattr(TensorGenerators, name, refused)
    got = compute_cable_hfk(delta, tau, p, n)
    assert got.table.ranks == want.table.ranks and got.checks == want.checks


def row(alexander, maslovs):
    return tuple((alexander, m) for m in maslovs)


class TestSummands:
    """A hand-built view: one arrow at Alexander grading 5 on generators
    0-1 (slots 0 and 1), then a square of (a, b1, b2), one slot (2)
    repeated at two levels: listed once at level 0 (generators 2-4) and
    twice at level 1 (5-7 and 8-10), its arrows on the first copy only."""

    def complex_with(self, square, low=(1, 0, 0), top=(2, 1, 1)):
        """square holds the (source, target) positions of each arrow on the
        square; low and top are the Maslov gradings of a, b1, b2 at levels 0
        and 1."""
        steps = tuple((1, t - b) for b, t in zip(low, top))
        gens = TensorGenerators(lambda: ("g0", "g1", "s0"), (("a",), ("b1",), ("a", "b1", "b2")),
                                (row(5, (1,)), row(5, (0,)), row(0, low)), 0,
                                square=Repeat((2,), (steps,), (0, 1), (0, 1, 3)))
        links = ((0, 0, 1, 0),) + tuple((2, k, 2, k_target) for k, k_target in square)
        return BigradedComplex(generators=gens, links=links)

    def written_out(self, complex_):
        """The same complex with each copy its own complement generator, every
        count 1, and every copy's arrows: generator i is record i."""
        starts = complex_.generators.starts
        arrows = tuple((starts[j] + k, starts[j_target] + k_target) for j, k, j_target, k_target in complex_.links)
        copies = tuple((src + shift, tgt + shift) for src, tgt in arrows if src >= 2 for shift in (3, 6))
        return complex_of(list(complex_.generators), arrows + copies)

    def test_copies_reduce_once_and_scale(self):
        complex_ = self.complex_with(((0, 1),))
        gens = complex_.generators
        assert [g.d_side for g in gens] == ["g0", "g1"] + ["s0"] * 3 + ["s1"] * 6
        assert [(g.alexander, g.maslov) for g in gens] == \
            [(5, 1), (5, 0)] + list(row(0, (1, 0, 0))) + list(row(1, (2, 1, 1))) * 2
        table = reduce_complex(complex_)
        assert table.ranks == {(0, 0): 1, (1, 1): 2} == reduce_complex(self.written_out(complex_)).ranks
        # level 0, listed once, is counted; level 1, listed twice, is the square part's one level
        assert table.stored == {(0, 0): 1} and table.square == ([((0, 0), (1, 1))], ((1, 2),))

    def test_template_misgraded_at_second_level_raises(self):
        # a -> b2 lowers the Maslov grading by one at level 0 and by two at level 1
        complex_ = self.complex_with(((0, 2),), top=(2, 1, 0))
        for reduced in (complex_, self.written_out(complex_)):
            with pytest.raises(ComplexError,
                               match=r"^mis-graded arrow a s1 \(A=1, M=2\) -> b2 s1 \(A=1, M=0\)$"):
                reduce_complex(reduced)

    def test_template_d_squared_violation_raises(self):
        # a -> b1 -> b2 is refused as a generator on two arrows, stronger than d^2 != 0
        complex_ = self.complex_with(((0, 1), (1, 2)), low=(2, 1, 0), top=(3, 2, 1))
        with pytest.raises(ComplexError, match=r"^generator b1 s0 \(index 3\) lies on two arrows$"):
            reduce_complex(complex_)

    def test_template_kills_over_a_level_count_raise(self):
        # an arrow from g1 into the square would kill its end at level 0 only
        complex_ = self.complex_with(((0, 1),))
        with pytest.raises(ComplexError, match=r"^arrow b1 g1 -> a s0 does not join stored generators of one summand$"):
            reduce_complex(complex_._replace(links=((1, 0, 2, 0),)))


def family_row(*parts):
    return FamilyRow(tuple(Progression(*part) for part in parts))


# the chain slot's row and step row, b1 .. b6: two grading families of three
# positions each, the second with a Maslov bend, or the same cells as tuples
FAMILIES = (family_row((5, 0, 1, 2, 3), (6, 1, 1, 2, 3, 1)), family_row((1, -1, 0, 1, 3), (1, 1, 0, 2, 3, 1)))
CHAIN_ROWS = {"families": FAMILIES, "cells": tuple(map(tuple, FAMILIES))}


class TestChainAndSquare:
    """A hand-built view with both Repeats: the arrow g0 -> g1 at
    Alexander grading 5, then the chain slot mu1 of (b1 .. b6) repeated
    twice (generators 2-13, named mu1 and mu2), then the square of
    (a, b1, b2) of TestSummands, listed once at level 0 (14-16) and twice
    at level 1 (17-22), with one arrow on its first copy.  The slots are
    g0, g1, mu1 and s0."""

    def complex_with(self, chain_rows, links=((0, 0, 1, 0), (3, 1, 3, 2))):
        chain_row, chain_steps = chain_rows
        square_steps = ((1, 1), (1, 1), (1, 1))
        b = tuple(f"b{k}" for k in range(1, 7))
        gens = TensorGenerators(lambda: ("g0", "g1", "mu1", "s0"), (("a",), ("b1",), b, ("a", "b1", "b2")),
                                (row(5, (1,)), row(5, (0,)), chain_row, row(0, (1, 1, 0))), 0,
                                chain=Repeat((2,), (chain_steps,), range(2), range(3)),
                                square=Repeat((3,), (square_steps,), (0, 1), (0, 1, 3)))
        return BigradedComplex(generators=gens, links=links)

    @pytest.mark.parametrize("kind", CHAIN_ROWS)
    def test_reduces_as_written_out(self, kind):
        """The chain survives whole as progressions, and the square's
        survivors are placed at both levels: the table equals that of the
        complex with every copy its own generator and every copy of the
        square's arrow.  A chain of families longer than the chain is one
        piece per family and chain generator, a chain of cells one per
        b_k."""
        complex_ = self.complex_with(CHAIN_ROWS[kind])
        gens = complex_.generators
        assert len(gens) == 23
        assert [g.d_side for g in gens][2:14] == ["mu1"] * 6 + ["mu2"] * 6
        written = complex_of(list(gens), ((0, 1), (15, 16), (18, 19), (21, 22)))
        table, want = reduce_complex(complex_), reduce_complex(written)
        assert table == want and table.total == want.total == 23 - 2 * 4
        chain_cells = [(g.alexander, g.maslov) for g in map(gens.__getitem__, range(2, 14))]
        assert sorted(concat.from_iterable(map(Progression.cells, table.progressions))) == sorted(chain_cells)
        assert [progression.length for progression in table.progressions] == ([2] * 6 if kind == "cells" else [3] * 4)
        assert table == reduce_complex(self.complex_with(CHAIN_ROWS["cells"]))

    @pytest.mark.parametrize("kind", CHAIN_ROWS)
    def test_arrow_on_the_chain_raises(self, kind):
        """No arrow touches the chain: an end on its first copy raises,
        also when it is graded and its other end is a stored generator."""
        for link, name in (((0, 0, 2, 0), "a g0 -> b1 mu1"), ((2, 1, 2, 0), "b2 mu1 -> b1 mu1"),
                           ((2, 2, 1, 0), "b3 mu1 -> b1 g1")):
            complex_ = self.complex_with(CHAIN_ROWS[kind], links=(link,))
            with pytest.raises(ComplexError, match=rf"^arrow {name} does not join stored generators of one summand$"):
                reduce_complex(complex_)
