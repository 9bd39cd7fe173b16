import importlib.util
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cablefloer import (
    LaurentPolynomial,
    Progression,
    RankTable,
    compute_cable_hfk,
    euler_holds,
    mirror_check,
    parse_delta,
    symmetry_holds,
    synthesize_delta,
    table_rank,
    tau_cable,
    tau_pq,
)
from cablefloer.invariants import _euler_times_binomials, _lines_invariant
from cablefloer.pairing import FAMILY_RUN

from conftest import (
    DELTA_11N50,
    DELTA_FIG8,
    DELTA_TREFOIL,
    GOLDEN_11N50_5_16,
    check_symmetry,
    euler_characteristic,
    euler_matches_cable,
    oracle_cable_delta,
    oracle_torus_delta,
    times_binomial,
)


class TestTauCable:
    def test_examples(self):
        assert tau_cable(0, 2, 1) == 1
        assert tau_cable(0, 5, 3) == 30
        assert tau_cable(-1, 2, -2) == -3

    def test_branches(self):
        # p*tau + n*p*(p-1)/2 when tau = 0 with n >= 0 or tau > 0, plus p - 1 otherwise
        assert tau_cable(0, 2, 1) == 0 + 1
        assert tau_cable(1, 2, -3) == 2 - 3
        assert tau_cable(-1, 2, -2) == -2 - 2 + 1
        assert tau_cable(0, 3, -1) == 0 - 3 + 2

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            tau_cable(0, 1, 1)


class TestTauPQ:
    def test_examples(self):
        assert tau_pq(0, 2, 3) == 1
        assert tau_pq(1, 3, 2) == 4
        assert tau_pq(-1, 2, -3) == -3

    def test_agrees_with_framed_form(self):
        for tau in (-2, -1, 0, 1, 2):
            for p in (2, 3, 4, 5):
                for n in range(-4, 5):
                    assert tau_pq(tau, p, p * n + 1) == tau_cable(tau, p, n)

    def test_unknot_positive_torus_knots(self):
        for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 16)):
            assert tau_pq(0, p, q) == (p - 1) * (q - 1) // 2

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            tau_pq(0, 4, 2)

    def test_refuses_unknown_window(self):
        # tau = 0 with 1 - p < q < 1 is outside both branches
        with pytest.raises(ValueError):
            tau_pq(0, 3, -1)
        assert tau_pq(0, 3, -2) == -1  # q = 1 - p is covered
        assert tau_pq(1, 3, -1) == 3 * 1 + (3 - 1) * (-1 - 1) // 2  # nonzero tau is covered


class TestTableRank:
    def test_golden_cell(self):
        assert table_rank(0, 6, 5, 3) == 181

    def test_negative_torus_cell(self):
        assert table_rank(0, 0, 2, -2) == 3

    def test_trefoil_cable_cell(self):
        assert table_rank(1, 0, 2, 1) == 5      # tau > 0, n < 2 tau

    def test_corrected_cells(self):
        assert table_rank(-1, 0, 2, -2) == 5    # tau < 0, n = 2 tau, p = 2
        assert table_rank(-1, 0, 3, -2) == 7    # the same cell at p = 3 gains nothing
        assert table_rank(2, 0, 3, 1) == 25     # tau > 0, n < 2 tau

    def test_matches_pipeline_in_every_cell(self):
        for tau in (-2, -1, 0, 1, 2):
            for counts in ({}, {0: 1}):
                delta = synthesize_delta(tau, counts)
                for p in (2, 3, 4, 5):
                    for n in range(-4, 5):
                        result = compute_cable_hfk(delta, tau, p, n)
                        expected = table_rank(tau, result.model.params.s, p, n)
                        assert result.table.total == expected, (tau, counts, p, n)


class TestChecks:
    def test_symmetry_golden(self):
        assert check_symmetry(RankTable(GOLDEN_11N50_5_16))
        assert RankTable(GOLDEN_11N50_5_16).ranks[(40, 2)] == RankTable(GOLDEN_11N50_5_16).ranks[(-40, -78)]

    def test_symmetry_trivial(self):
        assert check_symmetry(RankTable({}))
        assert not check_symmetry(RankTable({(1, 0): 1}))

    def test_euler_torus_23(self):
        table = RankTable({(1, 0): 1, (0, -1): 1, (-1, -2): 1})
        assert euler_characteristic(table) == LaurentPolynomial({1: 1, 0: -1, -1: 1})

    def test_euler_empty(self):
        assert euler_characteristic(RankTable({})) == LaurentPolynomial()

    def test_euler_golden_is_cable_polynomial(self):
        golden = euler_characteristic(RankTable(GOLDEN_11N50_5_16))
        assert golden == LaurentPolynomial(oracle_cable_delta(parse_delta(DELTA_11N50), 5, 16))


class TestEulerMatchesCable:
    def test_golden(self):
        golden = euler_characteristic(RankTable(GOLDEN_11N50_5_16))
        assert euler_matches_cable(golden, parse_delta(DELTA_11N50), 5, 16)
        assert not euler_matches_cable(-golden, parse_delta(DELTA_11N50), 5, 16)

    @given(center=st.integers(-5, 5).filter(bool), sides=st.lists(st.integers(-5, 5), max_size=4),
           p=st.integers(2, 12), n=st.integers(-6, 6), k=st.integers(-500, 500),
           sign=st.sampled_from((1, -1)), flip=st.integers(0, 10**6))
    @example(center=1, sides=[], p=2, n=-1, k=0, sign=1, flip=0)    # q = -1
    @example(center=3, sides=[-1], p=7, n=0, k=1, sign=-1, flip=2)  # q = 1
    def test_against_oracle(self, center, sides, p, n, k, sign, flip):
        """The exact satellite polynomial passes; one term more or less, or
        one coefficient's sign flipped, fails."""
        delta = LaurentPolynomial({0: center, **{d: c for i, c in enumerate(sides, 1) for d in (i, -i)}})
        q = p * n + 1
        exact = oracle_cable_delta(delta, p, q)
        assert euler_matches_cable(LaurentPolynomial(exact), delta, p, q)
        assert not euler_matches_cable(LaurentPolynomial({**exact, k: exact.get(k, 0) + sign}), delta, p, q)
        degree, coeff = sorted(exact.items())[flip % len(exact)]
        assert not euler_matches_cable(LaurentPolynomial({**exact, degree: -coeff}), delta, p, q)


class TestCableAlexander:
    """Known values of the tests' satellite polynomial, oracle_cable_delta,
    and its torus-knot factor."""

    def test_torus_23(self):
        assert LaurentPolynomial(oracle_torus_delta(2, 3)) == LaurentPolynomial({1: 1, 0: -1, -1: 1})

    def test_torus_34(self):
        assert LaurentPolynomial(oracle_torus_delta(3, 4)) == LaurentPolynomial({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})

    def test_mirror_shares_polynomial(self):
        assert oracle_torus_delta(2, -3) == oracle_torus_delta(2, 3)

    def test_cable_pattern_only(self):
        unknot = LaurentPolynomial({0: 1})
        assert oracle_cable_delta(unknot, 2, 3) == oracle_torus_delta(2, 3)

    def test_trefoil_cable(self):
        got = LaurentPolynomial(oracle_cable_delta(parse_delta(DELTA_TREFOIL), 2, 3))
        assert got == LaurentPolynomial({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})

    def test_p1_cable_inflates(self):
        delta = parse_delta(DELTA_TREFOIL)
        assert oracle_cable_delta(delta, 3, 1) == {3 * d: c for d, c in delta.items()}


def p2_pair(delta_text, tau, n):
    """Tables of the p = 2 cable at (tau, n) and of its mirror at (-tau, -n-1)."""
    delta = parse_delta(delta_text)
    return (compute_cable_hfk(delta, tau, 2, n).table,
            compute_cable_hfk(delta, -tau, 2, -n - 1).table)


class TestMirror:
    def test_trefoil(self):
        assert mirror_check(*p2_pair(DELTA_TREFOIL, 1, 1))

    def test_unknot(self):
        assert mirror_check(*p2_pair("1", 0, 1))

    def test_figure_eight(self):
        assert mirror_check(*p2_pair(DELTA_FIG8, 0, 0))

    def test_detects_mismatch(self):
        this, that = p2_pair(DELTA_TREFOIL, 1, 1)
        assert not mirror_check(this, RankTable({(0, 0): that.total + 1}))
        assert not mirror_check(this, RankTable({(a + 1, m): r for (a, m), r in that.ranks.items()}))


# ---------------------------------------------------------------------------
# checks decided per chain progression against the cell-by-cell oracles
# ---------------------------------------------------------------------------

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "cablebench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("cablebench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHAIN_CASES = [pytest.param(case, id=f"seed{seed}-{i}")
               for seed in (1, 2) for i, case in enumerate(load_workloads().generate("chain", seed))]


def sigma(cell):
    a, m = cell
    return -a, m - 2 * a


def verdicts(table, delta, p, q):
    """(symmetry, euler) decided from the table's parts."""
    return symmetry_holds(table), euler_holds(table, delta, p, q)


def oracle_verdicts(table, delta, p, q):
    """(symmetry, euler) decided cell by cell on the merged ranks alone."""
    merged = RankTable(table.ranks)
    return check_symmetry(merged), euler_matches_cable(euler_characteristic(merged), delta, p, q)


def replaced(chain, i, progression):
    return chain[:i] + (progression,) + chain[i + 1:]


def taken(chain, stored, cell):
    """The progressions once one rank of cell is taken off the table's
    parts: off stored (in place) if it is there, else off the first
    progression through cell, which is cut into the cells before it, the
    cell at one rank less and the cells after it."""
    if stored.get(cell):
        stored[cell] -= 1
        return chain
    j, r = next((j, r) for j, progression in enumerate(chain)
                for r, at in enumerate(progression.cells()) if at == cell)
    progression, length = chain[j], chain[j].length
    pieces = (progression.part(0, r), progression.part(r, r + 1)._replace(rank=progression.rank - 1),
              progression.part(r + 1, length))
    return chain[:j] + tuple(piece for piece in pieces if piece.length and piece.rank) + chain[j + 1:]


def chain_mutant(table, kind, i=0):
    """The table with one defect in its parts.

    one-short: progression i loses its last cell.  wrong-step: progression
    i's Maslov step is 2 more, which keeps every Alexander grading and
    Maslov parity, so only symmetry can see it.  moved-pair: one rank of a
    cell (a, m) moves to (a, m + 2), and one rank of its partner
    sigma(a, m) to sigma(a, m + 2); at a = 0 the cell is its own partner
    and moves once.  The cell is the first stored one whose partner is
    stored too, else the first cell of a family piece whose partner is in
    the table; a progression that gives up a rank is cut around that cell.
    With neither there is no moved-pair mutant, and the result is None.
    end-dropped: an end cell of a progression whose partner no chain cell
    covers, so that it is left over after the chain cancels, is dropped.
    """
    chain, stored = table.progressions, dict(table.stored)
    i %= len(chain)
    if kind == "one-short":
        chain = replaced(chain, i, chain[i]._replace(length=chain[i].length - 1))
    elif kind == "wrong-step":
        chain = replaced(chain, i, chain[i]._replace(maslov_step=chain[i].maslov_step + 2))
    elif kind == "moved-pair":
        ranks = table.ranks
        a, m = next((cell for cell in sorted(stored) if sigma(cell) in stored), None) or next(
            (cell for progression in chain if progression.maslov_bend for cell in progression.cells()
             if sigma(cell) in ranks), (None, None))
        if a is None:
            return None
        for old, new in {(a, m): (a, m + 2), sigma((a, m)): sigma((a, m + 2))}.items():
            chain = taken(chain, stored, old)
            stored[new] = stored.get(new, 0) + 1
        stored = {cell: r for cell, r in stored.items() if r}
    else:
        covered = {cell for progression in chain for cell in progression.cells()}
        order = chain[i:] + chain[:i]
        j, end = next(((j, end) for j, progression in enumerate(order)
                       for end, cell in ((0, progression[:2]), (-1, list(progression.cells())[-1]))
                       if sigma(cell) not in covered), (0, 0))
        j = (j + i) % len(chain)
        length = chain[j].length
        chain = replaced(chain, j, chain[j].part(1, length) if end == 0 else chain[j].part(0, length - 1))
    return RankTable(stored, chain, table.square)


MUTANTS = ("one-short", "wrong-step", "moved-pair", "end-dropped")


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_progression_checks_agree_on_chain_workload(case):
    """On every chain workload case at seeds 1 and 2, and on four mutants of
    each, symmetry and Euler decided per progression give the cell-by-cell
    verdicts.  The one-short, wrong-step and end-dropped mutants fail at
    least one check.  The moved-pair mutant passes both, cell by cell as
    well: it is the gap that a per-cell rank oracle is needed for.  On
    the case of record (p = 60), whose stored survivors have no partner
    stored, it moves a cell of a family piece and its partner."""
    delta = LaurentPolynomial.from_centered_list(list(case.delta))
    p, q = case.p, case.p * case.n + 1
    table = compute_cable_hfk(delta, case.tau, p, case.n).table
    assert sum(not progression.maslov_bend for progression in table.progressions) == 2 * p - 2  # the chain's
    assert type(table.ranks) is dict
    assert verdicts(table, delta, p, q) == oracle_verdicts(table, delta, p, q) == (True, True)
    for kind in MUTANTS:
        mutant = chain_mutant(table, kind)
        # a moved pair cuts a family piece only where the families are progressions
        assert (mutant.progressions != table.progressions) == (kind != "moved-pair" or p > FAMILY_RUN), kind
        want = oracle_verdicts(mutant, delta, p, q)
        assert verdicts(mutant, delta, p, q) == want, kind
        assert want == (True, True) if kind == "moved-pair" else not all(want), kind


@settings(max_examples=60, deadline=None)
@given(tau=st.integers(-4, 4), counts=st.sampled_from(({}, {0: 1}, {1: 1, -1: 1}, {2: 2, 0: 1, -2: 2})),
       p=st.integers(2, 8), size=st.integers(3, 96), sign=st.sampled_from((1, -1)),
       kind=st.sampled_from((None,) + MUTANTS), i=st.integers(0, 100))
@example(tau=0, counts={}, p=3, size=3, sign=1, kind=None, i=0)
@example(tau=-2, counts={0: 1}, p=4, size=3, sign=-1, kind="one-short", i=1)
def test_progression_checks_agree_on_long_chains(tau, counts, p, size, sign, kind, i):
    """Any cable with a chain kept as progressions, from the two-generator
    chain entry of |m| = 3 on, whole or with one mutant defect: the
    verdicts decided per progression equal the cell-by-cell ones."""
    delta, n = synthesize_delta(tau, counts), 2 * tau - sign * size
    table = compute_cable_hfk(delta, tau, p, n).table
    assert table.progressions
    if kind is not None:
        table = chain_mutant(table, kind, i)
        assume(table is not None)
    assert verdicts(table, delta, p, p * n + 1) == oracle_verdicts(table, delta, p, p * n + 1)


# (a, m, alexander step, maslov step, length, maslov bend, rank); a step drawn
# as a sign and a name is that sign times p, |q| or |q - 1| of the test's cable
progressions = st.tuples(st.integers(-30, 30), st.integers(-60, 60),
                         st.one_of(st.integers(-4, 4), st.tuples(st.sampled_from((1, -1)),
                                                                 st.sampled_from(("p", "q", "q - 1")))),
                         st.integers(-6, 6), st.integers(1, 12), st.sampled_from((0, 0, 1, -1, 2, -2, 3, -4)),
                         st.sampled_from((1, 1, 2, 3)))


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(progressions, min_size=0, max_size=6),
       stored=st.dictionaries(st.tuples(st.integers(-30, 30), st.integers(-60, 60)), st.integers(1, 3),
                              max_size=6),
       mirrored=st.booleans(), drop=st.integers(0, 20), p=st.integers(2, 5), n=st.integers(-3, 3))
@example(drawn=[(3, 1, (1, "q - 1"), 2, 5, 2, 1)], stored={}, mirrored=True, drop=20, p=3, n=0)  # da = 0, bend 2
def test_progression_checks_on_any_progressions(drawn, stored, mirrored, drop, p, n):
    """Progressions of any step, bend and rank, zero and odd steps and
    bends included, and with steps +-p, +-|q| and +-|q - 1| (0 at n = 0),
    on crossing and shared lattice lines and curves.  When mirrored, each
    progression and stored cell comes with its sigma-image, so the table
    is symmetric unless drop takes one progression's last cell.  Symmetry agrees with
    check_symmetry, and euler times the binomials of every step built from
    the parts equals the cell-by-cell euler_characteristic times them."""
    q = p * n + 1
    named = {"p": p, "q": abs(q), "q - 1": abs(q - 1)}
    chain = tuple(Progression(a, m, da if isinstance(da, int) else da[0] * named[da[1]], dm, length, bend, rank)
                  for a, m, da, dm, length, bend, rank in drawn)
    if mirrored:
        chain += tuple(Progression(-a, m - 2 * a, -da, dm - 2 * da, length, bend, rank)
                       for a, m, da, dm, length, bend, rank in chain)
        for cell, r in list(stored.items()):
            stored[sigma(cell)] = stored.get(sigma(cell), 0) + r
        if drop < len(chain) and chain[drop].length > 1:
            chain = replaced(chain, drop, chain[drop]._replace(length=chain[drop].length - 1))
    table = RankTable(stored, chain)
    merged = RankTable(table.ranks)
    assert sum(table.ranks.values()) == table.total == sum(stored.values()) + sum(pr.length * pr.rank
                                                                                  for pr in chain)
    assert symmetry_holds(table) == check_symmetry(merged)
    left, extra = _euler_times_binomials(table, p, q)
    want = euler_characteristic(merged)
    for step in [p, abs(q)] + extra:
        want = times_binomial(want, step)
    assert LaurentPolynomial(left) == want


def test_golden_closed_forms_cover_every_square_level():
    """Golden 11n50 stores one square for its levels -1, 0 and 1; the closed
    forms still give their 109 keys, every corner they cover (all but x2,
    whose a*x2 dies in homology) at all three levels, under the names the
    pairing's view gives them."""
    from cablefloer import build_model, closed_form_gradings, synthesize_delta

    model = build_model(synthesize_delta(0, {1: 2, 0: 2, -1: 2}), 0)
    keys = closed_form_gradings(model, 5, 3)
    assert len(keys) == 109
    assert {d for _, d in keys if "." in d} == {f"{corner}.s{serial}" for serial in range(3)
                                                for corner in ("x1", "x3", "x4", "y1", "y2", "y3", "y4")}


# ---------------------------------------------------------------------------
# checks decided on the square's lines against the cell-by-cell oracles
# ---------------------------------------------------------------------------

SQUARES_CASES = [pytest.param(case, id=f"seed{seed}-{i}")
                 for seed in (1, 2) for i, case in enumerate(load_workloads().generate("squares", seed))]
LINE_MUTANTS = ("count-raised", "mirrored-counts-raised", "moved-by-two", "step-changed", "survivor-dropped")


def line_mutant(table, kind):
    """The table with one defect in its square part.

    count-raised: the first level's count is one more.
    mirrored-counts-raised: the first and the last level's counts are one
    more (one level, once).  moved-by-two: the first survivor's Maslov
    grading is two more, which keeps its parity.  step-changed: the first
    survivor's Maslov step is two more.  survivor-dropped: the first
    survivor is gone."""
    survivors, levels = table.square
    survivors, levels = list(survivors), list(levels)
    (a, m), (da, dm) = survivors[0]
    if kind == "count-raised":
        levels[0] = (levels[0][0], levels[0][1] + 1)
    elif kind == "mirrored-counts-raised":
        for i in {0, len(levels) - 1}:
            levels[i] = (levels[i][0], levels[i][1] + 1)
    elif kind == "moved-by-two":
        survivors[0] = ((a, m + 2), (da, dm))
    elif kind == "step-changed":
        survivors[0] = ((a, m), (da, dm + 2))
    else:
        del survivors[0]
    return RankTable(table.stored, table.progressions, (survivors, tuple(levels)))


@pytest.mark.parametrize("case", SQUARES_CASES)
def test_line_checks_agree_on_squares_workload(case):
    """On every squares workload case at seeds 1 and 2, the table keeps the
    square's survivors once, as lines over the levels listed more than
    once, the lines are found sigma-invariant by their keys unless the
    pattern is wider than FAMILY_RUN, and symmetry and Euler decided on
    the lines give the cell-by-cell verdicts, on the table and on five
    mutants of its lines, each of which fails a check cell by cell."""
    delta = LaurentPolynomial.from_centered_list(list(case.delta))
    p, q = case.p, case.p * case.n + 1
    result = compute_cable_hfk(delta, case.tau, p, case.n)
    table = result.table
    survivors, levels = table.square
    assert survivors and [count for _, count in levels] == [
        count for _, count in sorted(result.model.square_counts.items()) if count > 1]
    # the fast case decides every table but those of p > FAMILY_RUN, whose a*x survivors pair with family pieces
    assert _lines_invariant(survivors, levels) == (p <= FAMILY_RUN)
    assert verdicts(table, delta, p, q) == oracle_verdicts(table, delta, p, q) == (True, True)
    for kind in LINE_MUTANTS:
        mutant = line_mutant(table, kind)
        want = oracle_verdicts(mutant, delta, p, q)
        assert verdicts(mutant, delta, p, q) == want, kind
        assert not all(want), kind


@st.composite
def level_vectors(draw):
    """(offset, count) pairs at ascending offsets from any first one: read
    the same reversed when palindromic, else drawn freely."""
    palindromic = draw(st.booleans(), label="palindromic")
    gaps = draw(st.lists(st.integers(1, 3), max_size=3), label="gaps")
    counts = draw(st.lists(st.integers(1, 4), min_size=len(gaps) + 1, max_size=len(gaps) + 1), label="counts")
    if palindromic:
        gaps, counts = gaps + gaps[::-1], counts + counts[-2::-1]
    return tuple(zip(accumulate(gaps, initial=draw(st.integers(-3, 3), label="first")), counts))


# ((a, m), (alexander step, maslov step)); a step drawn as a sign and a name
# is that sign times p or |q| of the test's cable
lines = st.tuples(st.tuples(st.integers(-20, 20), st.integers(-40, 40)),
                  st.tuples(st.one_of(st.integers(-4, 4), st.tuples(st.sampled_from((1, -1)),
                                                                    st.sampled_from(("p", "q")))),
                            st.integers(-6, 6)))


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(lines, min_size=1, max_size=6), levels=level_vectors(),
       stored=st.dictionaries(st.tuples(st.integers(-20, 20), st.integers(-40, 40)), st.integers(1, 3),
                              max_size=4),
       chain=st.lists(progressions, max_size=2),
       mirrored=st.sampled_from((None, "reversed", "straight")), shift=st.sampled_from((0, 0, 0, -2, -1, 1, 2)),
       defect=st.sampled_from((None, "count", "drop")), i=st.integers(0, 20), p=st.integers(2, 5),
       n=st.integers(-3, 3))
@example(drawn=[((3, 1), (-3, 1))], levels=((0, 2), (1, 3), (2, 2)), stored={}, chain=[], mirrored="reversed",
         shift=0, defect=None, i=0, p=3, n=1)  # the fast case
@example(drawn=[((3, 1), (-3, 1))], levels=((1, 2), (2, 2)), stored={}, chain=[], mirrored="reversed",
         shift=-1, defect=None, i=0, p=3, n=1)  # keys paired as if the levels started at 0: not symmetric
@example(drawn=[((3, 1), (0, 2))], levels=((0, 2), (2, 2)), stored={}, chain=[], mirrored="straight",
         shift=0, defect=None, i=0, p=3, n=1)  # da = 0, the fallback
def test_line_checks_on_any_lines(drawn, levels, stored, chain, mirrored, shift, defect, i, p, n):
    """Lines of any steps, da = 0 and mixed step classes included, over
    level vectors that read the same reversed and ones that do not, beside
    stored cells and progressions.  When mirrored, each line, stored cell
    and progression comes with its sigma-image: the image line walked from
    its last cell (reversed), as the squares' lines pair, or from its first
    (straight); a reversed one may start shift steps off, which pairs the
    lines' keys as some other level vector would and breaks the symmetry.
    Then one count may change or one line go.  Symmetry
    agrees with check_symmetry on the merged table, and euler times the
    binomials built from the parts equals the cell-by-cell
    euler_characteristic times them."""
    q = p * n + 1
    named = {"p": p, "q": abs(q), "q - 1": abs(q - 1)}
    survivors = [(cell, (da if isinstance(da, int) else da[0] * named[da[1]], dm)) for cell, (da, dm) in drawn]
    chain = tuple(Progression(a, m, da if isinstance(da, int) else da[0] * named[da[1]], dm, length, bend, rank)
                  for a, m, da, dm, length, bend, rank in chain)
    if mirrored:
        both = levels[0][0] + levels[-1][0] + shift
        for (a, m), (da, dm) in list(survivors):
            image, step = sigma((a, m)), (-da, dm - 2 * da)
            if mirrored == "reversed":  # the same cells, walked from sigma of the line's last one
                image, step = (image[0] + both * step[0], image[1] + both * step[1]), (da, 2 * da - dm)
            survivors.append((image, step))
        chain += tuple(Progression(-a, m - 2 * a, -da, dm - 2 * da, length, bend, rank)
                       for a, m, da, dm, length, bend, rank in chain)
        for cell, r in list(stored.items()):
            stored[sigma(cell)] = stored.get(sigma(cell), 0) + r
    if defect == "count":
        j = i % len(levels)
        levels = levels[:j] + ((levels[j][0], levels[j][1] + 1),) + levels[j + 1:]
    elif defect == "drop":
        del survivors[i % len(survivors)]
    table = RankTable(stored, chain, (survivors, levels))
    merged = RankTable(table.ranks)
    assert sum(table.ranks.values()) == table.total == (sum(stored.values()) + sum(pr.length * pr.rank for pr in chain)
                                                        + len(survivors) * sum(count for _, count in levels))
    assert symmetry_holds(table) == check_symmetry(merged)
    left, extra = _euler_times_binomials(table, p, q)
    want = euler_characteristic(merged)
    for step in [p, abs(q)] + extra:
        want = times_binomial(want, step)
    assert LaurentPolynomial(left) == want
