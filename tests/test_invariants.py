import importlib.util
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cablefloer import (
    LaurentPolynomial,
    Progression,
    RankTable,
    cable_alexander,
    check_symmetry,
    compute_cable_hfk,
    euler_characteristic,
    euler_holds,
    mirror_check,
    parse_delta,
    symmetry_holds,
    synthesize_delta,
    table_rank,
    tau_cable,
    tau_pq,
    torus_knot_delta,
)
from cablefloer.invariants import _euler_times_binomial

from conftest import (
    DELTA_11N50,
    DELTA_FIG8,
    DELTA_TREFOIL,
    GOLDEN_11N50_5_16,
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
        assert golden == cable_alexander(parse_delta(DELTA_11N50), 5, 16)


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
        exact = LaurentPolynomial(oracle_cable_delta(delta, p, q))
        assert euler_matches_cable(exact, delta, p, q)
        assert not euler_matches_cable(exact + LaurentPolynomial({k: sign}), delta, p, q)
        terms = list(exact.items())
        degree, coeff = terms[flip % len(terms)]
        assert not euler_matches_cable(exact + -LaurentPolynomial({degree: 2 * coeff}), delta, p, q)


class TestCableAlexander:
    def test_torus_23(self):
        assert torus_knot_delta(2, 3) == LaurentPolynomial({1: 1, 0: -1, -1: 1})

    def test_torus_34(self):
        assert torus_knot_delta(3, 4) == LaurentPolynomial({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})

    def test_mirror_shares_polynomial(self):
        assert torus_knot_delta(2, -3) == torus_knot_delta(2, 3)

    def test_cable_pattern_only(self):
        unknot = LaurentPolynomial({0: 1})
        assert cable_alexander(unknot, 2, 3) == torus_knot_delta(2, 3)

    def test_trefoil_cable(self):
        got = cable_alexander(parse_delta(DELTA_TREFOIL), 2, 3)
        assert got == LaurentPolynomial({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})

    def test_p1_cable_inflates(self):
        delta = parse_delta(DELTA_TREFOIL)
        assert cable_alexander(delta, 3, 1) == delta.inflate(3)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            torus_knot_delta(2, 4)

    def test_semigroup_matches_long_division(self):
        for p in range(2, 13):
            for q in range(1, 201):
                if gcd(p, q) == 1:
                    expected = LaurentPolynomial(oracle_torus_delta(p, q))
                    assert torus_knot_delta(p, q) == expected, (p, q)
                    assert torus_knot_delta(p, -q) == expected, (p, -q)

    @pytest.mark.parametrize("p, q", [(60, 12001), (20, 4881)])
    def test_semigroup_large(self, p, q):
        assert torus_knot_delta(p, q) == LaurentPolynomial(oracle_torus_delta(p, q))


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


def chain_mutant(table, kind, i=0):
    """The table with one defect in its parts.

    one-short: progression i loses its last cell.  wrong-step: progression
    i's Maslov step is 2 more, which keeps every Alexander grading and
    Maslov parity, so only symmetry can see it.  moved-pair: one rank of a
    stored cell (a, m) whose partner sigma(a, m) is stored too moves to
    (a, m + 2), and one rank of the partner to sigma(a, m + 2); at a = 0
    the cell is its own partner and moves once.  With no such stored cell
    there is no moved-pair mutant, and the result is None.
    end-dropped: an end cell of a progression whose partner no chain cell
    covers, so that it is left over after the chain cancels, is dropped.
    """
    chain, stored = table.chain, dict(table.stored)
    i %= len(chain)
    if kind == "one-short":
        chain = replaced(chain, i, chain[i]._replace(length=chain[i].length - 1))
    elif kind == "wrong-step":
        chain = replaced(chain, i, chain[i]._replace(maslov_step=chain[i].maslov_step + 2))
    elif kind == "moved-pair":
        a, m = next((cell for cell in sorted(stored) if sigma(cell) in stored), (None, None))
        if a is None:
            return None
        for old, new in {(a, m): (a, m + 2), sigma((a, m)): sigma((a, m + 2))}.items():
            stored[old] -= 1
            stored[new] = stored.get(new, 0) + 1
        stored = {cell: r for cell, r in stored.items() if r}
    else:
        covered = {cell for progression in chain for cell in progression.cells()}
        order = chain[i:] + chain[:i]
        j, end = next(((j, end) for j, progression in enumerate(order)
                       for end, cell in ((0, progression[:2]), (-1, list(progression.cells())[-1]))
                       if sigma(cell) not in covered), (0, 0))
        j = (j + i) % len(chain)
        a, m, da, dm, length = chain[j]
        cut = (a + da, m + dm, da, dm, length - 1) if end == 0 else (a, m, da, dm, length - 1)
        chain = replaced(chain, j, Progression(*cut))
    return RankTable(stored, chain)


MUTANTS = ("one-short", "wrong-step", "moved-pair", "end-dropped")


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_progression_checks_agree_on_chain_workload(case):
    """On every chain workload case at seeds 1 and 2, and on four mutants of
    each, symmetry and Euler decided per progression give the cell-by-cell
    verdicts.  The one-short, wrong-step and end-dropped mutants fail at
    least one check.  The moved-pair mutant passes both, cell by cell as
    well: it is the gap that a per-cell rank oracle is needed for."""
    delta = LaurentPolynomial.from_centered_list(list(case.delta))
    p, q = case.p, case.p * case.n + 1
    table = compute_cable_hfk(delta, case.tau, p, case.n).table
    assert table.chain and len(table.chain) == 2 * p - 2
    assert type(table.ranks) is dict
    assert verdicts(table, delta, p, q) == oracle_verdicts(table, delta, p, q) == (True, True)
    for kind in MUTANTS:
        mutant = chain_mutant(table, kind)
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
    assert table.chain
    if kind is not None:
        table = chain_mutant(table, kind, i)
        assume(table is not None)
    assert verdicts(table, delta, p, p * n + 1) == oracle_verdicts(table, delta, p, p * n + 1)


progressions = st.builds(Progression, st.integers(-30, 30), st.integers(-60, 60), st.integers(-4, 4),
                         st.integers(-6, 6), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(chain=st.lists(progressions, min_size=0, max_size=6),
       stored=st.dictionaries(st.tuples(st.integers(-30, 30), st.integers(-60, 60)), st.integers(1, 3),
                              max_size=6),
       mirrored=st.booleans(), drop=st.integers(0, 20), p=st.integers(1, 4))
def test_progression_checks_on_any_progressions(chain, stored, mirrored, drop, p):
    """Progressions of any step, zero and odd steps and steps other than
    +-p included, on crossing and shared lattice lines.  When mirrored, each
    progression and stored cell comes with its sigma-image, so the table is
    symmetric unless drop takes one progression's last cell.  Symmetry
    agrees with check_symmetry, and euler * (t^p - 1) built from the parts
    equals the cell-by-cell euler_characteristic times t^p - 1."""
    chain = tuple(chain)
    if mirrored:
        chain += tuple(Progression(-a, m - 2 * a, -da, dm - 2 * da, length) for a, m, da, dm, length in chain)
        for cell, r in list(stored.items()):
            stored[sigma(cell)] = stored.get(sigma(cell), 0) + r
        if drop < len(chain) and chain[drop].length > 1:
            chain = replaced(chain, drop, chain[drop]._replace(length=chain[drop].length - 1))
    table = RankTable(stored, chain)
    merged = RankTable(table.ranks)
    assert sum(table.ranks.values()) == table.total == sum(stored.values()) + sum(pr.length for pr in chain)
    assert symmetry_holds(table) == check_symmetry(merged)
    assert _euler_times_binomial(table, p) == times_binomial(euler_characteristic(merged), p)


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
