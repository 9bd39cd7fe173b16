from math import gcd

import pytest

from cablefloer import (
    LaurentPolynomial,
    RankTable,
    cable_alexander,
    check_symmetry,
    compute_cable_hfk,
    euler_characteristic,
    mirror_check,
    parse_delta,
    synthesize_delta,
    table_rank,
    tau_cable,
    tau_pq,
    torus_knot_delta,
)

from conftest import DELTA_11N50, DELTA_FIG8, DELTA_TREFOIL, GOLDEN_11N50_5_16, oracle_torus_delta


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
