import pytest

from cablefloer import (
    LaurentPolynomial,
    RankTable,
    cable_alexander,
    check_symmetry,
    euler_characteristic,
    mirror_check,
    parse_delta,
    rank_table,
    table_rank,
    tau_cable,
    tau_pq,
    torus_knot_delta,
)

from conftest import DELTA_11N50, DELTA_FIG8, DELTA_TREFOIL, GOLDEN_11N50_5_16


class TestTauCable:
    def test_examples(self):
        assert tau_cable(0, 2, 1).value == 1
        assert tau_cable(0, 5, 3).value == 30
        assert tau_cable(-1, 2, -2).value == -3

    def test_branches(self):
        assert tau_cable(0, 2, 1).branch == "nonneg_case"
        assert tau_cable(1, 2, -3).branch == "nonneg_case"
        assert tau_cable(-1, 2, -2).branch == "shifted_case"
        assert tau_cable(0, 3, -1).branch == "shifted_case"

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            tau_cable(0, 1, 1)


class TestTauPQ:
    def test_examples(self):
        assert tau_pq(0, 2, 3).value == 1
        assert tau_pq(1, 3, 2).value == 4
        assert tau_pq(-1, 2, -3).value == -3

    def test_agrees_with_framed_form(self):
        for tau in (-2, -1, 0, 1, 2):
            for p in (2, 3, 4, 5):
                for n in range(-4, 5):
                    assert tau_pq(tau, p, p * n + 1).value == tau_cable(tau, p, n).value

    def test_unknot_positive_torus_knots(self):
        for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 16)):
            assert tau_pq(0, p, q).value == (p - 1) * (q - 1) // 2

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            tau_pq(0, 4, 2)

    def test_refuses_unknown_window(self):
        # tau = 0 with 1 - p < q < 1 is outside both branches
        with pytest.raises(ValueError):
            tau_pq(0, 3, -1)
        assert tau_pq(0, 3, -2).value == -1  # q = 1 - p is covered
        assert tau_pq(1, 3, -1).value == 3 * 1 + (3 - 1) * (-1 - 1) // 2  # nonzero tau is covered


class TestTableRank:
    def test_golden_cell(self):
        assert table_rank(0, 6, 5, 3) == (181, False)

    def test_negative_torus_cell(self):
        assert table_rank(0, 0, 2, -2) == (3, False)

    def test_advisory_cell(self):
        value, advisory = table_rank(1, 0, 2, 1)
        assert value == 7 and advisory

    def test_advisory_flags(self):
        assert table_rank(-1, 0, 2, -2)[1]      # tau < 0, n = 2 tau
        assert table_rank(2, 0, 3, 1)[1]        # tau > 0, n < 2 tau
        assert not table_rank(-1, 0, 2, 0)[1]   # n > 2 tau, tau < 0
        assert not table_rank(0, 0, 2, 0)[1]    # tau = 0 diagonal


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
        assert euler_characteristic(RankTable({})) == LaurentPolynomial.zero()

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
        unknot = LaurentPolynomial.one()
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


class TestMirror:
    def test_trefoil(self):
        assert mirror_check(parse_delta(DELTA_TREFOIL), 1, 1, rank_table)

    def test_unknot(self):
        assert mirror_check(LaurentPolynomial.one(), 0, 1, rank_table)

    def test_figure_eight(self):
        assert mirror_check(parse_delta(DELTA_FIG8), 0, 0, rank_table)

    def test_detects_mismatch(self):
        def wrong(delta, tau, p, n):
            table = rank_table(delta, tau, p, n)
            if tau < 0:
                return RankTable({(0, 0): table.total + 1})
            return table

        assert not mirror_check(parse_delta(DELTA_TREFOIL), 1, 1, wrong)
