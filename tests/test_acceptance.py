"""Acceptance criteria, one test per criterion, each printing a verdict line.

Expected values come from independent oracles computed inside this module
(staircase bigradings read off torus-knot Alexander polynomials, cable
polynomials multiplied out with local dict arithmetic), never from the
code paths under test.
"""

import time

import pytest

from cablefloer import (
    LaurentPolynomial,
    build_model,
    build_typea_minus,
    build_typed,
    closed_form_gradings,
    compute_cable_hfk,
    parse_delta,
    shift_constant,
    synthesize_delta,
    table_rank,
    tau_cable,
    tau_pq,
    tensor_gradings,
)

from conftest import (
    DELTA_11N50,
    GOLDEN_11N50_5_16,
    oracle_cable_delta,
    oracle_staircase,
    oracle_torus_delta,
    thin_grid_cases,
)


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_golden_example():
    """(5,16)-cable of 11n50: exact bigraded table, rank 181, tau 30, < 1 s."""
    delta = parse_delta(DELTA_11N50)
    start = time.perf_counter()
    result = compute_cable_hfk(delta, 0, 5, 3)
    elapsed = time.perf_counter() - start
    assert dict(result.table.ranks) == GOLDEN_11N50_5_16
    assert result.table.total == 181
    assert result.cable_tau == 30
    assert elapsed < 1.0
    report(1, f"golden (5,16)-cable matches on all 60 bigradings in {elapsed:.3f}s")


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, -2), (3, 1), (3, -1), (5, 3)])
def test_criterion_2_torus_knot_oracle(p, n):
    """Unknot cables are torus knots; compare with the staircase oracle."""
    q = p * n + 1
    expected = oracle_staircase(oracle_torus_delta(p, q), mirror=q < 0)
    result = compute_cable_hfk(LaurentPolynomial.one(), 0, p, n)
    assert dict(result.table.ranks) == expected
    report(2, f"T({p},{q}) staircase reproduced exactly ({len(expected)} generators)")


def test_criterion_3_property_grid():
    """Symmetry, Euler characteristic, per-square rank, p=2 mirrors."""
    cases = thin_grid_cases()
    results = {}
    for delta, tau, p, n in cases:
        results[(delta, tau, p, n)] = compute_cable_hfk(delta, tau, p, n)

    staircase_only = {}
    for (delta, tau, p, n), result in results.items():
        # (a) bigraded symmetry
        ranks = result.table.ranks
        assert all(ranks.get((-a, m - 2 * a)) == r for (a, m), r in ranks.items()), (tau, p, n)
        # (b) Euler characteristic against the satellite polynomial
        euler = {}
        for (a, m), r in ranks.items():
            euler[a] = euler.get(a, 0) + (r if m % 2 == 0 else -r)
        euler = {a: c for a, c in euler.items() if c}
        assert euler == oracle_cable_delta(delta, p, p * n + 1), (tau, p, n)
        # (c) each square contributes exactly 6p - 4 surviving generators
        key = (tau, p, n)
        if key not in staircase_only:
            staircase_only[key] = compute_cable_hfk(synthesize_delta(tau), tau, p, n).table.total
        s = result.model.params.s
        assert result.table.total == staircase_only[key] + s * (6 * p - 4), (tau, p, n)
    # (d) p = 2 mirror pairs
    mirror_pairs = 0
    for (delta, tau, p, n), result in results.items():
        partner = results.get((delta, -tau, 2, -n - 1))
        if p != 2 or partner is None:
            continue
        mirror_pairs += 1
        assert result.table.total == partner.table.total, (tau, n)
        mirrored = {-a: c for a, c in result.table.alexander_multiset().items()}
        assert mirrored == partner.table.alexander_multiset(), (tau, n)
    assert mirror_pairs >= 50
    report(3, f"symmetry/euler/per-square/mirror hold on {len(cases)} grid runs "
              f"({mirror_pairs} mirror pairs)")


def test_criterion_4_grading_cross_check():
    """Group-arithmetic (N, A') equals the closed forms family by family."""
    compared = 0
    for delta, tau, p, n in thin_grid_cases():
        model = build_model(delta, tau)
        computed = tensor_gradings(
            build_typea_minus(p), build_typed(model, n), shift_constant(model.params.l, p, n)
        )
        for pair, expected in closed_form_gradings(model, p, n).items():
            assert computed[pair][:2] == expected, (tau, p, n, pair)
            compared += 1
    report(4, f"{compared} generator gradings agree with the closed forms")


def test_criterion_5_tau_consistency():
    """Framed and (p,q) tau formulas agree; unknot values are classical."""
    checked = 0
    for tau in (-2, -1, 0, 1, 2):
        for p in (2, 3, 4, 5):
            for n in range(-4, 5):
                assert tau_cable(tau, p, n).value == tau_pq(tau, p, p * n + 1).value
                checked += 1
    for p in (2, 3, 4, 5):
        for q in range(1, 12):
            if q % p == 0 or (p % 2 == 0 and q % 2 == 0):
                continue
            assert tau_pq(0, p, q).value == (p - 1) * (q - 1) // 2
    report(5, f"tau formulas consistent on {checked} parameter triples")


def test_criterion_6_rank_table():
    """Non-advisory table cells match; advisory cells are logged, with the
    trefoil (2,3)-cable pinned against the satellite-polynomial support."""
    advisory_log = []
    for delta, tau, p, n in thin_grid_cases():
        result = compute_cable_hfk(delta, tau, p, n)
        value, advisory = table_rank(tau, result.model.params.s, p, n)
        if advisory:
            advisory_log.append((tau, p, n, result.table.total, value))
        else:
            assert result.table.total == value, (tau, p, n)

    trefoil = synthesize_delta(1)
    result = compute_cable_hfk(trefoil, 1, 2, 1)
    support = sorted(d for d, c in oracle_cable_delta(trefoil, 2, 3).items() if c)
    assert result.table.total == 5
    assert sorted(result.table.alexander_multiset()) == support == [-3, -2, 0, 2, 3]
    value, advisory = table_rank(1, 0, 2, 1)
    assert advisory and value == 7 and result.table.total != value
    mismatched = sum(1 for _, _, _, got, want in advisory_log if got != want)
    print(f"     advisory cells logged: {len(advisory_log)} comparisons, "
          f"{mismatched} differ from the table (trefoil case: computed 5 vs table 7)")
    report(6, "table matches on all non-advisory cells; advisory cells reported")


def test_criterion_7_grading_check_every_run():
    """Every grid run completes, so reduce_complex found every arrow keeping
    the Alexander grading and lowering the Maslov grading by one; the arrows
    are re-checked here."""
    runs = arrows = 0
    for delta, tau, p, n in thin_grid_cases():
        complex_ = compute_cable_hfk(delta, tau, p, n).complex
        gens = complex_.generators
        for src, tgt in complex_.arrows:
            assert gens[src].alexander == gens[tgt].alexander, (tau, p, n, src, tgt)
            assert gens[src].maslov == gens[tgt].maslov + 1, (tau, p, n, src, tgt)
        runs += 1
        arrows += len(complex_.arrows)
    assert runs >= 300
    report(7, f"{runs} grid runs pass the grading check ({arrows} arrows)")


def test_criterion_8_lspace_cables():
    """Cables of T(2, 2tau+1) with n >= 2tau-1 are L-space knots, so their
    homology is the staircase of the cable polynomial; mirrors likewise for
    tau < 0 with n <= 2tau.  This covers both advisory table cells."""
    cases = 0
    for tau in (1, 2, 3, 4):
        delta = synthesize_delta(tau)
        for p in (2, 3, 4, 5):
            for n in range(2 * tau - 1, 2 * tau + 4):
                expected = oracle_staircase(oracle_cable_delta(delta, p, p * n + 1))
                assert dict(compute_cable_hfk(delta, tau, p, n).table.ranks) == expected, (tau, p, n)
                cases += 1
    for tau in (-1, -2, -3, -4):
        delta = synthesize_delta(tau)
        for p in (2, 3, 4, 5):
            for n in range(2 * tau - 4, 2 * tau + 1):
                expected = oracle_staircase(oracle_cable_delta(delta, p, p * n + 1), mirror=True)
                assert dict(compute_cable_hfk(delta, tau, p, n).table.ranks) == expected, (tau, p, n)
                cases += 1
    report(8, f"{cases} L-space cables reproduce their staircases exactly")
