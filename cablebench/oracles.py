"""Benchmark-side correctness oracles for cable rank tables.

Nothing here imports the program or its tests.  Polynomials are plain
``degree -> coefficient`` dicts and rank tables are ``(alexander, maslov) ->
rank`` dicts, so every check is computed independently of the pipeline.
"""

from __future__ import annotations

# rank of the (5,16)-cable of 11n50 per (alexander, maslov), from the
# published listing: 60 lattice points, total rank 181
GOLDEN_11N50_5_16 = {
    (-40, -78): 2, (40, 2): 2, (-39, -77): 2, (39, 1): 2,
    (-35, -69): 4, (35, 1): 4, (-34, -68): 4, (34, 0): 4,
    (-30, -60): 5, (30, 0): 5, (-29, -59): 5, (29, -1): 5,
    (-25, -52): 1, (-25, -51): 2, (25, -2): 1, (25, -1): 2,
    (-24, -51): 1, (-24, -50): 4, (24, -3): 1, (24, -2): 4,
    (-23, -49): 2, (23, -3): 2,
    (-20, -44): 3, (-20, -43): 2, (20, -4): 3, (20, -3): 2,
    (-19, -43): 5, (19, -5): 5, (-18, -42): 4, (18, -6): 4,
    (-15, -37): 2, (-15, -36): 3, (15, -7): 2, (15, -6): 3,
    (-14, -36): 4, (14, -8): 4, (-13, -35): 5, (13, -9): 5,
    (-10, -30): 3, (-10, -29): 2, (10, -10): 3, (10, -9): 2,
    (-9, -29): 2, (9, -11): 2, (-8, -29): 1, (-8, -28): 4,
    (8, -13): 1, (8, -12): 4, (-7, -27): 2, (7, -13): 2,
    (-5, -24): 3, (-5, -23): 2, (5, -14): 3, (5, -13): 2,
    (-3, -23): 5, (3, -17): 5, (-2, -22): 4, (2, -18): 4,
    (0, -19): 2, (0, -18): 3,
}
GOLDEN_CASE = ((2, -6, 9, -6, 2), 0, 5, 3)  # (centered delta, tau, p, n)


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {d: c for d, c in out.items() if c}


def torus_delta(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of T(p, q), from the semigroup <p, |q|>.

    With S the semigroup, Delta(t) = (1 - t) * sum_{s in S} t^s before
    symmetrizing, so the coefficient at d is [d in S] - [d-1 in S].  In the
    residue class r mod p, S holds exactly the integers >= T_r = b*|q| with
    b*|q| = r mod p, so the nonzero coefficients of class r lie between T_r
    and T_{r-1} + 1.  Mirrors share the polynomial of |q|.
    """
    q = abs(q)
    inv = pow(q, -1, p)
    threshold = [(r * inv % p) * q for r in range(p)]
    out: dict[int, int] = {}
    for r in range(p):
        start, stop = threshold[r], threshold[r - 1] + 1
        sign = 1 if start < stop else -1
        for d in range(min(start, stop), max(start, stop), p):
            out[d] = sign
    genus = (p - 1) * (q - 1) // 2
    return {d - genus: c for d, c in out.items()}


def satellite_delta(delta: dict[int, int], p: int, q: int) -> dict[int, int]:
    """Alexander polynomial of the (p, q)-cable: delta(t^p) * Delta_T(p,q)(t)."""
    return poly_mul({p * d: c for d, c in delta.items()}, torus_delta(p, q))


def euler(ranks: dict[tuple[int, int], int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (a, m), r in ranks.items():
        out[a] = out.get(a, 0) + (r if m % 2 == 0 else -r)
    return {d: c for d, c in out.items() if c}


def symmetric(ranks: dict[tuple[int, int], int]) -> bool:
    """rank(a, m) == rank(-a, m - 2a) for every entry."""
    return all(ranks.get((-a, m - 2 * a)) == r for (a, m), r in ranks.items())


def table_total(tau: int, s: int, p: int, n: int) -> tuple[int, bool]:
    """Published total-rank table s*(6p-4) + cell, and whether the cell is advisory.

    The two advisory cells (tau > 0 with n < 2tau, tau < 0 with n = 2tau)
    are known to disagree with the assembled complex; a mismatch there is
    counted, not failed.
    """
    if n < 2 * tau:
        cell = (8 * p * tau - 8 * tau - 2 * n * p + 2 * n - 2 * p + 5) if tau > 0 else (-2 * n * p + 2 * n - 1)
    elif n == 2 * tau:
        cell = 4 * (p - 1) * abs(tau) + (1 if tau >= 0 else -1)
    elif tau < 0:
        cell = -8 * p * tau + 8 * tau + 2 * n * p - 2 * n - 2 * p + 5
    else:
        cell = 2 * n * p - 2 * n + 1
    advisory = (tau > 0 and n < 2 * tau) or (tau < 0 and n == 2 * tau)
    return s * (6 * p - 4) + cell, advisory


def tau_pq(tau: int, p: int, q: int) -> int:
    """tau of the (p, q)-cable of a thin knot (epsilon = sign(tau))."""
    if tau > 0 or (tau == 0 and q >= 1):
        return p * tau + (p - 1) * (q - 1) // 2
    return p * tau + (p - 1) * (q + 1) // 2


def staircase(delta: dict[int, int], mirror: bool = False) -> dict[tuple[int, int], int]:
    """HFK-hat of an L-space knot, read off its Alexander polynomial.

    Exponents d_0 > d_1 > ... carry Maslov grading 0 at the top; the step
    into an odd position drops by 2(d_{i-1} - d_i) - 1, into an even one by
    1.  The mirror negates both gradings.
    """
    degrees = sorted(delta, reverse=True)
    out: dict[tuple[int, int], int] = {}
    maslov = 0
    for i, d in enumerate(degrees):
        if i:
            maslov -= 2 * (degrees[i - 1] - d) - 1 if i % 2 else 1
        out[(-d, -maslov) if mirror else (d, maslov)] = 1
    return out


def lspace_expected(tau: int, squares: int, p: int, n: int, cable: dict[int, int]):
    """The staircase the cable must equal when it is an L-space knot, else None.

    Companions without squares are T(2, 2tau+1) (the unknot at tau = 0) and
    their mirrors.  The (p, pn+1)-cable of T(2, 2k+1) is an L-space knot iff
    n >= 2k - 1; the unknot's cable is the torus knot T(p, pn+1), a mirrored
    one for n < 0; at p = 2 the cable of the mirror of T(2, 2k+1) is the
    mirror of the (2, 2(-n-1)+1)-cable of T(2, 2k+1).
    """
    if squares:
        return None
    if tau > 0 and n >= 2 * tau - 1:
        return staircase(cable)
    if tau == 0:
        return staircase(cable, mirror=n < 0)
    if tau < 0 and p == 2 and n <= 2 * tau:
        return staircase(cable, mirror=True)
    return None


def check(case, ranks: dict[tuple[int, int], int], cable_tau: int) -> tuple[list[str], bool]:
    """Run every oracle on one cable; returns (failures, advisory_mismatch).

    `case` has fields delta (centered coefficients), tau, squares, p and n.
    """
    delta, tau, squares, p, n = case
    failures = []
    q = p * n + 1
    g = len(delta) // 2
    poly = {d - g: c for d, c in enumerate(delta) if c}
    if sum(poly.values()) < 0:
        poly = {d: -c for d, c in poly.items()}
    cable = satellite_delta(poly, p, q)
    if not symmetric(ranks):
        failures.append("bigraded symmetry")
    if euler(ranks) != cable:
        failures.append("Euler characteristic != satellite polynomial")
    total, advisory = table_total(tau, squares, p, n)
    mismatch = sum(ranks.values()) != total
    if mismatch and not advisory:
        failures.append(f"total rank {sum(ranks.values())} != table {total}")
    if cable_tau != tau_pq(tau, p, q):
        failures.append(f"tau {cable_tau} != tau_pq {tau_pq(tau, p, q)}")
    expected = lspace_expected(tau, squares, p, n, cable)
    if expected is not None and ranks != expected:
        failures.append("L-space staircase")
    if squares == 0 and tau == 0 and n == 0 and ranks != {(0, 0): 1}:
        failures.append("(p,1)-cable of the unknot is not the unknot")
    if (delta, tau, p, n) == GOLDEN_CASE and ranks != GOLDEN_11N50_5_16:
        failures.append("golden 11n50 (5,16) table")
    return failures, mismatch and advisory
