"""Shared fixtures: frozen golden data, independent oracles, grid builders.

The oracles here deliberately avoid the library's own code paths: torus-knot
Alexander polynomials are recomputed with local dict arithmetic, and
staircase bigradings follow the standard positive-coefficient-knot pattern
read off the polynomial alone.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import groupby

import pytest

from cablefloer import DEdge, LaurentPolynomial, TypeDModule, synthesize_delta

# rank of the (5,16)-cable of 11n50 per (alexander, maslov), transcribed
# from the published listing; totals 181 over 60 lattice points
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

DELTA_11N50 = "2,-6,9,-6,2"
DELTA_TREFOIL = "1,-1,1"
DELTA_FIG8 = "-1,3,-1"
DELTA_5_2 = "2,-3,2"

# 55 squares over the 21 levels -10..10, up to three per level
SPREAD_55 = {0: 1, **{i: 3 for i in range(-8, 9) if i}, 9: 2, -9: 2, 10: 1, -10: 1}


# ---------------------------------------------------------------------------
# independent polynomial arithmetic (dict degree -> coeff, local to tests)
# ---------------------------------------------------------------------------

def poly_mul(A: dict, B: dict) -> dict:
    out: dict[int, int] = {}
    for i, x in A.items():
        for j, y in B.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def poly_div(A: dict, B: dict) -> dict:
    A = dict(A)
    out: dict[int, int] = {}
    deg_b = max(B)
    while A:
        deg = max(A)
        q, r = divmod(A[deg], B[deg_b])
        assert r == 0, "non-exact division in test oracle"
        out[deg - deg_b] = q
        for d, c in B.items():
            nd = deg - deg_b + d
            A[nd] = A.get(nd, 0) - q * c
            if not A[nd]:
                del A[nd]
    return out


def oracle_torus_delta(p: int, q: int) -> dict:
    """Symmetrized torus-knot Alexander polynomial, test-local route."""
    q = abs(q)
    if q == 1:
        return {0: 1}
    num = poly_mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    den = poly_mul({p: 1, 0: -1}, {q: 1, 0: -1})
    quot = poly_div(num, den)
    shift = (p - 1) * (q - 1) // 2
    return {d - shift: c for d, c in quot.items()}


def oracle_cable_delta(delta: LaurentPolynomial, p: int, q: int) -> dict:
    inflated = {p * d: c for d, c in delta.items()}
    return poly_mul(inflated, oracle_torus_delta(p, q))


def oracle_staircase(delta: dict, mirror: bool = False) -> dict:
    """Bigraded ranks of the staircase knot with the given alternating delta.

    Exponents descend a_0 > a_1 > ...; maslov starts at 0 and drops by
    2*(gap) - 1 into odd positions and by 1 into even ones.  The mirror
    flag negates both gradings.
    """
    degrees = sorted((d for d, c in delta.items() if c), reverse=True)
    signs = [delta[d] for d in degrees]
    if signs[0] < 0:
        signs = [-s for s in signs]
    assert all(abs(s) == 1 for s in signs), "staircase oracle needs +-1 coefficients"
    assert all(signs[i] == (-1) ** (i % 2) for i in range(len(signs))), "signs must alternate"
    table: dict[tuple[int, int], int] = {}
    maslov = 0
    for i, degree in enumerate(degrees):
        if i > 0:
            gap = degrees[i - 1] - degree
            maslov += (1 - 2 * gap) if i % 2 else -1
        table[(degree, maslov)] = 1
    if mirror:
        table = {(-a, -m): r for (a, m), r in table.items()}
    return table


# ---------------------------------------------------------------------------
# complement module with every square copy written out
# ---------------------------------------------------------------------------

def expand_squares(D: TypeDModule) -> TypeDModule:
    """D with each level's square written out D.copies[t] times in a row,
    every copy its own relabelled square: copy k > 0 of a corner named
    "x1.s0" is "x1.s0#k".  The generic matcher walks this module in full,
    as an independent reference for the pairing's shifted copies."""
    copies = {g.name: D.copies.get(g.level, 1) for g in D.generators}
    gens = []
    for _, run in groupby(D.generators, key=lambda g: g.level):
        run = list(run)
        for k in range(copies[run[0].name]):
            gens += [replace(g, name=copy_name(g.name, k)) for g in run]
    edges = [DEdge(copy_name(e.source, k), e.label, copy_name(e.target, k))
             for e in D.edges for k in range(copies[e.source])]
    return replace(D, generators=tuple(gens), edges=tuple(edges), copies={})


def copy_name(name: str, k: int) -> str:
    return f"{name}#{k}" if k else name


def stored_name(name: str) -> str:
    """The D name that copy `name` of expand_squares shares in the pairing."""
    return name.split("#")[0]


# ---------------------------------------------------------------------------
# thin-input grid
# ---------------------------------------------------------------------------

def thin_grid_cases(seed: int = 0):
    """Randomized-but-reproducible grid: |tau| <= 2, g <= 4, p <= 5, |n| <= 4."""
    rng = random.Random(seed)
    cases = []
    for tau in (-2, -1, 0, 1, 2):
        configs = [{}]
        for _ in range(2):
            counts: dict[int, int] = {}
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(-3, 4)
                counts[i] = counts.get(i, 0) + 1
                if i:
                    counts[-i] = counts.get(-i, 0) + 1
            configs.append(counts)
        for counts in configs:
            delta = synthesize_delta(tau, counts)
            if delta.top_degree > 4:
                continue
            for p in (2, 3, 4, 5):
                for n in range(-4, 5):
                    cases.append((delta, tau, p, n))
    return cases


@pytest.fixture(scope="session")
def grid_cases():
    return thin_grid_cases()


@pytest.fixture(scope="session")
def grid_results(grid_cases):
    from cablefloer import compute_cable_hfk

    return {(delta, tau, p, n): compute_cable_hfk(delta, tau, p, n)
            for delta, tau, p, n in grid_cases}
