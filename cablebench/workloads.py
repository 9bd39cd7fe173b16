"""Seeded case lists for the four benchmark workloads.

A case is one cable: the companion's centered Alexander coefficients and
tau, its square count, and the cable parameters (p, n).  The generator is
local to the benchmark; the program only ever sees the generated inputs.

Each workload also carries fixed cases of record (the ROADMAP ladder and
the golden 11n50 cable), so the same cables are timed under every seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("grid", "squares", "chain", "wide_pattern")
# how many leading cases of each list are fixed cases of record
RECORDS = {"grid": 0, "squares": 3, "chain": 1, "wide_pattern": 1}


class Case(NamedTuple):
    delta: tuple[int, ...]  # centered coefficients, entry k is degree k - g
    tau: int
    squares: int
    p: int
    n: int

    @property
    def delta_text(self) -> str:
        return ",".join(map(str, self.delta))


def thin_delta(tau: int, counts: dict[int, int]) -> tuple[int, ...]:
    """Alexander polynomial of the thin knot with this tau and square multiset.

    The staircase gives alternating +-1 on [-|tau|, |tau|]; a square at
    level i adds magnitudes (1, 2, 1) on degrees (i+1, i, i-1).  All signs
    follow (-1)^(d - tau), so magnitudes add and the input is realizable.
    """
    coeffs: dict[int, int] = {}
    for d in range(-abs(tau), abs(tau) + 1):
        coeffs[d] = (-1) ** ((d - tau) % 2)
    for i, count in counts.items():
        for d, weight in ((i + 1, 1), (i, 2), (i - 1, 1)):
            coeffs[d] = coeffs.get(d, 0) + count * weight * (-1) ** ((d - tau) % 2)
    g = max(abs(d) for d, c in coeffs.items() if c)
    return tuple(coeffs.get(d, 0) for d in range(-g, g + 1))


def make_case(tau: int, counts: dict[int, int], p: int, n: int) -> Case:
    return Case(thin_delta(tau, counts), tau, sum(counts.values()), p, n)


def spread_squares(rng: random.Random, total: int, top: int) -> dict[int, int]:
    """A symmetric multiset of `total` squares covering every level -top..top.

    Only the placement of the squares beyond one per level is random, so
    the number of distinct levels is fixed by `top`.
    """
    counts = {i: 1 for i in range(-top, top + 1)}
    total -= 2 * top + 1
    while total:
        level = rng.randint(0, top) if total > 1 else 0
        for i in {level, -level}:
            counts[i] += 1
        total -= 1 if level == 0 else 2
    return counts


def predicted_generators(case: Case) -> int:
    """Tensor generators from (s, tau, p, n) alone.

    i0 complement generators (2|tau|+1 staircase u's, 4 x's per square) pair
    with a; i1 generators (2|tau| v's, 4 y's per square, |2tau - n| mu's)
    pair with each of the 2p-2 b's.
    """
    i0 = 2 * abs(case.tau) + 1 + 4 * case.squares
    i1 = 2 * abs(case.tau) + 4 * case.squares + abs(2 * case.tau - case.n)
    return i0 + (2 * case.p - 2) * i1


GOLDEN = make_case(0, {1: 2, 0: 2, -1: 2}, 5, 3)  # the (5,16)-cable of 11n50

# The seed varies tau, the framing offset, square placement and small
# perturbations inside each slot, never the size parameters or the direction
# of the unstable chain, so every seed gives nearly the same amount of work
# and a workload's metrics do not depend on which seed ran.
SQUARE_SLOTS = tuple((50 + 3 * j, 5 + j % 5, 4 + j % 9) for j in range(21))  # (s, p, top level)
CHAIN_SLOTS = tuple((5 + (7 * j) % 16, (-1) ** j * (100 + 8 * j)) for j in range(19))  # (p, 2tau - n)
WIDE_SLOTS = tuple((100 + 11 * j, j % 4) for j in range(19))  # (p, |tau|)


def grid(rng: random.Random) -> list[Case]:
    """Every |tau| <= 4, p in 2..6, |n| <= 8 over four square multisets.

    The fourth multiset holds two symmetric pairs of squares at seeded levels.
    """
    random_counts: dict[int, int] = {}
    for level in (rng.randint(1, 3), rng.randint(1, 3)):
        for i in (level, -level):
            random_counts[i] = random_counts.get(i, 0) + 1
    cases = [make_case(tau, counts, p, n)
             for tau in range(-4, 5)
             for counts in ({}, {0: 1}, {1: 1, -1: 1}, random_counts)
             for p in range(2, 7)
             for n in range(-8, 9)]
    rng.shuffle(cases)
    return cases


def squares(rng: random.Random) -> list[Case]:
    """Many squares over many levels, n near 2tau, plus three cases of record."""
    cases = [
        GOLDEN,
        make_case(10, spread_squares(random.Random(55), 55, 10), 10, 30),
        make_case(0, spread_squares(random.Random(420), 420, 10), 30, 10),
    ]
    for s, p, top in SQUARE_SLOTS:
        tau = rng.randint(-6, 6)
        cases.append(make_case(tau, spread_squares(rng, s, top), p, 2 * tau + rng.randint(-6, 6)))
    return cases


def chain(rng: random.Random) -> list[Case]:
    """Few or no squares and a long unstable chain, plus one case of record."""
    cases = [make_case(3, {0: 1}, 60, 200)]
    for p, m in CHAIN_SLOTS:
        tau = rng.randint(-4, 4)
        counts = rng.choice(({}, {}, {0: 1}, {1: 1, -1: 1}))
        cases.append(make_case(tau, counts, p, 2 * tau - m))
    return cases


def wide_pattern(rng: random.Random) -> list[Case]:
    """Wide patterns on staircase companions at n = 2tau, plus one case of record."""
    cases = [make_case(0, {}, 400, 0)]
    for p, k in WIDE_SLOTS:
        tau = rng.choice((-1, 1)) * k
        cases.append(make_case(tau, {}, p + rng.randint(-3, 3), 2 * tau))
    return cases


def generate(workload: str, seed: int) -> list[Case]:
    makers = {"grid": grid, "squares": squares, "chain": chain, "wide_pattern": wide_pattern}
    return makers[workload](random.Random(seed))
