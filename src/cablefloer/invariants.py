"""Closed-form cable invariants and independent consistency oracles.

Every check that does not depend on the pairing pipeline lives here: the
tau formulas and the total-rank table (closed forms in tau, s, p, n), the
bigraded symmetry, the graded Euler characteristic against the classical
satellite formula for the cable Alexander polynomial (decided by
cross-multiplying the torus knot's binomials, so no product is formed), the
p = 2 mirror comparison, and the closed-form (N, A') grading tables.  The
satellite polynomial itself, `cable_alexander` with `torus_knot_delta`, is
kept for tests, which use it as an oracle, and for the benchmark, which binds
those names; no run calls it.

A rank table that keeps a long unstable chain as progressions (see
pairing.CHAIN_CUTOFF) has its symmetry and Euler checks decided one
progression at a time, by symmetry_holds and euler_holds, with the same
verdicts as cell by cell.  Every other table goes to the cell-by-cell
check_symmetry and euler_characteristic, which tests also use as oracles
on any table, and which the benchmark binds.
"""

from __future__ import annotations

from itertools import chain as concat, repeat
from math import gcd

from .homology import RankTable
from .laurent import LaurentPolynomial
from .pairing import Progression
from .thin import ThinModel
from .type_d import build_typed


def tau_cable(tau: int, p: int, n: int) -> int:
    """tau of the (p, p*n+1)-cable of a thin knot with invariant tau.

    p*tau + n*p*(p-1)/2 when tau = 0 with n >= 0 or tau > 0; the same plus
    p - 1 otherwise.
    """
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    base = p * tau + n * p * (p - 1) // 2
    if (tau == 0 and n >= 0) or tau > 0:
        return base
    return base + p - 1


def tau_pq(tau: int, p: int, q: int) -> int:
    """tau of the (p, q)-cable for coprime p > 1, q.

    p*tau + (p-1)(q-1)/2 when tau = 0 with q >= 1 or tau > 0;
    p*tau + (p-1)(q+1)/2 when tau = 0 with q <= 1-p or tau < 0.
    For tau = 0 with 1-p < q < 1 neither branch applies and the input is
    refused rather than guessed.
    """
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    if gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime, got ({p}, {q})")
    if (tau == 0 and q >= 1) or tau > 0:
        return p * tau + (p - 1) * (q - 1) // 2
    if (tau == 0 and q <= 1 - p) or tau < 0:
        return p * tau + (p - 1) * (q + 1) // 2
    raise ValueError(
        f"tau of the ({p}, {q})-cable with tau = 0 is outside the known range "
        f"(1 - p < q < 1)"
    )


# total-rank table, rows indexed by sign(n - 2*tau), columns by sign(tau)
def table_rank(tau: int, s: int, p: int, n: int) -> int:
    """Predicted total rank s*(6p-4) + cell.

    In the n = 2*tau, tau < 0 cell the rank is 2 higher at p = 2: the long
    staircase arrow that cancels two generators needs the chord sequence
    (rho_12, rho_1), which only hat operations with p >= 3 carry.
    """
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    if n < 2 * tau:
        if tau > 0:
            cell = 8 * p * tau - 8 * tau - 2 * n * p + 2 * n - 2 * p + 3
        else:
            cell = -2 * n * p + 2 * n - 1
    elif n == 2 * tau:
        if tau > 0:
            cell = 4 * p * tau - 4 * tau + 1
        elif tau < 0:
            cell = -4 * p * tau + 4 * tau - 1 + (2 if p == 2 else 0)
        else:
            cell = 1
    else:
        if tau < 0:
            cell = -8 * p * tau + 8 * tau + 2 * n * p - 2 * n - 2 * p + 5
        else:
            cell = 2 * n * p - 2 * n + 1
    return s * (6 * p - 4) + cell


def check_symmetry(table: RankTable) -> bool:
    """rank(a, m) == rank(-a, m - 2a) for every entry, cell by cell."""
    return all(table.ranks.get((-a, m - 2 * a)) == r for (a, m), r in table.ranks.items())


def _line(progression: Progression, lines: dict, sign: int) -> None:
    """Add sign times the indicator of the progression's cells to its lattice line.

    A line is every cell base + t*step for integer t, with the step oriented
    so that its Alexander part is positive (or, at Alexander step 0, its
    Maslov part); it is keyed by that step, the invariant a*dm - m*da and
    the residue of a (or m) along the step, and keeps a base cell, its
    coordinate and the interval ends of its signed indicators."""
    a, m, da, dm, length = progression
    if da < 0 or (da == 0 and dm < 0):  # the same cells, walked the other way
        a, m, da, dm = a + (length - 1) * da, m + (length - 1) * dm, -da, -dm
    if da:
        key, t = (da, dm, a * dm - m * da, a % da), a // da
    else:
        key, t = (0, dm, a, m % dm), m // dm
    line = lines.get(key)
    if line is None:
        line = lines[key] = (a, m, t, [])
    line[3].extend(((t, sign), (t + length, -sign)))


def symmetry_holds(table: RankTable) -> bool:
    """check_symmetry's verdict, decided per progression on a table that
    keeps its chain apart, and by check_symmetry itself on any other.

    sigma(a, m) = (-a, m - 2a) is an involution, and the table is symmetric
    exactly when f - f o sigma vanishes for its rank function f.  sigma maps
    the progression from (a, m) by (da, dm) to the one from (-a, m - 2a) by
    (-da, dm - 2da), so the chain's part of f - f o sigma is a signed sum of
    progression indicators: each progression with +1, its image with -1.
    Grouped by lattice line, each line's sum is a step function of the
    position along the line, read off its sorted interval ends; only the
    cells where it is nonzero are written out.  The stored survivors add
    r at (a, m) and -r at sigma(a, m), and the table is symmetric exactly
    when every cell sums to zero.  The cancelled part is the chain's
    sigma-invariant part, so the verdict is check_symmetry's exactly.
    """
    if not table.chain:
        return check_symmetry(table)
    lines: dict = {}
    leftover: dict[tuple[int, int], int] = {}
    for progression in table.chain:
        a, m, da, dm, length = progression
        if da == 0 and dm == 0:  # one cell, length times
            for cell, r in (((a, m), length), ((-a, m - 2 * a), -length)):
                leftover[cell] = leftover.get(cell, 0) + r
            continue
        _line(progression, lines, 1)
        _line(Progression(-a, m - 2 * a, -da, dm - 2 * da, length), lines, -1)
    for (da, dm, _, _), (a0, m0, t0, ends) in lines.items():
        ends.sort()
        value = 0
        for (t, change), (t_next, _) in zip(ends, ends[1:]):  # the last end brings value back to 0
            value += change
            if value:
                for u in range(t - t0, t_next - t0):
                    cell = (a0 + u * da, m0 + u * dm)
                    leftover[cell] = leftover.get(cell, 0) + value
    for (a, m), r in table.stored.items():
        leftover[a, m] = leftover.get((a, m), 0) + r
        leftover[-a, m - 2 * a] = leftover.get((-a, m - 2 * a), 0) - r
    return not any(leftover.values())


def euler_characteristic(table: RankTable) -> LaurentPolynomial:
    """Alternating-sign rank sum per Alexander grading, cell by cell."""
    return LaurentPolynomial._trusted(_alternating_sums(table.ranks.items()))  # sums of int ranks


def _alternating_sums(cells) -> dict[int, int]:
    """Sum of (-1)^m * r per a over ((a, m), r) pairs."""
    coeffs: dict[int, int] = {}
    for (a, m), r in cells:
        coeffs[a] = coeffs.get(a, 0) + (r if m % 2 == 0 else -r)
    return coeffs


def torus_knot_delta(p: int, q: int) -> LaurentPolynomial:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    An oracle for tests and a name the benchmark binds; the run path checks
    the Euler characteristic with `euler_matches_cable` instead.

    Delta = (1 - t) * sum of t^s over the semigroup S = <p, |q|>, recentred
    by (p-1)(q-1)/2.  The coefficient at k is [k in S] - [k-1 in S].  In the
    residue class of b*q mod p (0 <= b < p), S holds exactly the integers
    >= b*q, and k-1 lies in the class of b'*q with b' = b - q^-1 mod p, so
    the class contributes +1 at each of its points in [b*q, b'*q + 1) and
    -1 at each in [b'*q + 1, b*q).  Mirrors (q < 0) share the polynomial of
    |q|.
    """
    if p <= 1:
        raise ValueError(f"torus knot requires p > 1, got {p}")
    q = abs(q)
    if gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")
    shift = (p - 1) * (q - 1) // 2
    step = pow(q, -1, p)
    coeffs: dict[int, int] = {}
    for b in range(p):
        start, below = b * q, (b - step) % p * q + 1
        sign = 1 if start < below else -1
        for k in range(min(start, below), max(start, below), p):
            coeffs[k - shift] = sign
    return LaurentPolynomial._trusted(coeffs)  # every coefficient is +1 or -1


def cable_alexander(delta: LaurentPolynomial, p: int, q: int) -> LaurentPolynomial:
    """Satellite formula: delta(t^p) times the (p, q) torus-knot polynomial.

    An oracle for tests and a name the benchmark binds; the run path checks
    the Euler characteristic with `euler_matches_cable` instead.
    """
    return delta.inflate(p) * torus_knot_delta(p, q)


def euler_matches_cable(euler: LaurentPolynomial, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler == cable_alexander(delta, p, q), decided without forming the product.

    For coprime p > 1 and q, with shift = (p-1)(|q|-1)/2,
    Delta_T(p,q) * (t^p - 1)(t^|q| - 1) = t^-shift * (t^(p|q|) - 1)(t - 1).
    Z[t, t^-1] has no zero divisors, so euler equals delta(t^p) * Delta_T(p,q)
    exactly when both sides agree after multiplying by (t^p - 1)(t^|q| - 1):
    two binomial multiplications a side, linear in the terms.  At |q| = 1
    both sides carry the same factor (t^p - 1)(t - 1), so Delta_T = 1 needs
    no branch.
    """
    return _matches_cable(euler.times_binomial(p), delta, p, q)


def _matches_cable(euler_times_binomial: LaurentPolynomial, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler_matches_cable, given euler * (t^p - 1)."""
    q = abs(q)
    shift = (p - 1) * (q - 1) // 2
    inflated = LaurentPolynomial._trusted({p * d - shift: c for d, c in delta.items()})
    return euler_times_binomial.times_binomial(q) == inflated.times_binomial(p * q).times_binomial(1)


def euler_holds(table: RankTable, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler_matches_cable(euler_characteristic(table), delta, p, q),
    decided per progression on a table that keeps its chain apart.

    A progression with Alexander step +-p and an even Maslov step has one
    sign (-1)^m throughout, and its cells' sum of t^a telescopes against
    t^p - 1: sign * (t^(a_high + p) - t^(a_low)), with a_low and a_high its
    lowest and highest Alexander grading.  So euler * (t^p - 1) is the
    stored survivors' alternating sum times the binomial, plus two terms
    per such progression, and the comparison goes on as in
    euler_matches_cable.  Any other progression is summed cell by cell with
    the stored survivors.  A table without a chain goes to
    euler_characteristic and euler_matches_cable themselves.
    """
    if not table.chain:
        return euler_matches_cable(euler_characteristic(table), delta, p, q)
    return _matches_cable(_euler_times_binomial(table, p), delta, p, q)


def _euler_times_binomial(table: RankTable, p: int) -> LaurentPolynomial:
    """euler_characteristic(table) * (t^p - 1), from the table's parts."""
    ends: dict[int, int] = {}
    cellwise = []
    for progression in table.chain:
        a, m, da, dm, length = progression
        if abs(da) == p and dm % 2 == 0:
            sign = -1 if m % 2 else 1
            low, high = sorted((a, a + (length - 1) * da))
            ends[high + p] = ends.get(high + p, 0) + sign
            ends[low] = ends.get(low, 0) - sign
        else:
            cellwise.append(progression.cells())
    cells = concat(table.stored.items(), zip(concat.from_iterable(cellwise), repeat(1)))
    return (LaurentPolynomial._trusted(_alternating_sums(cells)).times_binomial(p)
            + LaurentPolynomial._trusted(ends))


def mirror_check(this: RankTable, that: RankTable) -> bool:
    """Compare the p = 2 cable at (tau, n) with its mirror at (-tau, -n-1).

    Valid only at p = 2, where -(2n+1) = 2(-n-1)+1.  Totals must agree and
    the Alexander multisets must be negatives of each other.
    """
    if this.total != that.total:
        return False
    mirrored = {-a: r for a, r in this.alexander_multiset().items()}
    return mirrored == that.alexander_multiset()


# ---------------------------------------------------------------------------
# closed-form (N, A') tables, used as an oracle against the group arithmetic
# ---------------------------------------------------------------------------

def _square(corner: str, k: int, t: int, l: int, n: int, p: int) -> tuple[int, int] | None:
    """(N, A') of a level-t square corner; k is the b index (0 means the a generator)."""
    if corner == "x1" or corner == "x3":
        return (t, -p * t)
    if corner == "x4":
        return (t + 1, -p * t - p)
    if corner == "x2":
        return None
    i = 2 * p - 2 - k
    if corner == "y1":
        if 1 <= k <= p - 1:
            return (2 * k * t + t - 2 * k - k * k * n - 2 * k * l - k * n,
                    -p * t + k + k * n * p)
        if k == p:
            return (2 * p * t - t - 2 * p + 1 - n * p * p + n * p + 2 * l - 2 * l * p,
                    -p * t + p + n * p * p - n * p)
        return None
    if corner == "y4":
        if 1 <= k <= p - 1:
            return (2 * k * t - t - k * k * n + k * n - 2 * k * l + 2 * l,
                    -p * t - p + k + k * n * p - n * p)
        return (2 * i * t + t - 1 - i * i * n - 2 * i * l - i * n,
                -p * t + i * n * p)
    if corner == "y2":
        if 1 <= k <= p - 1:
            return (2 * k * t - t - 2 * k + 1 - k * k * n + k * n - 2 * k * l + 2 * l,
                    -p * t + k + k * n * p - n * p)
        return None
    if corner == "y3":
        if 1 <= k <= p - 1:
            return (2 * k * t + t + 1 - k * k * n - 2 * k * l - k * n,
                    -p * t + k - p + k * n * p)
        return (2 * i * t + 3 * t - i * i * n - 3 * i * n - 2 * i * l - 2 * n - 2 * l,
                -p * t + i * n * p + n * p)
    raise ValueError(corner)


def _mu_grading(k: int, j: int, m: int, l: int, n: int, p: int) -> tuple[int, int]:
    """(N, A') of b_k mu_{j+1}; the m < 0 chain reads the m > 0 display at -j-1, one higher in N."""
    up = int(m < 0)
    if up:
        j = -j - 1
    i = 2 * p - 2 - k
    if 1 <= k <= p - 1:
        return (2 * j * k - k * k * n + k * n + 2 * k * l + up,
                -j * p + k - p + k * n * p - 2 * l * p - n * p)
    return (2 * i * j + 2 * j - 1 + 2 * i * l + 2 * l - i * i * n - i * n + up,
            -j * p - 2 * l * p + i * n * p)


def closed_form_gradings(model: ThinModel, p: int, n: int) -> dict[tuple[str, str], tuple[int, int]]:
    """(N, A') for every tensor generator family covered by the closed forms.

    Staircase generators borrow square formulas: every staircase generator is
    a square corner at an Alexander level.  With sigma = 1 for tau <= 0 and
    -1 for tau > 0, u_i reads off a*x3 at level sigma*(i-1); v_i reads off
    b*y4 (odd i) or b*y3 (even i) at level i-1 for tau <= 0 and -i for
    tau > 0.  Every b_k*mu_j is covered, the chain end's and those the
    module's MuChain stands for alike.  The uncovered families (a*x2 and
    the high-index b*y1, b*y2) die in homology.
    """
    tau = model.params.tau
    l = model.params.l
    module = build_typed(model, n)
    m = 2 * tau - n
    sigma = 1 if tau <= 0 else -1
    out: dict[tuple[str, str], tuple[int, int]] = {}

    def put(a_name: str, d_name: str, value: tuple[int, int] | None) -> None:
        if value is not None:
            out[(a_name, d_name)] = value

    for gen in module.generators:
        if gen.kind in ("x", "y"):
            corner = f"{gen.kind}{gen.index}"
            if gen.kind == "x":
                put("a", gen.name, _square(corner, 0, gen.level, l, n, p))
            else:
                for k in range(1, 2 * p - 1):
                    put(f"b{k}", gen.name, _square(corner, k, gen.level, l, n, p))
        elif gen.kind == "u":
            put("a", gen.name, _square("x3", 0, sigma * (gen.index - 1), l, n, p))
        elif gen.kind == "v":
            corner = "y4" if gen.index % 2 else "y3"
            level = gen.index - 1 if tau <= 0 else -gen.index
            for k in range(1, 2 * p - 1):
                put(f"b{k}", gen.name, _square(corner, k, level, l, n, p))
        else:  # mu
            for k in range(1, 2 * p - 1):
                put(f"b{k}", gen.name, _mu_grading(k, gen.index - 1, m, l, n, p))
    chain = module.chain
    if chain is not None:
        for j in range(chain.index, chain.index + chain.length):
            for k in range(1, 2 * p - 1):
                put(f"b{k}", f"mu{j}", _mu_grading(k, j - 1, m, l, n, p))
    return out
