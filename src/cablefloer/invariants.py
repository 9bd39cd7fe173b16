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

A rank table keeps a chain entry of two or more generators (|m| >= 3) as
progressions, and every run decides the symmetry and Euler checks from the
table's two parts, one progression at a time, by symmetry_holds and
euler_holds, with the same verdicts as cell by cell.  The cell-by-cell
check_symmetry and euler_characteristic stay for tests, which use them as
oracles on any table, and for the benchmark, which binds them; no run
calls them.
"""

from __future__ import annotations

from itertools import chain as concat, repeat
from math import gcd

from .homology import RankTable
from .laurent import LaurentPolynomial
from .thin import ThinModel
from .type_d import build_typed, raised


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


def symmetry_holds(table: RankTable) -> bool:
    """check_symmetry's verdict, decided per progression.

    sigma(a, m) = (-a, m - 2a) is an involution, and the table is symmetric
    exactly when its rank function f equals f o sigma.  sigma maps the
    progression from (a, m) by (da, dm) to the one from (-a, m - 2a) by
    (-da, dm - 2da), so the chain's part D of f - f o sigma is a signed sum
    of progression indicators: each progression with +1, its image with -1.
    On a lattice line, the cells base + t*step with the step oriented so
    that its Alexander part is positive (or, at Alexander step 0, its
    Maslov part), an indicator is an interval of t; a zero step is a line
    of one cell, met once per repetition.  The interval ends of every line
    are sorted together, and one sweep writes out the cells where the
    running sum, D, is nonzero.  With S the stored survivors,
    f - f o sigma = D + S - S o sigma, so the table is symmetric exactly
    when S(sigma x) = S(x) + D(x) at every cell x: one lookup per stored
    cell, then one per cell left in D.  Elsewhere S(sigma x) = 0 follows
    from the check at sigma x, since D o sigma = -D.
    """
    ends = []
    for a, m, da, dm, length in table.chain:
        if da < 0 or (da == 0 and dm < 0):  # the same cells, walked the other way
            a, m, da, dm = a + (length - 1) * da, m + (length - 1) * dm, -da, -dm
        if da:  # the image, walked from sigma of the last cell
            b, n, dn = -a - (length - 1) * da, m - 2 * a + (length - 1) * (dm - 2 * da), 2 * da - dm
            t, s = a // da, b // da
        else:  # sigma keeps a step (0, dm)
            b, n, dn = -a, m - 2 * a, dm
            t, s = (m // dm, n // dm) if dm else (0, 0)
        a, m, b, n = a - t * da, m - t * dm, b - s * da, n - s * dn  # each line's cell at 0
        ends += ((da, dm, a, m, t, 1), (da, dm, a, m, t + length, -1),
                 (da, dn, b, n, s, -1), (da, dn, b, n, s + length, 1))
    ends.sort()
    leftover: dict[tuple[int, int], int] = {}  # D
    value = 0
    for (da, dm, a, m, t, change), following in zip(ends, ends[1:]):
        value += change
        if value:  # every line's changes sum to 0, so the following end is on this line
            for u in range(t, following[4]):
                cell = (a + u * da, m + u * dm)
                leftover[cell] = leftover.get(cell, 0) + value
    rank, pop = table.stored.get, leftover.pop
    for cell, r in table.stored.items():
        a, m = cell
        if rank((-a, m - 2 * a), 0) != r + pop(cell, 0):
            return False
    return all(rank((-a, m - 2 * a), 0) == d for (a, m), d in leftover.items())


def euler_characteristic(table: RankTable) -> LaurentPolynomial:
    """Alternating-sign rank sum per Alexander grading, cell by cell."""
    return LaurentPolynomial._trusted(_alternating_sums(table.ranks.items()))  # sums of int ranks


def _alternating_sums(cells) -> dict[int, int]:
    """Sum of (-1)^m * r per a over ((a, m), r) pairs."""
    coeffs: dict[int, int] = {}
    for (a, m), r in cells:
        coeffs[a] = coeffs.get(a, 0) + (-r if m & 1 else r)
    return coeffs


def torus_knot_delta(p: int, q: int) -> LaurentPolynomial:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    An oracle for tests and a name the benchmark binds; the run path checks
    the Euler characteristic with `euler_holds` instead.

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
    the Euler characteristic with `euler_holds` instead.
    """
    return delta.inflate(p) * torus_knot_delta(p, q)


def _matches_cable(euler_times_binomial: LaurentPolynomial, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler == cable_alexander(delta, p, q), given euler * (t^p - 1), decided
    without forming the product.

    For coprime p > 1 and q, with shift = (p-1)(|q|-1)/2,
    Delta_T(p,q) * (t^p - 1)(t^|q| - 1) = t^-shift * (t^(p|q|) - 1)(t - 1).
    Z[t, t^-1] has no zero divisors, so euler equals delta(t^p) * Delta_T(p,q)
    exactly when both sides agree after multiplying by (t^p - 1)(t^|q| - 1):
    one more binomial multiplication on the left, and on the right four
    terms per coefficient of delta, linear in the terms either way; their
    difference, gathered in one dict, vanishes.  At |q| = 1 both sides carry
    the same factor (t^p - 1)(t - 1), so Delta_T = 1 needs no branch.
    """
    q = abs(q)
    shift = (p - 1) * (q - 1) // 2
    left = euler_times_binomial._coeffs
    gap = {k + q: c for k, c in left.items()}  # left * (t^q - 1)
    for k, c in left.items():
        gap[k] = gap.get(k, 0) - c
    for d, c in delta._coeffs.items():  # minus t^-shift * delta(t^p) * (t^(pq+1) - t^pq - t + 1)
        a = p * d - shift
        for k, s in ((a + p * q + 1, c), (a + p * q, -c), (a + 1, -c), (a, c)):
            gap[k] = gap.get(k, 0) - s
    return not any(gap.values())


def euler_holds(table: RankTable, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler_characteristic(table) == cable_alexander(delta, p, q), decided
    per progression.

    A progression with Alexander step +-p and an even Maslov step has one
    sign (-1)^m throughout, and its cells' sum of t^a telescopes against
    t^p - 1: sign * (t^(a_high + p) - t^(a_low)), with a_low and a_high its
    lowest and highest Alexander grading.  So euler * (t^p - 1) is the
    stored survivors' alternating sum times the binomial, plus two terms
    per such progression, and _matches_cable compares it.  Any other
    progression is summed cell by cell with the stored survivors.
    """
    return _matches_cable(_euler_times_binomial(table, p), delta, p, q)


def _euler_times_binomial(table: RankTable, p: int) -> LaurentPolynomial:
    """euler_characteristic(table) * (t^p - 1), from the table's parts."""
    ends, cellwise = [], []
    for progression in table.chain:
        a, m, da, dm, length = progression
        if abs(da) == p and dm % 2 == 0:
            sign, past = -1 if m % 2 else 1, a + length * da  # past: the grading after the last
            ends += ((past, sign), (a, -sign)) if da > 0 else ((a + p, sign), (past + p, -sign))
        else:
            cellwise.append(progression.cells())
    sums = _alternating_sums(concat(table.stored.items(), zip(concat.from_iterable(cellwise), repeat(1))))
    out = {a + p: c for a, c in sums.items()}
    for a, c in sums.items():
        out[a] = out.get(a, 0) - c
    for a, c in ends:
        out[a] = out.get(a, 0) + c
    return LaurentPolynomial._trusted(out)


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
    tau > 0.  The module stores one square, which stands for the squares of
    every level in its copies: each corner is covered at every level t,
    under the name the pairing gives it there, the stored name raised by
    the level's position in ascending order (type_d.raised).  Every
    b_k*mu_j is covered, the chain end's and those the module's chain
    entry stands for alike.  The uncovered families (a*x2 and the high-index
    b*y1, b*y2) die in homology.
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

    levels = list(enumerate(sorted(module.copies)))
    for gen in module.generators:
        if gen.kind in ("x", "y"):
            corner = f"{gen.kind}{gen.index}"
            for serial, t in levels:
                name = raised(gen.name, serial)
                if gen.kind == "x":
                    put("a", name, _square(corner, 0, t, l, n, p))
                else:
                    for k in range(1, 2 * p - 1):
                        put(f"b{k}", name, _square(corner, k, t, l, n, p))
        elif gen.kind == "u":
            put("a", gen.name, _square("x3", 0, sigma * (gen.index - 1), l, n, p))
        elif gen.kind == "v":
            corner = "y4" if gen.index % 2 else "y3"
            level = gen.index - 1 if tau <= 0 else -gen.index
            for k in range(1, 2 * p - 1):
                put(f"b{k}", gen.name, _square(corner, k, level, l, n, p))
        else:  # mu: the chain end, or the chain entry and every generator it stands for
            for j in range(gen.index, gen.index + gen.length):
                for k in range(1, 2 * p - 1):
                    put(f"b{k}", f"mu{j}", _mu_grading(k, j - 1, m, l, n, p))
    return out
