"""Closed-form cable invariants and independent consistency oracles.

Every check that does not depend on the pairing pipeline lives here: the
tau formulas and the total-rank table (closed forms in tau, s, p, n), the
bigraded symmetry, the graded Euler characteristic against the classical
satellite formula for the cable Alexander polynomial (decided by
cross-multiplying the torus knot's binomials, so no product is formed), the
p = 2 mirror comparison, and the closed-form (N, A') grading tables.

A rank table keeps the survivors of a chain entry of two or more
generators (|m| >= 3), and of the grading families of a pattern wider
than pairing.FAMILY_RUN, as progressions, the families' and a chain cut
along them with a Maslov grading quadratic in the position, and the
stored square's survivors as lines over the levels listed more than
once.  Every run decides the symmetry and Euler checks from the table's
three parts, one progression or line at a time, by symmetry_holds and
euler_holds, with the same verdicts as cell by cell.
"""

from __future__ import annotations

from collections import defaultdict
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


def symmetry_holds(table: RankTable) -> bool:
    """Whether rank(a, m) == rank(-a, m - 2a) in every cell, decided per
    progression.

    sigma(a, m) = (-a, m - 2a) is an involution, and the table is symmetric
    exactly when its rank function f equals f o sigma.  sigma maps the
    progression from (a, m) by steps (da, dm) and bend b to the one from
    (-a, m - 2a) by (-da, dm - 2da) and the same bend, so the
    progressions' part D of f - f o sigma is a signed sum of progression
    indicators: each progression with +rank, its image with -rank.
    Oriented so that its Alexander step da is positive (or, at da = 0 and
    b = 0, its Maslov step), a progression lies on the curve of cells
    (a0 + t*da, m0 + t*d0 + t(t-1)/2*b), keyed by da, b and the curve's
    cell a0, value m0 and first difference d0 at t = 0, and is an interval
    of t there.  The origin t = 0 is where the Alexander grading lies in
    [0, da), or at da = 0 where the Maslov grading lies in [0, dm) or,
    with a bend, where the first difference lies between 0 and b; a zero
    step is a curve of one cell, met once per repetition.  The interval
    ends of every curve are sorted together,
    and one sweep writes out the cells where the running sum, D, is
    nonzero.  With S the stored survivors, f - f o sigma = D + S - S o
    sigma, so the table is symmetric exactly when S(sigma x) = S(x) + D(x)
    at every cell x: one lookup per stored cell, then one per cell left in
    D.  Elsewhere S(sigma x) = 0 follows from the check at sigma x, since
    D o sigma = -D.

    sigma is linear, so it maps the square's line from cell c by step
    (da, dm) to the line from sigma(c) by (-da, dm - 2da) over the same
    levels.  When _lines_invariant finds the lines sigma-invariant, they add
    nothing to D; otherwise each line's cells go into D with +count and
    their images with -count.
    """
    ends = []
    for a, m, da, dm, length, bend, rank in table.progressions:
        last = length - 1
        if da < 0 or (da == 0 and dm < 0 and not bend):  # the same cells, walked the other way
            a, m, da, dm = a + last * da, m + last * dm, -da, -dm
            if bend:
                m, dm = m + last * (last - 1) // 2 * bend, dm - (last - 1) * bend
        if da:  # the image, walked from sigma of the last cell
            b = -a - last * da
            n, dn = m + last * dm + 2 * b, 2 * da - dm
            if bend:
                n, dn = n + last * (last - 1) // 2 * bend, dn - (last - 1) * bend
            t, s = a // da, b // da
        else:  # sigma keeps the steps (0, dm) and the bend
            b, n, dn = -a, m - 2 * a, dm
            t, s = (dm // bend, dm // bend) if bend else (m // dm, n // dm) if dm else (0, 0)
        # each curve's cell, value and first difference at 0
        a, m, b, n = a - t * da, m - t * dm, b - s * da, n - s * dn
        if bend:
            m, dm, n, dn = m + t * (t + 1) // 2 * bend, dm - t * bend, n + s * (s + 1) // 2 * bend, dn - s * bend
        ends += ((da, a, m, dm, bend, t, rank), (da, a, m, dm, bend, t + length, -rank),
                 (da, b, n, dn, bend, s, -rank), (da, b, n, dn, bend, s + length, rank))
    ends.sort()
    leftover: dict[tuple[int, int], int] = {}  # D
    value = 0
    for (da, a, m, dm, bend, t, change), following in zip(ends, ends[1:]):
        value += change
        if value:  # every curve's changes sum to 0, so the following end is on this curve
            for u in range(t, following[5]):
                cell = (a + u * da, m + u * dm + u * (u - 1) // 2 * bend)
                leftover[cell] = leftover.get(cell, 0) + value
    survivors, levels = table.square
    if levels and not _lines_invariant(survivors, levels):
        for offset, count in levels:
            for (a, m), (da, dm) in survivors:
                a, m = a + offset * da, m + offset * dm
                leftover[a, m] = leftover.get((a, m), 0) + count
                leftover[-a, m - 2 * a] = leftover.get((-a, m - 2 * a), 0) - count
    rank, pop = table.stored.get, leftover.pop
    for cell, r in table.stored.items():
        a, m = cell
        if rank((-a, m - 2 * a), 0) != r + pop(cell, 0):
            return False
    return all(rank((-a, m - 2 * a), 0) == d for (a, m), d in leftover.items())


def _lines_invariant(survivors, levels) -> bool:
    """Whether the lines are sigma-invariant by their keys, (cell at t_0,
    step): the level vector reads the same reversed, so the image of the
    line (c, (da, dm)) is also the line (sigma(c) + (first + last) * (-da,
    dm - 2da), (da, 2da - dm)), walked the other way, and the lines are, as
    a multiset, those images.  Equal keys give equal lines, so True is
    exact; False decides nothing."""
    first, last = levels[0][0], levels[-1][0]
    if levels != tuple((first + last - offset, count) for offset, count in reversed(levels)):
        return False
    both = first + last
    return sorted([(a, m, da, dm) for (a, m), (da, dm) in survivors]) == sorted(
        [(-a - both * da, m - 2 * a + both * (dm - 2 * da), da, 2 * da - dm) for (a, m), (da, dm) in survivors])


def _alternating_sums(cells) -> dict[int, int]:
    """Sum of (-1)^m * r per a over ((a, m), r) pairs."""
    coeffs: dict[int, int] = {}
    for (a, m), r in cells:
        coeffs[a] = coeffs.get(a, 0) + (-r if m & 1 else r)
    return coeffs


def euler_holds(table: RankTable, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """Whether the table's graded Euler characteristic, the alternating sum
    of its ranks per Alexander grading, equals the satellite formula
    delta(t^p) * Delta_T(p,q), decided per progression, without forming
    the product.

    For coprime p > 1 and q, with shift = (p-1)(|q|-1)/2,
    Delta_T(p,q) * (t^p - 1)(t^|q| - 1) = t^-shift * (t^(p|q|) - 1)(t - 1).
    Z[t, t^-1] has no zero divisors, so euler equals delta(t^p) * Delta_T(p,q)
    exactly when both sides agree after multiplying by (t^p - 1)(t^|q| - 1)
    and by (t^s - 1) for every further step s that _euler_times_binomials
    telescopes: on the right, four terms per coefficient of delta times
    those further binomials; their difference, gathered in one dict,
    vanishes.  At |q| = 1 both sides carry the same factor
    (t^p - 1)(t - 1), so Delta_T = 1 needs no branch.
    """
    left, extra = _euler_times_binomials(table, p, q)
    q = abs(q)
    shift = (p - 1) * (q - 1) // 2
    gap = {} if extra else left  # minus the right side, before the extra binomials
    for d, c in delta._coeffs.items():  # t^-shift * delta(t^p) * (t^(pq+1) - t^pq - t + 1)
        a = p * d - shift
        for k, s in ((a + p * q + 1, c), (a + p * q, -c), (a + 1, -c), (a, c)):
            gap[k] = gap.get(k, 0) - s
    if extra:
        for s in extra:
            gap = _times_binomial(gap, s)
        for k, c in gap.items():
            left[k] = left.get(k, 0) + c
    return not any(left.values())


def _euler_times_binomials(table: RankTable, p: int, q: int) -> tuple[dict[int, int], list[int]]:
    """The table's Euler characteristic times (t^p - 1)(t^|q| - 1) and (t^s - 1)
    for every s of extra, from the table's parts, and extra: every other
    step of a telescoping progression, ascending.

    A progression with Alexander step +-s != 0 and even Maslov step and
    bend has one sign (-1)^m throughout, and its cells' sum of t^a
    telescopes against t^s - 1: sign * rank * (t^(a_high + s) - t^(a_low)),
    with a_low and a_high its lowest and highest Alexander grading, two
    terms.  Chain progressions step by p, and grading families by q and
    1 - q, with |1 - q| = p|n|.  Any other progression is summed cell by
    cell with the stored survivors.  Their alternating sum is multiplied
    by the binomials one at a time, and after each the telescoped terms of
    its step are added, times the binomials already applied: each term
    ends up times every binomial but its own.  The square's lines of one
    step class (da, dm mod 2) add their alternating sum at t_0 times every
    binomial, times the sum over the levels of
    count * (-1)^(offset dm) * t^(offset da): exact for any steps.
    """
    telescoped: defaultdict[int, dict[int, int]] = defaultdict(dict)  # step -> its progressions' sum times t^step - 1
    cellwise = []
    for progression in table.progressions:
        a, m, da, dm, length, bend, rank = progression
        if da and not (dm | bend) & 1:
            sign, past = -rank if m & 1 else rank, a + length * da  # past: the grading after the last
            high, low = (past, a) if da > 0 else (a - da, past - da)  # a_high + s, a_low
            terms = telescoped[abs(da)]
            terms[high] = terms.get(high, 0) + sign
            terms[low] = terms.get(low, 0) - sign
        else:
            cellwise.append(zip(progression.cells(), repeat(rank)))
    out = _alternating_sums(concat(table.stored.items(), concat.from_iterable(cellwise)))
    q = abs(q)
    extra = sorted(telescoped.keys() - {p, q})
    applied: list[int] = []
    for s in [p, q] + extra:
        out = _times_binomial(out, s)
        terms = telescoped.pop(s, None)
        if terms:
            for r in applied:
                terms = _times_binomial(terms, r)
            for k, c in terms.items():
                out[k] = out.get(k, 0) + c
            out = {k: c for k, c in out.items() if c}  # most of them cancel
        applied.append(s)
    survivors, levels = table.square
    classes = {}  # step class (da, dm mod 2) -> its lines' alternating sum at t_0
    for (a, m), (da, dm) in survivors if levels else ():
        sums = classes.setdefault((da, dm & 1), {})
        sums[a] = sums.get(a, 0) + (-1 if m & 1 else 1)
    for (da, odd), sums in classes.items():
        for s in applied:  # one square's survivors sum to a multiple of Delta_T(p, q): few terms are left
            sums = _times_binomial(sums, s)
        sums = [(a, c) for a, c in sums.items() if c]
        for offset, count in levels:  # times the sum over the levels of count (-1)^(offset dm) t^(offset da)
            shift, count = offset * da, -count if odd and offset & 1 else count
            for a, c in sums:
                out[a + shift] = out.get(a + shift, 0) + count * c
    return out, extra


def _times_binomial(terms: dict[int, int], s: int) -> dict[int, int]:
    """The polynomial terms times t^s - 1."""
    out = {k + s: c for k, c in terms.items()}
    for k, c in terms.items():
        out[k] = out.get(k, 0) - c
    return out


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
