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
"""

from __future__ import annotations

from math import gcd

from .homology import RankTable
from .laurent import LaurentPolynomial
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
    """rank(a, m) == rank(-a, m - 2a) for every entry."""
    return all(table.ranks.get((-a, m - 2 * a)) == r for (a, m), r in table.ranks.items())


def euler_characteristic(table: RankTable) -> LaurentPolynomial:
    """Alternating-sign rank sum per Alexander grading."""
    coeffs: dict[int, int] = {}
    for (a, m), r in table.ranks.items():
        coeffs[a] = coeffs.get(a, 0) + (r if m % 2 == 0 else -r)
    return LaurentPolynomial._trusted(coeffs)  # sums of int ranks


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
    q = abs(q)
    shift = (p - 1) * (q - 1) // 2
    inflated = LaurentPolynomial._trusted({p * d - shift: c for d, c in delta.items()})
    return euler.times_binomial(p).times_binomial(q) == inflated.times_binomial(p * q).times_binomial(1)


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

def _square_even(corner: str, k: int, t: int, l: int, n: int, p: int) -> tuple[int, int] | None:
    """Level 2t square formulas; k is the b index (0 means the a generator)."""
    if corner == "x1" or corner == "x3":
        return (2 * t, -2 * p * t)
    if corner == "x4":
        return (2 * t + 1, -2 * p * t - p)
    if corner == "x2":
        return None
    i = 2 * p - 2 - k
    if corner == "y1":
        if 1 <= k <= p - 1:
            return (4 * k * t + 2 * t - 2 * k - k * k * n - 2 * k * l - k * n,
                    -2 * p * t + k + k * n * p)
        if k == p:
            return (4 * p * t - 2 * t - 2 * p + 1 - n * p * p + n * p + 2 * l - 2 * l * p,
                    -2 * p * t + p + n * p * p - n * p)
        return None
    if corner == "y4":
        if 1 <= k <= p - 1:
            return (4 * k * t - 2 * t - k * k * n + k * n - 2 * k * l + 2 * l,
                    -2 * p * t - p + k + k * n * p - n * p)
        return (4 * i * t + 2 * t - 1 - i * i * n - 2 * i * l - i * n,
                -2 * p * t + i * n * p)
    if corner == "y2":
        if 1 <= k <= p - 1:
            return (4 * k * t - 2 * t - 2 * k + 1 - k * k * n + k * n - 2 * k * l + 2 * l,
                    -2 * p * t + k + k * n * p - n * p)
        return None
    if corner == "y3":
        if 1 <= k <= p - 1:
            return (4 * k * t + 2 * t + 1 - k * k * n - 2 * k * l - k * n,
                    -2 * p * t + k - p + k * n * p)
        return (4 * i * t + 6 * t - i * i * n - 3 * i * n - 2 * i * l - 2 * n - 2 * l,
                -2 * p * t + i * n * p + n * p)
    raise ValueError(corner)


def _square_odd(corner: str, k: int, t: int, l: int, n: int, p: int) -> tuple[int, int] | None:
    """Level 2t-1 square formulas."""
    if corner == "x1" or corner == "x3":
        return (2 * t - 1, -2 * p * t + p)
    if corner == "x4":
        return (2 * t, -2 * p * t)
    if corner == "x2":
        return None
    i = 2 * p - 2 - k
    if corner == "y1":
        if 1 <= k <= p - 1:
            return (4 * k * t + 2 * t - 4 * k - 1 - k * k * n - k * n - 2 * k * l,
                    -2 * p * t + k + p + k * n * p)
        if k == p:
            return (4 * p * t - 2 * t - 4 * p + 2 - n * p * p + n * p - 2 * l * p + 2 * l,
                    -2 * p * t + 2 * p + n * p * p - n * p)
        return None
    if corner == "y4":
        if 1 <= k <= p - 1:
            return (4 * k * t - 2 * t - 2 * k + 1 - k * k * n + k * n - 2 * k * l + 2 * l,
                    -2 * p * t + k + k * n * p - n * p)
        return (4 * i * t + 2 * t - 2 * i - 2 - i * i * n - 2 * i * l - i * n,
                -2 * t * p + p + i * n * p)
    if corner == "y2":
        if 1 <= k <= p - 1:
            return (4 * k * t - 2 * t - 4 * k + 2 - k * k * n + k * n - 2 * k * l + 2 * l,
                    -2 * p * t + k + p + k * n * p - n * p)
        return None
    if corner == "y3":
        if 1 <= k <= p - 1:
            return (4 * k * t + 2 * t - 2 * k - k * k * n - 2 * k * l - k * n,
                    -2 * p * t + k + k * n * p)
        return (4 * i * t + 6 * t - 2 * i - 3 - i * i * n - 3 * i * n - 2 * i * l - 2 * n - 2 * l,
                -2 * p * t + p + i * n * p + n * p)
    raise ValueError(corner)


def _square_at_level(corner: str, k: int, level: int, l: int, n: int, p: int) -> tuple[int, int] | None:
    if level % 2 == 0:
        return _square_even(corner, k, level // 2, l, n, p)
    return _square_odd(corner, k, (level + 1) // 2, l, n, p)


def _mu_grading(k: int, j: int, m: int, l: int, n: int, p: int) -> tuple[int, int]:
    """(N, A') of b_k mu_{j+1}; separate displays for m > 0 and m < 0."""
    i = 2 * p - 2 - k
    if m > 0:
        if 1 <= k <= p - 1:
            return (2 * j * k - k * k * n + k * n + 2 * k * l,
                    -j * p + k - p + k * n * p - 2 * l * p - n * p)
        return (2 * i * j + 2 * j - 1 + 2 * i * l + 2 * l - i * i * n - i * n,
                -j * p - 2 * l * p + i * n * p)
    if 1 <= k <= p - 1:
        return (-2 * j * k - 2 * k + 1 - k * k * n + k * n + 2 * k * l,
                j * p + k + k * n * p - n * p - 2 * l * p)
    return (-2 * i * j - 2 * i - 2 * j - 2 + 2 * i * l + 2 * l - i * i * n - i * n,
            j * p + p - 2 * l * p + i * n * p)


def closed_form_gradings(model: ThinModel, p: int, n: int) -> dict[tuple[str, str], tuple[int, int]]:
    """(N, A') for every tensor generator family covered by the closed forms.

    Staircase generators borrow square formulas: for tau <= 0, u_{2t+1} and
    u_{2t+2} read off a*x3 in levels 2t and 2t+1, v_{2t+1} off b*y4 in level
    2t and v_{2t+2} off b*y3 in level 2t+1; for tau > 0 the sources are a*x4,
    a*x3 in level -2t-1 and b*y4 in level -2t-1, b*y3 in level -2t-2.  The
    uncovered families (a*x2 and the high-index b*y1, b*y2) die in homology.
    """
    tau = model.params.tau
    l = model.params.l
    module = build_typed(model, n)
    m = 2 * tau - n
    out: dict[tuple[str, str], tuple[int, int]] = {}

    def put(a_name: str, d_name: str, value: tuple[int, int] | None) -> None:
        if value is not None:
            out[(a_name, d_name)] = value

    for gen in module.generators:
        if gen.kind in ("x", "y"):
            corner = f"{gen.kind}{gen.index}"
            if gen.kind == "x":
                put("a", gen.name, _square_at_level(corner, 0, gen.level, l, n, p))
            else:
                for k in range(1, 2 * p - 1):
                    put(f"b{k}", gen.name, _square_at_level(corner, k, gen.level, l, n, p))
        elif gen.kind == "u":
            if tau <= 0:
                t, odd = divmod(gen.index - 1, 2)
                corner, level = ("x3", 2 * t) if not odd else ("x3", 2 * t + 1)
            else:
                t, odd = divmod(gen.index - 1, 2)
                corner, level = ("x4", -2 * t - 1) if not odd else ("x3", -2 * t - 1)
            put("a", gen.name, _square_at_level(corner, 0, level, l, n, p))
        elif gen.kind == "v":
            if tau <= 0:
                t, odd = divmod(gen.index - 1, 2)
                corner, level = ("y4", 2 * t) if not odd else ("y3", 2 * t + 1)
            else:
                t, odd = divmod(gen.index - 1, 2)
                corner, level = ("y4", -2 * t - 1) if not odd else ("y3", -2 * t - 2)
            for k in range(1, 2 * p - 1):
                put(f"b{k}", gen.name, _square_at_level(corner, k, level, l, n, p))
        else:  # mu
            for k in range(1, 2 * p - 1):
                put(f"b{k}", gen.name, _mu_grading(k, gen.index - 1, m, l, n, p))
    return out
