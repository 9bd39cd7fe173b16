"""Closed-form cable invariants and independent consistency oracles.

The tau formulas and the total-rank table are closed forms in (tau, p, n);
the remaining functions (bigraded symmetry, graded Euler characteristic,
the classical satellite formula for the cable Alexander polynomial, the
p = 2 mirror comparison) are pipeline-independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

from .homology import RankTable
from .laurent import LaurentPolynomial


@dataclass(frozen=True)
class TauResult:
    value: int
    branch: str  # "nonneg_case" or "shifted_case"


def tau_cable(tau: int, p: int, n: int) -> TauResult:
    """tau of the (p, p*n+1)-cable of a thin knot with invariant tau.

    p*tau + n*p*(p-1)/2 when tau = 0 with n >= 0 or tau > 0; the same plus
    p - 1 otherwise.
    """
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    base = p * tau + n * p * (p - 1) // 2
    if (tau == 0 and n >= 0) or tau > 0:
        return TauResult(base, "nonneg_case")
    return TauResult(base + p - 1, "shifted_case")


def tau_pq(tau: int, p: int, q: int) -> TauResult:
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
        return TauResult(p * tau + (p - 1) * (q - 1) // 2, "nonneg_case")
    if (tau == 0 and q <= 1 - p) or tau < 0:
        return TauResult(p * tau + (p - 1) * (q + 1) // 2, "shifted_case")
    raise ValueError(
        f"tau of the ({p}, {q})-cable with tau = 0 is outside the known range "
        f"(1 - p < q < 1)"
    )


# total-rank table, rows indexed by sign(n - 2*tau), columns by sign(tau);
# two cells are advisory: they disagree with the assembled complex by 2
# (high for tau > 0 with n < 2*tau, low for tau < 0 with n = 2*tau)
def table_rank(tau: int, s: int, p: int, n: int) -> tuple[int, bool]:
    """Predicted total rank s*(6p-4) + cell, plus an advisory flag."""
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    if n < 2 * tau:
        if tau > 0:
            cell = 8 * p * tau - 8 * tau - 2 * n * p + 2 * n - 2 * p + 5
        else:
            cell = -2 * n * p + 2 * n - 1
    elif n == 2 * tau:
        if tau > 0:
            cell = 4 * p * tau - 4 * tau + 1
        elif tau < 0:
            cell = -4 * p * tau + 4 * tau - 1
        else:
            cell = 1
    else:
        if tau < 0:
            cell = -8 * p * tau + 8 * tau + 2 * n * p - 2 * n - 2 * p + 5
        else:
            cell = 2 * n * p - 2 * n + 1
    advisory = (tau > 0 and n < 2 * tau) or (tau < 0 and n == 2 * tau)
    return s * (6 * p - 4) + cell, advisory


def check_symmetry(table: RankTable) -> bool:
    """rank(a, m) == rank(-a, m - 2a) for every entry."""
    return all(table.ranks.get((-a, m - 2 * a)) == r for (a, m), r in table.ranks.items())


def euler_characteristic(table: RankTable) -> LaurentPolynomial:
    """Alternating-sign rank sum per Alexander grading."""
    coeffs: dict[int, int] = {}
    for (a, m), r in table.ranks.items():
        coeffs[a] = coeffs.get(a, 0) + (r if m % 2 == 0 else -r)
    return LaurentPolynomial(coeffs)


def _poly_div_exact(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Exact division of ordinary polynomials held as degree -> coeff dicts."""
    num = dict(num)
    quot: dict[int, int] = {}
    deg_den = max(den)
    lead = den[deg_den]
    while num:
        deg = max(num)
        q, r = divmod(num[deg], lead)
        if r:
            raise ArithmeticError("polynomial division is not exact")
        shift = deg - deg_den
        quot[shift] = q
        for d, c in den.items():
            val = num.get(shift + d, 0) - q * c
            if val:
                num[shift + d] = val
            else:
                num.pop(shift + d, None)
    return quot


def torus_knot_delta(p: int, q: int) -> LaurentPolynomial:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    (t^{pq/2} - t^{-pq/2})(t^{1/2} - t^{-1/2}) over
    (t^{p/2} - t^{-p/2})(t^{q/2} - t^{-q/2}), computed as exact integer
    division of (t^{pq}-1)(t-1) by (t^p-1)(t^q-1) recentered by
    (p-1)(q-1)/2.  Mirrors (q < 0) share the polynomial of |q|.
    """
    if p <= 1:
        raise ValueError(f"torus knot requires p > 1, got {p}")
    q = abs(q)
    if gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")
    if q == 1:
        return LaurentPolynomial.one()
    num = LaurentPolynomial({p * q: 1, 0: -1}) * LaurentPolynomial({1: 1, 0: -1})
    den = LaurentPolynomial({p: 1, 0: -1}) * LaurentPolynomial({q: 1, 0: -1})
    quot = _poly_div_exact(dict(num.items()), dict(den.items()))
    return LaurentPolynomial(quot).shifted(-(p - 1) * (q - 1) // 2)


def cable_alexander(delta: LaurentPolynomial, p: int, q: int) -> LaurentPolynomial:
    """Satellite formula: delta(t^p) times the (p, q) torus-knot polynomial."""
    return delta.inflate(p) * torus_knot_delta(p, q)


def mirror_check(
    delta: LaurentPolynomial,
    tau: int,
    n: int,
    ranktable_fn: Callable[[LaurentPolynomial, int, int, int], RankTable],
) -> bool:
    """Compare the p = 2 cable against its mirror, (tau, n) vs (-tau, -n-1).

    Valid only at p = 2, where -(2n+1) = 2(-n-1)+1.  Totals must agree and
    the Alexander multisets must be negatives of each other.
    """
    this = ranktable_fn(delta, tau, 2, n)
    that = ranktable_fn(delta, -tau, 2, -n - 1)
    if this.total != that.total:
        return False
    mirrored = {-a: r for a, r in this.alexander_multiset().items()}
    return mirrored == that.alexander_multiset()
