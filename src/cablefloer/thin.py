"""Thin-knot input validation and the model complex descriptor.

A Floer-homologically thin knot is described completely by its symmetrized
Alexander polynomial and its tau invariant.  The model chain complex is one
staircase of length 2|tau| + 1 together with a number of square summands;
this module derives the square counts per Alexander level and packages them
as a :class:`ThinModel`.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentPolynomial


class ThinInputError(ValueError):
    """Raised when an input pair (delta, tau) is not realizable by a thin knot."""


def parse_delta(text: str) -> LaurentPolynomial:
    """Parse a comma-separated centered coefficient list.

    The list must have odd length; entry k of a (2g+1)-entry list is the
    coefficient in degree k - g.  ``"2,-6,9,-6,2"`` gives
    2t^-2 - 6t^-1 + 9 - 6t + 2t^2.
    """
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        coeffs = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ThinInputError(f"non-integer coefficient in {text!r}") from exc
    if len(coeffs) % 2 == 0:
        raise ThinInputError(
            f"coefficient list must have odd length (centered at degree 0), got {len(coeffs)} entries"
        )
    return LaurentPolynomial.from_centered_list(coeffs)


class ThinParams(NamedTuple):
    """Numerical invariants extracted from a validated (delta, tau) pair.

    a is the sum of absolute coefficient values, s = (a - 2|tau| - 1)/4 the
    number of square summands, l = -tau the staircase parameter, and g the
    top nonzero degree of delta.
    """

    tau: int
    l: int
    a: int
    s: int
    g: int


class ThinModel(NamedTuple):
    """Staircase parameters plus the multiset of square summands per level."""

    delta: LaurentPolynomial
    params: ThinParams
    square_counts: dict[int, int]


def validate_thin(delta: LaurentPolynomial, tau: int) -> ThinParams:
    """Check symmetry and the rank constraint; derive (a, s, l, g).

    Rejects inputs whose total coefficient mass cannot be split as one
    staircase of 2|tau| + 1 generators plus four generators per square.
    """
    if not delta.is_symmetric():
        raise ThinInputError(f"delta is not symmetric: {delta}")
    if abs(delta(1)) != 1:
        raise ThinInputError(f"|delta(1)| must be 1, got {delta(1)}")
    a = delta.abs_coeff_sum()
    quarters = a - 2 * abs(tau) - 1
    if quarters < 0 or quarters % 4:
        raise ThinInputError(
            f"(a - 2|tau| - 1) = {quarters} is not a nonnegative multiple of 4; "
            f"(delta, tau) = ({delta}, {tau}) is not thin-realizable"
        )
    return ThinParams(tau=tau, l=-tau, a=a, s=quarters // 4, g=delta.top_degree)


def build_model(delta: LaurentPolynomial, tau: int) -> ThinModel:
    """Validate the input and derive c_i, the number of squares whose corner
    generator sits in Alexander grading i.

    Removing the staircase leaves magnitudes a'_i = |a_i| for |i| > |tau|
    and |a_i| - 1 otherwise; a square at grading i covers gradings i-1, i,
    i+1 with multiplicities 1, 2, 1, so c_i = a'_{i+1} - 2 c_{i+1} - c_{i+2}
    runs downward from c_{g-1} = a'_g.  A negative a'_i or c_i rejects the
    input.  The bottom half is not recomputed: c_i = c_{-i} is checked
    afterwards as an independent consistency condition, as is the total
    count against s.  Last, thin signs alternate: every nonzero a_d has sign
    eps * (-1)^(d - tau) for one global eps.
    """
    params = validate_thin(delta, tau)
    g = params.g
    removed: dict[int, int] = {}
    for i in range(-g, g + 1):
        value = abs(delta.coeff(i))
        if abs(i) <= abs(tau):
            value -= 1
        if value < 0:
            raise ThinInputError(
                f"staircase removal gives a'_{i} = {value} < 0; input is not thin-realizable"
            )
        removed[i] = value
    counts: dict[int, int] = {}
    for i in range(g - 1, -g - 1, -1):
        value = removed[i + 1] - 2 * counts.get(i + 1, 0) - counts.get(i + 2, 0)
        if value < 0:
            raise ThinInputError(
                f"square count c_{i} = {value} < 0; input is not thin-realizable"
            )
        counts[i] = value
    for i in range(1, g + 1):
        if counts.get(i, 0) != counts.get(-i, 0):
            raise ThinInputError(
                f"square counts are asymmetric (c_{i} = {counts.get(i, 0)}, "
                f"c_{-i} = {counts.get(-i, 0)}); input is not thin-realizable"
            )
    total = sum(counts.values())
    if total != params.s:
        raise ThinInputError(
            f"square counts sum to {total}, expected s = {params.s}; input is not thin-realizable"
        )
    if len({(c > 0) == ((d - tau) % 2 == 0) for d, c in delta.items()}) > 1:
        raise ThinInputError(
            f"coefficient signs of {delta} are not one global sign times (-1)^(d - tau) "
            f"for tau = {tau}; input is not thin-realizable"
        )
    return ThinModel(delta=delta, params=params, square_counts={i: c for i, c in counts.items() if c})


def synthesize_delta(tau: int, counts: dict[int, int] | None = None) -> LaurentPolynomial:
    """Inverse of :func:`build_model`'s square counts: the polynomial of a
    thin knot with the given tau and square multiset.

    The staircase alone contributes alternating +-1 coefficients on
    [-|tau|, |tau|]; each square at grading i adds magnitudes (1, 2, 1) on
    (i+1, i, i-1) with the alternating thin signs, so magnitudes reinforce.
    Used to generate valid grid inputs for self-checks and tests.
    """
    g = abs(tau)
    coeffs = {i: (-1) ** ((g - abs(i)) % 2) for i in range(-g, g + 1)}
    for i, count in (counts or {}).items():
        sign = (-1) ** ((i - tau) % 2)
        for degree, value in ((i + 1, -sign), (i, 2 * sign), (i - 1, -sign)):
            coeffs[degree] = coeffs.get(degree, 0) + count * value
    return LaurentPolynomial(coeffs)
