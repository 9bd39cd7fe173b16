"""Exact arithmetic in the noncommutative grading group of half-integer quadruples.

An element (a; b, c; d) multiplies by

    (a1; b1, c1; d1) * (a2; b2, c2; d2)
        = (a1 + a2 + b1*c2 - c1*b2;  b1 + b2,  c1 + c2;  d1 + d2),

with identity (0; 0, 0; 0).  Every value appearing in practice is a
half-integer, so elements store *doubled* integers and all computation is
exact.  Gradings of tensor generators live in double cosets: multiplying by
powers of a fixed g on the left and h on the right zeroes the two middle
slots, and the surviving first/fourth entries are the normalized pair
(N, A').

Powers are linear: the determinant term of x * x is b*c - c*b = 0, so
x^k = (k*a; k*b, k*c; k*d) for every integer k (x^-1 is the negated
quadruple).  Double-coset normalization therefore reduces to a closed form in
the doubled integers, which ``normalize_double_coset`` evaluates directly.
With the left factor y and the b slot of x fixed, the power of h is fixed
too, so normalizing y * x is moreover linear in x's remaining doubled slots,
and with x fixed and y affine in an index k, N is quadratic and A' affine
in k: the pairing normalizes the first three y of each such family once
per b slot, extends the family by differences, and translates that row to
every other x (see pairing.py).
"""

from __future__ import annotations

from typing import NamedTuple


class GradingError(ValueError):
    """Raised when a double-coset normalization does not land on integers."""


class GradingElement(NamedTuple):
    """Quadruple (a; b, c; d) of half-integers, stored as doubled ints.

    The two middle slots always share their half-part (b + c is an integer
    for every algebra and module grading), which keeps the determinant term
    of the product half-integral; multiplying elements from outside that
    subgroup raises ArithmeticError.
    """

    a2: int
    b2: int
    c2: int
    d2: int

    @classmethod
    def identity(cls) -> "GradingElement":
        return cls(0, 0, 0, 0)

    def halves(self) -> tuple:
        """The four slots as Fractions, read only by printing."""
        from fractions import Fraction  # loaded only where a grading is printed

        return tuple(Fraction(v, 2) for v in self)

    def __mul__(self, other: "GradingElement") -> "GradingElement":
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        # doubled determinant (b1*c2 - c1*b2)/2 stays doubled after one halving
        det_quadrupled = b1 * c2 - c1 * b2
        if det_quadrupled % 2:
            raise ArithmeticError("determinant term is not a half-integer")
        return GradingElement(a1 + a2 + det_quadrupled // 2, b1 + b2, c1 + c2, d1 + d2)

    def __pow__(self, k: int) -> "GradingElement":
        # x * x has a zero determinant term, so powers scale every slot
        return GradingElement(k * self.a2, k * self.b2, k * self.c2, k * self.d2)

    def __str__(self) -> str:
        a, b, c, d = self.halves()
        return f"({a}; {b}, {c}; {d})"


def normalize_double_coset(
    x: GradingElement, g: GradingElement, h: GradingElement
) -> tuple[int, int]:
    """Reduce x to its (N, A') double-coset coordinates, the first and fourth
    entries of the representative whose middle slots are zero.

    Requires middle slots (0, 1) for g and (-1, *) for h.  The right power
    of h is folded in first (it is the unique one zeroing the b slot); the
    left power of g then zeroes the c slot.  Because the first-slot
    determinant corrections depend on order, this order is part of the
    contract; the result is still a well-defined function on double cosets.

    Powers being linear, both steps are closed forms in the doubled ints:
    with beta = b(x), y = x * h^beta has a zero b slot and a determinant
    term of quadrupled value beta*(x.b2*h.c2 + 2*x.c2); with alpha = -c(y),
    z = g^alpha * y has none, so it only adds alpha*g.a2 and alpha*g.d2.
    That quadrupled term is 2*beta*(beta*h.c2 + x.c2) once x.b2 = 2*beta,
    so it is always even and the determinant needs no parity check here.
    """
    xa2, xb2, xc2, xd2 = x
    ga2, gb2, gc2, gd2 = g
    ha2, hb2, hc2, hd2 = h
    if gb2 or gc2 != 2:
        raise GradingError(f"left normalizer must have middle slots (0, 1), got {g}")
    if hb2 != -2:
        raise GradingError(f"right normalizer must have -1 in the b slot, got {h}")
    if xb2 % 2:
        raise GradingError(f"b slot of {x} admits no integral right power")
    beta = xb2 // 2
    det_quadrupled = beta * (xb2 * hc2 + 2 * xc2)
    ya2, yc2, yd2 = xa2 + beta * ha2 + det_quadrupled // 2, xc2 + beta * hc2, xd2 + beta * hd2
    if yc2 % 2:
        raise GradingError(f"c slot of {GradingElement(ya2, 0, yc2, yd2)} admits no integral left power")
    alpha = -(yc2 // 2)
    za2, zd2 = ya2 + alpha * ga2, yd2 + alpha * gd2
    if za2 % 2 or zd2 % 2:
        raise GradingError(f"normalized entries of {GradingElement(za2, 0, 0, zd2)} are not integers")
    return za2 // 2, zd2 // 2

