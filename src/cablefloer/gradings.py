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
With the left factor y and the b slot of x fixed, normalizing y * x is
moreover affine in x's remaining doubled slots; ``affine_normalization``
gives that map's integer constants from one normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class GradingError(ValueError):
    """Raised when a double-coset normalization does not land on integers."""


@dataclass(frozen=True)
class GradingElement:
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
    def of(cls, a, b, c, d) -> "GradingElement":
        """Build from half-integer values given as ints or Fractions."""
        doubled = []
        for value in (a, b, c, d):
            twice = Fraction(value) * 2
            if twice.denominator != 1:
                raise ValueError(f"{value} is not a half-integer")
            doubled.append(int(twice))
        return cls(*doubled)

    @classmethod
    def identity(cls) -> "GradingElement":
        return cls(0, 0, 0, 0)

    def halves(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(v, 2) for v in (self.a2, self.b2, self.c2, self.d2))

    def __mul__(self, other: "GradingElement") -> "GradingElement":
        # doubled determinant (b1*c2 - c1*b2)/2 stays doubled after one halving
        det_quadrupled = self.b2 * other.c2 - self.c2 * other.b2
        if det_quadrupled % 2:
            raise ArithmeticError("determinant term is not a half-integer")
        return GradingElement(
            self.a2 + other.a2 + det_quadrupled // 2,
            self.b2 + other.b2,
            self.c2 + other.c2,
            self.d2 + other.d2,
        )

    def inverse(self) -> "GradingElement":
        return GradingElement(-self.a2, -self.b2, -self.c2, -self.d2)

    def __pow__(self, k: int) -> "GradingElement":
        # x * x has a zero determinant term, so powers scale every slot
        return GradingElement(k * self.a2, k * self.b2, k * self.c2, k * self.d2)

    def __str__(self) -> str:
        a, b, c, d = self.halves()
        return f"({a}; {b}, {c}; {d})"


#: Central element; commutes with everything since its middle slots vanish.
LAMBDA = GradingElement(2, 0, 0, 0)

_RHO_SINGLE = {
    "1": GradingElement(-1, 1, -1, 0),
    "2": GradingElement(-1, 1, 1, 0),
    "3": GradingElement(-1, -1, 1, 0),
}


def rho_grading(label: str) -> GradingElement:
    """Grading of an algebra chord element; composites multiply left to right."""
    if label not in ("1", "2", "3", "12", "23", "123"):
        raise ValueError(f"unknown chord label {label!r}")
    out = GradingElement.identity()
    for ch in label:
        out = out * _RHO_SINGLE[ch]
    return out


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
    if (g.b2, g.c2) != (0, 2):
        raise GradingError(f"left normalizer must have middle slots (0, 1), got {g}")
    if h.b2 != -2:
        raise GradingError(f"right normalizer must have -1 in the b slot, got {h}")
    if x.b2 % 2:
        raise GradingError(f"b slot of {x} admits no integral right power")
    beta = x.b2 // 2
    det_quadrupled = beta * (x.b2 * h.c2 + 2 * x.c2)
    ya2, yc2, yd2 = x.a2 + beta * h.a2 + det_quadrupled // 2, x.c2 + beta * h.c2, x.d2 + beta * h.d2
    if yc2 % 2:
        raise GradingError(f"c slot of {GradingElement(ya2, 0, yc2, yd2)} admits no integral left power")
    alpha = -(yc2 // 2)
    za2, zd2 = ya2 + alpha * g.a2, yd2 + alpha * g.d2
    if za2 % 2 or zd2 % 2:
        raise GradingError(f"normalized entries of {GradingElement(za2, 0, 0, zd2)} are not integers")
    return za2 // 2, zd2 // 2


def affine_normalization(
    y: GradingElement, x: GradingElement, g: GradingElement, h: GradingElement, normalize
) -> tuple[int, int, int, int]:
    """Constants (n0, nc, m0, mc) of x' -> normalize(y * x', g, h) over the x'
    with x's b slot, anchored at x itself.

    With y and the b slot fixed, beta is fixed, and every later step of the
    product and the normalization is linear in x''s doubled (a2, c2, d2).  So
    when y * x normalizes, y * x' normalizes exactly when x'.c2 % 2 ==
    x.c2 % 2 (the one parity that makes both the determinant term and the c
    slot even) and 4 divides both

        n = n0 + 2*x'.a2 + nc*x'.c2    and    m = m0 + 2*x'.d2 + mc*x'.c2,

    and then to (n // 4, m // 4).  The slopes are closed forms; the
    intercepts come from one call of normalize (normalize_double_coset, as
    bound where the caller looks it up) at x, which raises the group law's
    own error when x does not normalize.  pairing passes the name it
    imports, so a wrapper bound there (the benchmark's gradings rollup) sees
    every normalization of a run.
    """
    N, Aprime = normalize(y * x, g, h)
    nc, mc = 2 * y.b2 + x.b2 - g.a2, -g.d2
    return 4 * N - 2 * x.a2 - nc * x.c2, nc, 4 * Aprime - 2 * x.d2 - mc * x.c2, mc
