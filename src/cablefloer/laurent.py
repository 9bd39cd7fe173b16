"""Exact integer Laurent polynomials.

These carry symmetrized Alexander polynomials and graded Euler
characteristics.  Coefficients are plain Python ints indexed by integer
degree; zero coefficients are never stored, so equality of the underlying
dicts is equality of polynomials.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class LaurentPolynomial:
    """Finitely supported map ``degree -> coefficient`` over the integers.

    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        clean: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for deg, coeff in items:
            if not isinstance(deg, int) or not isinstance(coeff, int):
                raise TypeError(f"degree and coefficient must be ints, got {deg!r}: {coeff!r}")
            if coeff:
                clean[deg] = clean.get(deg, 0) + coeff
                if not clean[deg]:
                    del clean[deg]
        self._coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "LaurentPolynomial":
        """Wrap coefficients already known to be ints, such as results of this
        class's own arithmetic, skipping the type checks; zeros are dropped."""
        out = cls.__new__(cls)
        out._coeffs = {deg: coeff for deg, coeff in coeffs.items() if coeff}
        return out

    @classmethod
    def from_centered_list(cls, coeffs: Iterable[int]) -> "LaurentPolynomial":
        """Build from an odd-length coefficient list centered at degree 0.

        Entry ``k`` of a ``(2g+1)``-entry list maps to degree ``k - g``.
        """
        seq = list(coeffs)
        if len(seq) % 2 == 0:
            raise ValueError(f"centered list must have odd length, got {len(seq)}")
        g = len(seq) // 2
        return cls({k - g: c for k, c in enumerate(seq)})

    # -- queries -------------------------------------------------------

    def coeff(self, degree: int) -> int:
        return self._coeffs.get(degree, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (degree, coefficient) pairs in ascending degree order."""
        for deg in sorted(self._coeffs):
            yield deg, self._coeffs[deg]

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    @property
    def top_degree(self) -> int:
        """Largest degree with a nonzero coefficient (0 for the zero polynomial)."""
        return max(self._coeffs, default=0)

    def is_symmetric(self) -> bool:
        """True when coeff(d) == coeff(-d) for every degree."""
        return all(self._coeffs.get(-d) == c for d, c in self._coeffs.items())

    def abs_coeff_sum(self) -> int:
        return sum(abs(c) for c in self._coeffs.values())

    def __call__(self, value: int) -> int:
        """Evaluate at a nonzero integer, exactly: the terms are summed over
        the common denominator value^k, k the lowest negative degree's
        magnitude, and a total that is not an integer raises ValueError."""
        if value == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        k = max(0, -min(self._coeffs, default=0))
        total, r = divmod(sum(coeff * value ** (deg + k) for deg, coeff in self._coeffs.items()), value**k)
        if r:
            raise ValueError(f"evaluation at {value} is not integral")
        return total

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self._coeffs)
        for deg, coeff in other._coeffs.items():
            out[deg] = out.get(deg, 0) + coeff
        return LaurentPolynomial._trusted(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._trusted({d: -c for d, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        get = out.get
        terms = other._coeffs.items()
        for d1, c1 in self._coeffs.items():
            for d2, c2 in terms:
                d = d1 + d2
                out[d] = get(d, 0) + c1 * c2
        return LaurentPolynomial._trusted(out)

    def times_binomial(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k - 1 in one pass over the terms."""
        out = {deg + k: coeff for deg, coeff in self._coeffs.items()}
        for deg, coeff in self._coeffs.items():
            out[deg] = out.get(deg, 0) - coeff
        return LaurentPolynomial._trusted(out)

    def inflate(self, p: int) -> "LaurentPolynomial":
        """Substitute t -> t**p."""
        return LaurentPolynomial._trusted({p * d: c for d, c in self._coeffs.items()})

    # -- comparisons / display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for deg in sorted(self._coeffs, reverse=True):
            coeff = self._coeffs[deg]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if deg == 0:
                body = str(mag)
            else:
                var = "t" if deg == 1 else f"t^{deg}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (f"-{first_body}" if first_sign == "-" else first_body)
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"
