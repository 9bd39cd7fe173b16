"""The A-side module of the (p,1) pattern in the solid torus, hat flavour.

Generators are a and b_1 .. b_{2p-2}; a pairs with i0 generators of the
complement module and the b_k pair with i1 generators.  The full module over
F2[U] has six operation families; only two carry U power zero, so they are
the whole operation table of HFK-hat:

    m(a, rho_12^i, rho_1) = b_{2p-i-2}                0 <= i <= p-2
    m(b_k, rho_2, rho_12^i, rho_1) = b_{k-i-1}        p+1 <= k <= 2p-2, 0 <= i <= k-1-p

No hat operation consumes rho_3, rho_23 or rho_123.  ``family`` states both
rules once, and the gradings are two affine families in the index:

    gr(b_i)         = ( 1/2; i-1/2, -1/2; i-p)     1 <= i <= p-1
    gr(b_{2p-i-2})  = (-1/2; i+1/2, -1/2; 0)       0 <= i <= p-2

with gr(a) the identity.  The module holds only p and the left normalizer
g: a grading is formed from its closed form by position when read, and a
name only where a record, an operation or an error message needs one, so
building the module does no work that grows with p.  The tensor product
walks the rules chord by chord; the explicit table (about p^2/2
operations, p^3/6 chord letters) is derived only when ``finite_operations``
is read.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .gradings import GradingElement

#: chords a hat operation starts with, by the idempotent its source pairs with;
#: then come rho_12^i and a closing rho_1
CHORD_PREFIX = {"i0": (), "i1": ("2",)}


class AOperation(NamedTuple):
    """m(source, inputs...) = target, with U power zero."""

    source: str
    inputs: tuple[str, ...]
    target: str


class Names(Sequence):
    """The names of the pattern generators at a range of positions, a at 0
    and b_k at k, each formed when read."""

    __slots__ = ("positions",)

    def __init__(self, positions: range):
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Names(self.positions[k])
        j = self.positions[k]
        return f"b{j}" if j else "a"

    def __iter__(self) -> Iterator[str]:
        return (f"b{j}" if j else "a" for j in self.positions)


class TypeAModule(NamedTuple):
    p: int
    #: left normalizer of the coset gradings
    g: GradingElement

    @property
    def generators(self) -> Names:
        """a, b_1 .. b_{2p-2}."""
        return Names(range(2 * self.p - 1))

    def pairs_with(self, name: str) -> str:
        """Idempotent class of complement generators this generator pairs with."""
        return "i0" if name == "a" else "i1"

    def group(self, idempotent: str) -> Names:
        """The generators pairing with idempotent, in A order: a for i0, b_1 .. b_{2p-2} for i1."""
        return Names(range(1) if idempotent == "i0" else range(1, 2 * self.p - 1))

    def families(self, idempotent: str) -> tuple[range, ...]:
        """The group positions of each grading family: a alone, then
        b_1 .. b_{p-1} and b_p .. b_{2p-2}.  Within a family every doubled
        slot of the grading is affine in the position."""
        if idempotent == "i0":
            return (range(1),)
        return range(self.p - 1), range(self.p - 1, 2 * self.p - 2)

    def grading(self, idempotent: str, k: int) -> GradingElement:
        """The grading of the group's generator at position k, from its closed form."""
        if idempotent == "i0":
            return GradingElement(0, 0, 0, 0)
        p = self.p
        if k < p - 1:  # b_i with i = k + 1
            return GradingElement(1, 2 * k + 1, -1, 2 * (k + 1 - p))
        return GradingElement(-1, 4 * p - 5 - 2 * k, -1, 0)  # b_{2p-i-2} with i = 2p - 3 - k

    def family(self, idempotent: str, i: int) -> list[tuple[int, int]]:
        """(source, target) of every hat operation with chords CHORD_PREFIX[idempotent] rho_12^i rho_1,
        each as its position in the group of its idempotent: a is 0, b_k is k - 1."""
        p = self.p
        if idempotent == "i0":
            return [(0, 2 * p - i - 3)] if i <= p - 2 else []
        return [(k - 1, k - i - 2) for k in range(p + 1 + i, 2 * p - 1)]

    @property
    def finite_operations(self) -> Iterator[AOperation]:
        """Both U = 0 families spelled out, derived afresh on every read."""
        bs = self.group("i1")
        for idempotent, prefix in CHORD_PREFIX.items():
            sources = self.group(idempotent)
            for i in range(self.p - 1):
                for source, target in self.family(idempotent, i):
                    yield AOperation(sources[source], prefix + ("12",) * i + ("1",), bs[target])


def build_typea_minus(p: int) -> TypeAModule:
    """Instantiate the U = 0 part of the pattern module for winding number p > 1."""
    if p <= 1:
        raise ValueError(f"pattern requires p > 1, got {p}")
    return TypeAModule(p=p, g=GradingElement(-1, 0, 2, 2 * p))


def hat_operations(module: TypeAModule) -> dict[tuple[str, tuple[str, ...]], str]:
    """Operation table keyed by (source, chord label sequence); O(p^3) chord letters."""
    return {(op.source, op.inputs): op.target for op in module.finite_operations}
