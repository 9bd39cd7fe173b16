"""Box tensor product of the pattern and complement modules.

Generators pair a with i0 generators and b_k with i1 generators.  An arrow
a1*d1 -> a2*d2 appears once per parity of matches between directed label
paths d1 -> ... -> d2 in the complement module and hat operations on a1
carrying the same chord sequence.  Every hat operation reads its chord
prefix (nothing for a, rho_2 for b_k), then rho_12^i, then rho_1, so the
differential is one walk per complement generator along shared prefixes
rather than one path match per (generator, operation) pair.  Bigradings come
from the grading group: gr(x*y) = gr(x)gr(y) normalized to (N, A'), then
A = A' + c and M = N + 2A with the shift constant c = l*p - n*p*(p-1)/2.

The complement module stores one square per level with its count c_t.  The
box tensor product is additive over direct summands, so each level's c_t
squares pair to c_t copies of that square's part of the complex: the
generator view lists it c_t times in a row, each copy under the stored
square's D names, and the arrows of the other copies are the first copy's
shifted by whole squares.  No output names a copy.  A tensor grading
depends only on the A generator, the idempotent and the grading of the
complement generator, and a row needs no group arithmetic per generator:
with the A generator and the D grading's b slot fixed (the doubled b slot is
-1, 0 or 1), the power of h is fixed and every later step of
normalize_double_coset(gr(a) * x) is linear in x's doubled (a, c, d) slots.
One normalization per (A generator, b slot), at the first row with that b
slot, gives that affine map's integer constants, and each row entry is two
integer dot products plus the group law's parity checks.  The complex is
columnar: each complement generator points at its row, bigrading counts are
rows times copies, and a TensorGenerator record is built only when someone
reads it.  The view still has every generator, in order, for the benchmark's
generator count and the selfcheck's closed-form comparison, and the arrows
stay whole and sorted; homology.reduce_complex cancels each level's first
copy and scales its kills by c_t.

The closed-form grading tables that cross-check this group arithmetic live
in invariants.py with the other pipeline-independent oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import NamedTuple

from .gradings import GradingElement, GradingError, affine_normalization, normalize_double_coset
from .type_a import CHORD_PREFIX, TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import TypeDModule

# A row: the (N, A', alexander, maslov) of each A generator of one
# idempotent group, in A order
Row = tuple[tuple[int, int, int, int], ...]


class ComplexError(RuntimeError):
    """Structural failure: a mis-graded arrow, d^2 != 0, or cancellation
    killing more generators of a bigrading than it counts."""


class TensorGenerator(NamedTuple):
    a_side: str
    d_side: str
    N: int
    Aprime: int
    alexander: int
    maslov: int

    @property
    def name(self) -> str:
        return f"{self.a_side} {self.d_side}"


class TensorGenerators(Sequence):
    """Read-only view of the tensor generators in complement-major order.

    Complement generator j pairs with the A generators a_names[j] and owns
    the indices starts[j] .. starts[j] + len(a_names[j]) - 1; the k-th of
    them reads its gradings at rows[j][k].  A record is built each time an
    index is read.
    """

    def __init__(self, d_names: tuple[str, ...], a_names: tuple[tuple[str, ...], ...],
                 rows: tuple[Row, ...]):
        self.d_names = d_names
        self.a_names = a_names
        self.rows = rows
        self.starts = list(accumulate(map(len, a_names), initial=0))
        self._len = self.starts.pop()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> TensorGenerator:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("tensor generator index out of range")
        j = bisect_right(self.starts, i) - 1
        k = i - self.starts[j]
        return TensorGenerator._make((self.a_names[j][k], self.d_names[j]) + self.rows[j][k])

    def __iter__(self):
        for d_name, a_names, row in zip(self.d_names, self.a_names, self.rows):
            for a_name, value in zip(a_names, row):
                yield TensorGenerator._make((a_name, d_name) + value)


@dataclass(frozen=True)
class BigradedComplex:
    generators: Sequence[TensorGenerator]
    arrows: tuple[tuple[int, int], ...]  # (source index, target index)
    # generator count per (alexander, maslov); counted over generators when not given
    bigradings: Mapping[tuple[int, int], int] | None = None
    # (start, stop, c_t) per square level: arrows[start:stop] are the arrows
    # of the level's first copy, and its other copies' arrows follow them
    levels: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.bigradings is None:
            object.__setattr__(self, "bigradings",
                               dict(Counter((g.alexander, g.maslov) for g in self.generators)))


def shift_constant(l: int, p: int, n: int) -> int:
    """Alexander-grading shift c = l*p - n*p*(p-1)/2."""
    return l * p - n * p * (p - 1) // 2


def _by_idempotent(A: TypeAModule) -> dict[str, tuple[str, ...]]:
    """A generators by the complement idempotent they pair with, in A order."""
    by_idempotent: dict[str, list[str]] = {}
    for a_name in A.generators:
        by_idempotent.setdefault(A.pairs_with(a_name), []).append(a_name)
    return {idempotent: tuple(group) for idempotent, group in by_idempotent.items()}


def tensor_differential(A: TypeAModule, D: TypeDModule) -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """Arrows from walking the complement module along the hat-operation chords.

    From each complement generator d the walk keeps a frontier of the nodes
    reached by an odd number of label paths CHORD_PREFIX rho_12^i; every D_1
    edge out of it closes the operations of family i, and the frontier then
    steps along D_12.  Distinct i give distinct A-side targets, so frontier
    parity is path parity and coincident matches cancel mod 2.  The walk
    stops when the frontier empties or the families run out (i <= p-2), which
    also bounds the D_12 self-loop of the zero-framed unknot at O(p) steps;
    no hat operation consumes rho_3, rho_23 or rho_123.
    """
    step: dict[str, dict[str, list[str]]] = {"1": {}, "2": {}, "12": {}}
    for edge in D.edges:
        if edge.label in step:
            step[edge.label].setdefault(edge.source, []).append(edge.target)

    def advance(frontier: list[str], label: str) -> list[str]:
        """Nodes one `label` edge past the frontier, reached an odd number of times."""
        parity: dict[str, int] = {}
        for node in frontier:
            for target in step[label].get(node, ()):
                parity[target] = parity.get(target, 0) ^ 1
        return [node for node, odd in parity.items() if odd]

    arrows = []
    for d_gen in D.generators:
        d_name, idempotent = d_gen.name, d_gen.idempotent
        frontier = [d_name]
        for label in CHORD_PREFIX[idempotent]:
            frontier = advance(frontier, label)
        for i in range(A.p - 1):
            if not frontier:
                break
            hits = advance(frontier, "1")
            if hits:
                for a_src, a_tgt in A.family(idempotent, i):
                    arrows.extend(((a_src, d_name), (a_tgt, d_tgt)) for d_tgt in hits)
            frontier = advance(frontier, "12")
    return arrows


def _refusal(y: GradingElement, x: GradingElement) -> Exception:
    """The group law's error for a y * x that does not normalize: an odd
    determinant term fails the product, before any normalization check."""
    if (y.b2 * x.c2 - y.c2 * x.b2) % 2:
        return ArithmeticError(f"determinant term of {y} * {x} is not a half-integer")
    return GradingError(f"{y} * {x} does not normalize to integers")


def _rows(A: TypeAModule, D: TypeDModule, c: int, by_idempotent: dict[str, tuple[str, ...]]
          ) -> tuple[list[tuple[str, ...]], list[Row]]:
    """Per complement generator in D order, its A generators and its row.

    With D.h, A.g and c fixed, a row is two integer dot products per A
    generator, with the affine constants of each (A generator, b slot)
    normalized once.
    """
    # (idempotent, b slot) -> c parity of its anchor, constants per A generator
    affine: dict[tuple[str, int], tuple[int, list]] = {}
    groups, rows = [], []
    for d_gen in D.generators:
        idempotent, x = d_gen.idempotent, d_gen.grading
        group = by_idempotent.get(idempotent, ())
        slot = affine.get((idempotent, x.b2))
        if slot is None:  # the first row of this b slot anchors its maps
            slot = affine[idempotent, x.b2] = (x.c2 % 2, [
                affine_normalization(A.gradings[a_name], x, A.g, D.h, normalize_double_coset)
                for a_name in group])
        c_parity, maps = slot
        a2, c2, d2, parity = 2 * x.a2, x.c2, 2 * x.d2, x.c2 % 2
        values = []
        for a_name, (n0, nc, m0, mc) in zip(group, maps):
            n, m = n0 + a2 + nc * c2, m0 + d2 + mc * c2
            if parity != c_parity or n % 4 or m % 4:
                raise _refusal(A.gradings[a_name], x)
            N, Aprime = n // 4, m // 4
            alexander = Aprime + c
            values.append((N, Aprime, alexander, N + 2 * alexander))
        groups.append(group)
        rows.append(tuple(values))
    return groups, rows


def tensor_gradings(A: TypeAModule, D: TypeDModule, c: int) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    """(N, A', alexander, maslov) for every tensor generator, complement-major order."""
    groups, rows = _rows(A, D, c, _by_idempotent(A))
    return {(a_name, d_gen.name): value
            for d_gen, group, row in zip(D.generators, groups, rows) for a_name, value in zip(group, row)}


def pair_modules(A: TypeAModule, D: TypeDModule, l: int, n: int) -> BigradedComplex:
    """Assemble the bigraded complex of the cable from the rows.

    No per-generator record or index is built: generators is a view over
    (complement generator, its A generators, its row, start offset) that
    lists each level's square D.copies[t] times in a row, the index of a*d
    in the first copy is the start of d plus the position of a in its
    idempotent group, and the bigrading counts are each row times its
    copies.  The differential walks D once; each level's first-copy arrows
    are followed by the same arrows shifted by whole squares for its other
    copies, and since squares come last the arrows stay sorted.
    """
    by_idempotent = _by_idempotent(A)
    groups, rows = _rows(A, D, shift_constant(l, A.p, n), by_idempotent)
    gens = D.generators
    layout: list[int] = []  # D index of each complement generator in the view
    first = [0] * len(gens)  # view position of each D generator's first copy
    squares = []  # (view position of the first copy, of its end, c_t) per level
    for level, run in groupby(range(len(gens)), key=lambda j: gens[j].level):
        run, count = list(run), D.copies.get(level, 1)
        for position, j in enumerate(run, len(layout)):
            first[j] = position
        if level is not None:
            squares.append((len(layout), len(layout) + len(run), count))
        layout += run * count
    generators = TensorGenerators(tuple(gens[j].name for j in layout), tuple(groups[j] for j in layout),
                                  tuple(rows[j] for j in layout))
    starts = generators.starts + [len(generators)]
    start = {d_gen.name: starts[k] for d_gen, k in zip(gens, first)}
    position = {a_name: k for group in by_idempotent.values() for k, a_name in enumerate(group)}
    arrows = sorted((start[d_src] + position[a_src], start[d_tgt] + position[a_tgt])
                    for (a_src, d_src), (a_tgt, d_tgt) in tensor_differential(A, D))
    whole = arrows[:bisect_left(arrows, (starts[squares[0][0]],))] if squares else arrows
    levels = []
    for begin, end, count in squares:
        lo, size = starts[begin], starts[end] - starts[begin]
        own = arrows[bisect_left(arrows, (lo,)):bisect_left(arrows, (lo + size,))]
        levels.append((len(whole), len(whole) + len(own), count))
        whole += own
        whole.extend((src + k * size, tgt + k * size) for k in range(1, count) for src, tgt in own)
    bigradings: dict[tuple[int, int], int] = {}
    for d_gen, row in zip(gens, rows):
        count = D.copies.get(d_gen.level, 1)
        for _, _, alexander, maslov in row:
            bigradings[alexander, maslov] = bigradings.get((alexander, maslov), 0) + count
    return BigradedComplex(generators=generators, arrows=tuple(whole), bigradings=bigradings,
                           levels=tuple(levels))
