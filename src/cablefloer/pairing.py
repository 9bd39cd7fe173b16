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

A tensor grading therefore depends only on the A generator, the idempotent
and the grading of the complement generator, so each distinct (idempotent,
D grading) row is built once and shared: all squares at one level carry the
same gradings (the box tensor product is additive over those summands), and
so do the x1 and x3 corners of every square.  A new row needs no group
arithmetic per generator either: with the A generator and the D grading's b
slot fixed (the doubled b slot is -1, 0 or 1), the power of h is fixed and
every later step of normalize_double_coset(gr(a) * x) is linear in x's
doubled (a, c, d) slots.  One normalization per (A generator, b slot), at
the first row with that b slot, gives that affine map's integer constants,
and each row entry is two integer dot products plus the group law's parity
checks.  The complex is columnar: each complement generator points at its
shared row, bigrading counts are rows times multiplicities, and a
TensorGenerator record is built only when someone reads it.  The view still
has every generator, in order, for the benchmark's generator count and the
selfcheck's closed-form comparison.

The differential reads only edges and idempotents, and every square has
the same corners and edges, so one square's arrows, taken relative to its
first generator, are the arrows of every square at every level.  The
pairing walks the staircase, the chain and the first square, checks that
each later square is that template relabelled, and shifts the template to
every square; homology.reduce_complex cancels the template once per run.
The closed-form grading tables that cross-check this group arithmetic live
in invariants.py with the other pipeline-independent oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

from .gradings import GradingElement, GradingError, affine_normalization, normalize_double_coset
from .type_a import CHORD_PREFIX, TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import TypeDModule

# A shared row: the (N, A', alexander, maslov) of each A generator of one
# idempotent group, in A order
Row = tuple[tuple[int, int, int, int], ...]


class ComplexError(RuntimeError):
    """Structural failure: a mis-graded arrow, d^2 != 0, or a square that is
    not the template relabelled."""


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
    # the first square's arrows relative to its first generator, and
    # (first generator of the level's first square, c_t) per square level:
    # reduce_complex reads the arrows from the first square on through these
    template: tuple[tuple[int, int], ...] = ()
    levels: tuple[tuple[int, int], ...] = ()

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


def _shared_rows(A: TypeAModule, D: TypeDModule, c: int, by_idempotent: dict[str, tuple[str, ...]]
                 ) -> tuple[list[tuple[str, ...]], list[Row], list[tuple[Row, int]]]:
    """Per complement generator in D order, its A generators and its row; and
    each distinct row with its multiplicity.

    With D.h, A.g and c fixed, a tensor grading depends only on the A
    generator, the idempotent and the D grading, so the row of an
    (idempotent, D grading) key is built once and reused: squares at one
    level share their rows, and so do the x1 and x3 corners of every square.
    The idempotent belongs in the key because i0 and i1 rows run over
    different A generators.  A row is two integer dot products per A
    generator, with the affine constants of each (A generator, b slot)
    normalized once.
    """
    # (idempotent, b slot) -> c parity of its anchor, constants per A generator
    affine: dict[tuple[str, int], tuple[int, list]] = {}
    counted: dict[tuple[str, GradingElement], list] = {}  # key -> [row, multiplicity]
    groups, row_of = [], []
    for d_gen in D.generators:
        idempotent, x = d_gen.idempotent, d_gen.grading
        key = (idempotent, x)  # hashed once: GradingElement hashes in Python
        group = by_idempotent.get(idempotent, ())
        entry = counted.get(key)
        if entry is None:
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
            entry = counted[key] = [tuple(values), 0]
        entry[1] += 1
        groups.append(group)
        row_of.append(entry[0])
    return groups, row_of, [(row, count) for row, count in counted.values()]


def tensor_gradings(A: TypeAModule, D: TypeDModule, c: int) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    """(N, A', alexander, maslov) for every tensor generator, complement-major order."""
    groups, row_of, _ = _shared_rows(A, D, c, _by_idempotent(A))
    return {(a_name, d_gen.name): value
            for d_gen, group, row in zip(D.generators, groups, row_of) for a_name, value in zip(group, row)}


def _one_square(D: TypeDModule) -> tuple[TypeDModule, list[int], list[tuple[int, int]]]:
    """D cut down to the staircase, the chain and the first square; the
    complement index of each square's x1; and (index of the level's first
    x1, c_t) per square level.

    build_typed emits the squares last, each from its x1 corner on.  Every
    later square must be the first one relabelled: the same corner kinds and
    idempotents, the corner gradings of the first square at its level, and
    D edges that are the first square's between the corresponding corners,
    with no edge leaving a square.  Anything else raises ComplexError.
    """
    gens = D.generators
    firsts = [j for j, g in enumerate(gens) if g.level is not None and g.kind == "x" and g.index == 1]
    if not firsts:
        return D, [], []
    ends = firsts[1:] + [len(gens)]  # the last square runs to the end, so nothing may follow it
    shape = [(g.kind, g.index, g.idempotent) for g in gens[firsts[0]:ends[0]]]
    levels: dict[int, list] = {}  # level -> [its first x1, that square's corner gradings, c_t]
    square_of: dict[str, tuple[int, int]] = {}  # corner name -> (square, corner)
    for k, (j, end) in enumerate(zip(firsts, ends)):
        square = gens[j:end]
        gradings = [g.grading for g in square]
        level = levels.setdefault(square[0].level, [j, gradings, 0])
        if [(g.kind, g.index, g.idempotent) for g in square] != shape or gradings != level[1]:
            raise ComplexError(f"the square at complement index {j} is not the template relabelled: "
                               f"its corners differ")
        level[2] += 1
        square_of.update((g.name, (k, corner)) for corner, g in enumerate(square))
    kept, relabelled = [], [[] for _ in firsts]  # edges walked; (corner, label, corner) per square
    for edge in D.edges:
        src, tgt = square_of.get(edge.source), square_of.get(edge.target)
        if src is None and tgt is None:
            kept.append(edge)
        elif src is None or tgt is None or src[0] != tgt[0]:
            raise ComplexError(f"D edge {edge.source} -{edge.label}-> {edge.target} leaves a square")
        else:
            relabelled[src[0]].append((src[1], edge.label, tgt[1]))
            if src[0] == 0:
                kept.append(edge)
    template = sorted(relabelled[0])
    for j, edges in zip(firsts, relabelled):
        if sorted(edges) != template:
            raise ComplexError(f"the square at complement index {j} is not the template relabelled: "
                               f"its D edges differ")
    cut = replace(D, generators=gens[:ends[0]], edges=tuple(kept))
    return cut, firsts, [(j, count) for j, _, count in levels.values()]


def pair_modules(A: TypeAModule, D: TypeDModule, l: int, n: int) -> BigradedComplex:
    """Assemble the bigraded complex of the cable from the shared rows.

    No per-generator record or index is built: generators is a view over
    (complement generator, its A generators, its row, start offset), the
    index of a*d is the start of d plus the position of a in its idempotent
    group, and the bigrading counts are each distinct row times its
    multiplicity.  The differential walks the staircase, the chain and the
    first square; every later square gets the first square's arrows
    shifted by its start, and since squares come last the arrows stay
    sorted.
    """
    by_idempotent = _by_idempotent(A)
    groups, row_of, counted = _shared_rows(A, D, shift_constant(l, A.p, n), by_idempotent)
    generators = TensorGenerators(tuple(d_gen.name for d_gen in D.generators), tuple(groups), tuple(row_of))
    cut, firsts, levels = _one_square(D)
    start = dict(zip(generators.d_names, generators.starts))
    position = {a_name: k for group in by_idempotent.values() for k, a_name in enumerate(group)}
    arrows = sorted((start[d_src] + position[a_src], start[d_tgt] + position[a_tgt])
                    for (a_src, d_src), (a_tgt, d_tgt) in tensor_differential(A, cut))
    template: tuple[tuple[int, int], ...] = ()
    if firsts:
        base = generators.starts[firsts[0]]
        template = tuple((src - base, tgt - base) for src, tgt in arrows[bisect_left(arrows, (base,)):])
        arrows.extend((first + src, first + tgt)
                      for first in map(generators.starts.__getitem__, firsts[1:]) for src, tgt in template)
    bigradings: dict[tuple[int, int], int] = {}
    for row, count in counted:
        for _, _, alexander, maslov in row:
            bigradings[alexander, maslov] = bigradings.get((alexander, maslov), 0) + count
    return BigradedComplex(generators=generators, arrows=tuple(arrows), bigradings=bigradings,
                           template=template, levels=tuple((generators.starts[j], count) for j, count in levels))
