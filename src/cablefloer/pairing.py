"""Box tensor product of the pattern and complement modules.

Generators pair a with i0 generators and b_k with i1 generators.  An arrow
a1*d1 -> a2*d2 appears for each hat operation on a1 whose chord sequence is
a label path d1 -> ... -> d2 in the complement module.  Every hat operation
reads its chord prefix (nothing for a, rho_2 for b_k), then rho_12^i, then
rho_1, and every complement generator has at most one edge of each of those
labels, so each chord sequence leads along at most one path and the
differential is one walk per complement generator along shared prefixes.
The arrows form a matching, no generator on two of them, which
homology.reduce_complex checks.  Bigradings come from the grading group:
gr(x*y) = gr(x)gr(y) normalized to (N, A'), then A = A' + c and M = N + 2A
with the shift constant c = l*p - n*p*(p-1)/2.

The complement module stores one square per level with its count c_t.  The
box tensor product is additive over direct summands, so each level's c_t
squares pair to c_t copies of that square's part of the complex.  The
complex is built on the stored module as it is: the differential walks it
once, so the arrows join first copies only, and the generator view lists
each complement generator's A group c_t times in a row, every copy under the
stored D name, so it still counts every tensor generator.  No output names
a copy, and the view is the only place that knows the copy layout:
homology.reduce_complex reads each arrow end's bigrading and copy count
from the view's cell.  A tensor grading depends only on the A generator, the
idempotent and the grading of the complement generator, and a row needs no
group arithmetic per generator: with the A generator and the D grading's b
slot fixed (the doubled b slot is -1, 0 or 1), the power of h is fixed and
every later step of normalize_double_coset(gr(a) * x) is linear in x's
doubled (a, c, d) slots.  One normalization per (A generator, b slot), at
the first row with that b slot, gives that affine map's integer constants,
and each row entry is two integer dot products plus the group law's parity
checks.  The complex is columnar: each complement generator points at its
row, bigrading counts are rows times copies, and a TensorGenerator record is
built only when someone reads it.

The unstable chain's interior (type_d.MuChain) has no edge a hat operation
reads, so it pairs into no arrow, and its gradings step by a constant along
the chain; the affine maps then step every b_k's row by a constant too.  So
the chain is one slot of the view, listed like a square's copies but with
its r-th repetition named mu<index + r> and read at its first row plus r
step rows, and its bigradings are one arithmetic progression per b_k.  No
record, row or name is built per chain generator, and no chain cell is
counted: at every length the progressions stay apart in
BigradedComplex.progressions, homology.reduce_complex hands them to the rank
table as its chain, and the checks in invariants.py read them one
progression at a time.

The closed-form grading tables that cross-check this group arithmetic live
in invariants.py with the other pipeline-independent oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

from .gradings import GradingElement, GradingError, affine_normalization, normalize_double_coset
from .type_a import CHORD_PREFIX, TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import TypeDModule

# A row: the (N, A', alexander, maslov) of each A generator of one
# idempotent group, in A order
Row = tuple[tuple[int, int, int, int], ...]


class ComplexError(RuntimeError):
    """Structural failure: a complement generator with two edges of one
    label, a mis-graded arrow, a generator on two arrows, or cancellation
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


class ChainSlot(NamedTuple):
    """Where the view lists the unstable chain's interior and how it steps."""

    slot: int  # its complement slot
    index: int  # mu subscript of repetition 0
    steps: Row  # per A generator, the change of its row entry from one repetition to the next


class Progression(NamedTuple):
    """The bigradings (alexander + r*alexander_step, maslov + r*maslov_step)
    for 0 <= r < length: one b_k's cells along the unstable chain."""

    alexander: int
    maslov: int
    alexander_step: int
    maslov_step: int
    length: int

    def cells(self):
        """Its (alexander, maslov) cells in chain order."""
        a, m, da, dm, length = self
        return zip(range(a, a + da * length, da) if da else repeat(a, length),
                   range(m, m + dm * length, dm) if dm else repeat(m, length))


class TensorGenerators(Sequence):
    """Read-only view of the tensor generators in complement-major order.

    Complement slot j pairs with the A generators a_names[j] and its A group
    is listed copies[j] times in a row from starts[j] on.  Off the chain,
    slot j is the D generator d_names[j], standing for copies[j] isomorphic
    generators (its square's count, 1 off the squares), and every copy reads
    its gradings at rows[j].  The chain's slot lists one repetition per
    chain generator: repetition r is mu<index + r> and reads rows[j] plus r
    times its step row.  Repetition 0 of a*d sits at starts[j] plus the
    position of a in the group.  A record is built each time an index is
    read; cell(i) reads generator i's bigrading and copy count without one.
    It is the only generator sequence a BigradedComplex holds.
    """

    def __init__(self, d_names: tuple[str, ...], a_names: tuple[tuple[str, ...], ...],
                 rows: tuple[Row, ...], copies: tuple[int, ...], chain: ChainSlot | None = None):
        self.d_names = d_names
        self.a_names = a_names
        self.rows = rows
        self.copies = copies
        self.chain = chain
        self._chain_slot = -1 if chain is None else chain.slot
        self.starts = list(accumulate((len(group) * count for group, count in zip(a_names, copies)),
                                      initial=0))
        self._len = self.starts.pop()

    def __len__(self) -> int:
        return self._len

    def _locate(self, i: int) -> tuple[int, int, int]:
        """(slot j, repetition r, position k in its A group) of index i."""
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("tensor generator index out of range")
        j = bisect_right(self.starts, i) - 1
        offset, size = i - self.starts[j], len(self.a_names[j])
        return j, offset // size, offset % size

    def __getitem__(self, i: int) -> TensorGenerator:
        j, r, k = self._locate(i)
        if j == self._chain_slot:
            values = (v + r * step for v, step in zip(self.rows[j][k], self.chain.steps[k]))
            return TensorGenerator(self.a_names[j][k], f"mu{self.chain.index + r}", *values)
        return TensorGenerator._make((self.a_names[j][k], self.d_names[j]) + self.rows[j][k])

    def cell(self, i: int) -> tuple[int, int, int]:
        """(alexander, maslov, copies) of generator i: its bigrading and how
        many copies of it the view lists, without building its record."""
        j, r, k = self._locate(i)
        _, _, alexander, maslov = self.rows[j][k]
        if j == self._chain_slot:
            _, _, alexander_step, maslov_step = self.chain.steps[k]
            return alexander + r * alexander_step, maslov + r * maslov_step, 1
        return alexander, maslov, self.copies[j]


@dataclass(frozen=True)
class BigradedComplex:
    """The paired complex: the generator view, the arrows on its copy-0
    generators and the generator count per bigrading, copies included, of
    every generator off the chain.  The chain's cells are the progressions,
    one per b_k, which bigradings does not count, and no arrow touches them."""

    generators: TensorGenerators
    arrows: tuple[tuple[int, int], ...]  # (source index, target index)
    bigradings: Mapping[tuple[int, int], int]  # positive count per (alexander, maslov), chain excluded
    progressions: tuple[Progression, ...] = ()  # the chain's cells, counted nowhere else


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

    From each complement generator d the walk follows the label path
    CHORD_PREFIX rho_12^i one node at a time; the D_1 edge out of that node,
    if any, closes the operations of family i, and the walk then steps along
    D_12.  It stops when the path ends or the families run out (i <= p-2),
    which also bounds the D_12 self-loop of the zero-framed unknot at O(p)
    steps; no hat operation consumes rho_3, rho_23 or rho_123.  So the walk
    reads the stored generators only: the chain's interior has no D_1, D_2
    or D_12 edge, and only those edges lead a path on.  A complement
    generator with two D_1, D_2 or D_12 edges raises ComplexError.
    """
    step: dict[str, dict[str, str]] = {"1": {}, "2": {}, "12": {}}
    for source, label, target in D.edges:
        out = step.get(label)
        if out is None:
            continue
        if source in out:
            raise ComplexError(f"complement generator {source} has two D_{label} edges")
        out[source] = target

    arrows = []
    for d_gen in D.generators:
        d_name, idempotent = d_gen.name, d_gen.idempotent
        node = d_name
        for label in CHORD_PREFIX[idempotent]:
            node = step[label].get(node)
        for i in range(A.p - 1):
            if node is None:
                break
            hit = step["1"].get(node)
            if hit is not None:
                arrows.extend(((a_src, d_name), (a_tgt, hit)) for a_src, a_tgt in A.family(idempotent, i))
            node = step["12"].get(node)
    return arrows


def _refusal(y: GradingElement, x: GradingElement) -> Exception:
    """The group law's error for a y * x that does not normalize: an odd
    determinant term fails the product, before any normalization check."""
    if (y.b2 * x.c2 - y.c2 * x.b2) % 2:
        return ArithmeticError(f"determinant term of {y} * {x} is not a half-integer")
    return GradingError(f"{y} * {x} does not normalize to integers")


def _rows(A: TypeAModule, D: TypeDModule, c: int, by_idempotent: dict[str, tuple[str, ...]]
          ) -> tuple[list[tuple[str, ...]], list[Row], tuple[Row, Row] | None]:
    """Per complement generator in D order, its A generators and its row,
    and the chain's first row and step row (None without a chain).

    With D.h, A.g and c fixed, a row is two integer dot products per A
    generator, with the affine constants of each (A generator, b slot)
    normalized once.  The chain is met at its place in D order, so it
    anchors a b slot and meets the group law's checks where its generators
    would.  Its r-th grading is its first plus r*step in the doubled a and
    c slots, so each entry's n and m move by fixed steps along the chain and
    its c parity by step's parity.  Hence the first two entries decide them
    all: when both pass, step is even and the n, m steps are multiples of
    4, so every entry passes, and otherwise the first failure is among
    them.  The step row is the second row minus the first.  On a built
    chain step is 2 or -2, and A.g's odd a2 and even d2 make the n step
    step*(2 + 2*y.b2) and the m step -step*g.d2 multiples of 4, so there
    the first entry alone decides.
    """
    # (idempotent, b slot) -> c parity of its anchor, constants per A generator
    affine: dict[tuple[str, int], tuple[int, list]] = {}

    def row(idempotent: str, x: GradingElement) -> Row:
        group = by_idempotent.get(idempotent, ())
        slot = affine.get((idempotent, x.b2))
        if slot is None:  # the first row of this b slot anchors its maps
            ys = [A.gradings[a_name] for a_name in group]
            slot = affine[idempotent, x.b2] = (x.c2 % 2, [
                affine_normalization(y, x, A.g, *normalize_double_coset(y * x, A.g, D.h)) for y in ys])
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
        return tuple(values)

    chain, progression = D.chain, None
    order = list(D.generators)
    if chain is not None:
        order.insert(chain.at, chain)
    groups, rows = [], []
    for d_gen in order:
        if d_gen is chain:
            x = chain.grading
            first = row("i1", x)
            second = first if chain.length == 1 else row(
                "i1", GradingElement(x.a2 + chain.step, x.b2, x.c2 + chain.step, x.d2))
            progression = first, tuple(tuple(b - a for a, b in zip(u, v)) for u, v in zip(first, second))
        else:
            groups.append(by_idempotent.get(d_gen.idempotent, ()))
            rows.append(row(d_gen.idempotent, d_gen.grading))
    return groups, rows, progression


def tensor_gradings(A: TypeAModule, D: TypeDModule, c: int) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    """(N, A', alexander, maslov) for every tensor generator on a stored D
    generator, complement-major order; the chain's interior is not listed."""
    groups, rows, _ = _rows(A, D, c, _by_idempotent(A))
    return {(a_name, d_gen.name): value
            for d_gen, group, row in zip(D.generators, groups, rows) for a_name, value in zip(group, row)}


def pair_modules(A: TypeAModule, D: TypeDModule, l: int, n: int) -> BigradedComplex:
    """Assemble the bigraded complex of the cable from the rows.

    No per-generator record or index is built: generators is a view over
    (complement generator, its A generators, its row, its copy count) that
    lists each A group D.copies[t] times in a row, the index of a*d is the
    start of d plus the position of a in its idempotent group, and the
    bigrading counts are each row times its copies.  The chain's interior
    is one more slot of the view, and its cells are one arithmetic
    progression of (alexander, maslov) per b_k, exact even where cells
    coincide, kept as those progressions and not counted into bigradings.
    The differential walks D once, so every arrow joins copy-0
    generators; the other copies' arrows are the same arrows, which
    homology.reduce_complex counts through the copy counts of the view's
    cells instead of reading them.
    """
    by_idempotent = _by_idempotent(A)
    groups, rows, progression = _rows(A, D, shift_constant(l, A.p, n), by_idempotent)
    copies = [D.copies.get(d_gen.level, 1) for d_gen in D.generators]
    d_names = [d_gen.name for d_gen in D.generators]
    # a plain dict: the row loop below runs about 1.5x slower on a Counter
    bigradings: dict[tuple[int, int], int] = {}
    for row, count in zip(rows, copies):
        for _, _, alexander, maslov in row:
            bigradings[alexander, maslov] = bigradings.get((alexander, maslov), 0) + count
    chain, progressions = None, ()
    if progression is not None:
        first, steps = progression
        at, length = D.chain.at, D.chain.length
        progressions = tuple(Progression(alexander, maslov, alexander_step, maslov_step, length)
                             for (_, _, alexander, maslov), (_, _, alexander_step, maslov_step)
                             in zip(first, steps))
        d_names.insert(at, f"mu{D.chain.index}")
        groups.insert(at, by_idempotent.get("i1", ()))
        rows.insert(at, first)
        copies.insert(at, length)
        chain = ChainSlot(at, D.chain.index, steps)
    generators = TensorGenerators(tuple(d_names), tuple(groups), tuple(rows), tuple(copies), chain)
    start = dict(zip(d_names, generators.starts))
    position = {a_name: k for group in by_idempotent.values() for k, a_name in enumerate(group)}
    arrows = sorted((start[d_src] + position[a_src], start[d_tgt] + position[a_tgt])
                    for (a_src, d_src), (a_tgt, d_tgt) in tensor_differential(A, D))
    return BigradedComplex(generators=generators, arrows=tuple(arrows), bigradings=bigradings,
                           progressions=progressions)
