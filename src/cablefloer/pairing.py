"""Box tensor product of the pattern and complement modules.

Generators pair a with i0 generators and b_k with i1 generators.  An arrow
a1*d1 -> a2*d2 appears for each hat operation on a1 whose chord sequence is
a label path d1 -> ... -> d2 in the complement module.  Every hat operation
reads its chord prefix (nothing for a, rho_2 for b_k), then rho_12^i, then
rho_1, and every complement generator has at most one edge of each of those
labels, so the differential is one walk along shared prefixes, on D
indices and A positions.  The arrows form a matching, which
homology.reduce_complex checks.  Bigradings come from the grading group:
gr(x*y) = gr(x)gr(y) normalized to (N, A'), then A = A' + c and M = N + 2A
with the shift constant c = l*p - n*p*(p-1)/2.

Slot j of the generator view is D entry j, for every module: an entry
that stands for several generators is one slot listed once per generator
it stands for, so no layer maps indices between the two.  The complement
module stores its squares as one square, at the lowest level t_0, with
the count c_t of every level t.  The box tensor product is additive over
direct summands, and the squares of every level are that square moved by
the shift of the level difference, so the stored square is paired once:
the differential walks its edges once, and its corners are slots that
repeat together once per level, listed c_t times at level t under the
name corner.s<serial>, serial the level's position in ascending order.
Their cells at level t are those at t_0 moved by (t - t_0) times a step
row (see below), and homology.reduce_complex cancels the stored square's
arrows once and places its survivors at every level.

A row is the (alexander, maslov) cell of each A generator paired with one
complement generator; N and A' are derived only where a record is built.
Powers in the grading group are linear, so with the idempotent and the D
grading's b slot fixed, every row is one anchor row moved.  The first row
of each (idempotent, b slot) is the anchor.  The A gradings y_k fall into
grading families affine in k (TypeAModule.families), so along a family
the anchor's alexander is affine and its maslov quadratic in k, with
constant second difference h.c2: the anchor normalizes the first three
y_k of each family and extends it.  A grading that differs from the
anchor's by (da2, dc2, dd2) moves entry k by
(dA, dN + 2dA + y_k.b2*dc2/2), with dA = (2dd2 - g.d2*dc2)/4 and
dN = (2da2 + (b2 - g.a2)*dc2)/4.  The group law refuses it when dc2 is odd
or either quotient is not an integer, whatever k, so one check decides the
row.  That one move rule builds every later row and every step row below.
Rows are tuples of cells, the bigrading keys themselves, so most
counting is one Counter pass.

Moving a square corner of b slot b2 up by dt levels moves its grading by
(dt*(1 + b2), 0, 2dt, 0) in doubled slots, and the pattern's g is
(-1; 0, 1; p), (-1, 0, 2, 2p) doubled, so the move has dc2 = 2dt,
2da2 + (b2 - g.a2)*dc2 = 4dt*(1 + b2) and 2dd2 - g.d2*dc2 = -4p*dt: all
three pass the group law's check for every dt, so once the row at t_0
passes, no level can be refused, and the checks and errors are exactly
those of the stored square.  Entry k moves by dt*(-p, 1 + b2 + y_k.b2 - 2p),
the step row.

The unstable chain's interior is one D entry (type_d.DGenerator with
length > 1) whose gradings step by (step, step, 0) in the doubled a, c
and d slots.  It pairs into no arrow, and every b_k's cell steps by a
constant too, so its slot repeats once per chain generator: repetition r
is mu<index + r>, its first row plus r step rows.  Its cells are one
arithmetic progression per b_k, kept apart in BigradedComplex.progressions
and never counted; the rank table and the checks in invariants.py read
them one progression at a time.  The closed-form grading tables that
cross-check this group arithmetic live in invariants.py.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain as concat, repeat
from typing import NamedTuple

from .gradings import GradingElement, GradingError, normalize_double_coset
from .type_a import TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import TypeDModule, raised

# A row: the (alexander, maslov) cell of each A generator of one idempotent
# group, in A order
Row = tuple[tuple[int, int], ...]


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


class Repeat(NamedTuple):
    """How slots of the generator view repeat together: the chain's one
    slot along the chain, or the square's slots over the levels.

    Repetition r reads each slot's row plus offsets[r] times its steps,
    cell by cell, and lists the slot's A group copy_starts[r + 1] -
    copy_starts[r] times in a row.  offsets[0] is 0, so the first copy of
    repetition 0 is the slot's row as stored.  Repetition r is named by the
    slot's D name raised by r (type_d.raised): mu2 -> mu3 along the chain,
    x1.s0 -> x1.s1 from one level to the next."""

    slots: tuple[int, ...]
    steps: tuple[Row, ...]  # per slot and A generator, the change of its cell per unit of offset
    offsets: Sequence[int]
    copy_starts: Sequence[int]  # the copies listed before each repetition, then their total


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

    Slot j is D entry j, named d_names[j], paired with the A generators
    a_names[j] at the cells rows[j].  A slot of no Repeat is
    listed once, from starts[j] on.  A slot of chain or square lists its
    repetitions one after another, each repetition's copies in a row (see
    Repeat): the unstable chain's interior repeats once per chain
    generator, and the square's corners once per level, all by one layout.
    Copy 0 of repetition 0 of a*d sits at starts[j] plus the position of a
    in the group.  A record, with N = M - 2A and A' = A - c, is built each
    time an index is read; cells_at(spots(indices)) reads bigradings
    without one.  It is the only generator sequence a BigradedComplex
    holds.
    """

    def __init__(self, d_names: tuple[str, ...], a_names: tuple[Sequence[str], ...],
                 rows: tuple[Row, ...], c: int, chain: Repeat | None = None, square: Repeat | None = None):
        self.d_names = d_names
        self.a_names = a_names
        self.rows = rows
        self.c = c
        self.square = square
        # per slot: None, or its steps and the Repeat it belongs to
        self._repeats: list[tuple[Row, Repeat] | None] = [None] * len(rows)
        for rep in (chain, square):
            if rep is not None:
                for j, steps in zip(rep.slots, rep.steps):
                    self._repeats[j] = steps, rep
        self._sizes = [len(row) for row in rows]
        self.starts = list(accumulate((size if rep is None else size * rep[1].copy_starts[-1]
                                       for size, rep in zip(self._sizes, self._repeats)), initial=0))
        self._len = self.starts.pop()

    def __len__(self) -> int:
        return self._len

    def spots(self, indices: Iterable[int]) -> list[tuple[int, int, int]]:
        """(slot, copy, position) of each generator in indices, in one pass:
        its slot, which of the slot's listings of its A group holds it,
        counted over every repetition, and its position in that group."""
        starts, sizes, size = self.starts, self._sizes, self._len
        out = []
        for i in indices:
            if i < 0:
                i += size
            if not 0 <= i < size:
                raise IndexError("tensor generator index out of range")
            j = bisect_right(starts, i) - 1
            copy, k = divmod(i - starts[j], sizes[j])
            out.append((j, copy, k))
        return out

    def index(self, j: int, copy: int, k: int) -> int:
        """The generator at (slot, copy, position): the inverse of spots."""
        return self.starts[j] + copy * self._sizes[j] + k

    def __getitem__(self, i: int) -> TensorGenerator:
        (j, copy, k), = spots = self.spots((i,))
        (alexander, maslov), = self.cells_at(spots)
        d_name, rep = self.d_names[j], self._repeats[j]
        r = 0 if rep is None else bisect_right(rep[1].copy_starts, copy) - 1
        if r:
            d_name = raised(d_name, r)
        return TensorGenerator(self.a_names[j][k], d_name, maslov - 2 * alexander, alexander - self.c,
                               alexander, maslov)

    def cells_at(self, spots: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
        """The (alexander, maslov) bigrading at each (slot, copy, position)
        of spots, without building a record."""
        rows, repeats = self.rows, self._repeats
        out = []
        for j, copy, k in spots:
            cell = rows[j][k]
            rep = repeats[j]
            if rep is not None:
                steps, rep = rep
                offset = rep.offsets[bisect_right(rep.copy_starts, copy) - 1]
                alexander_step, maslov_step = steps[k]
                cell = (cell[0] + offset * alexander_step, cell[1] + offset * maslov_step)
            out.append(cell)
        return out


@dataclass(frozen=True)
class BigradedComplex:
    """The paired complex: the generator view, the arrows on the first copy
    of their slots and the generator count per bigrading of every stored
    generator, each slot's row once.  The other listings are counted
    elsewhere: the chain's cells are the progressions, one per b_k, and the
    square's other listings (generators.square) are placed at every level
    by homology.reduce_complex once its arrows are cancelled.  No arrow
    touches the chain."""

    generators: TensorGenerators
    arrows: tuple[tuple[int, int], ...]  # (source index, target index)
    bigradings: Mapping[tuple[int, int], int]  # positive count per (alexander, maslov) of the stored rows
    progressions: tuple[Progression, ...] = ()  # the chain's cells, counted nowhere else


def shift_constant(l: int, p: int, n: int) -> int:
    """Alexander-grading shift c = l*p - n*p*(p-1)/2."""
    return l * p - n * p * (p - 1) // 2


def tensor_differential(A: TypeAModule, D: TypeDModule) -> list[tuple[int, int, int, int]]:
    """Arrows (d_src, a_pos_src, d_tgt, a_pos_tgt) from walking the
    complement module along the hat-operation chords: D indices, and each
    end's position in the A group of its idempotent (A.family).

    A path starts at an i1 generator's D_2 edge or at an i0 generator with a
    D_1 or D_12 edge, and goes on one rho_12 at a time; the D_1 edge out of
    the node reached, if any, closes the operations of family i.  It stops
    when the path ends, when the families run out (i <= p-2), or at a D_12
    self-loop on a node with no D_1 edge, which would only repeat that node:
    the zero-framed unknot's walk is one step for every p.  The chain's
    interior has no edge, so the walk reads stored generators only; an edge
    of any other label meets no operation and is passed over.  A complement
    generator with two D_1, D_2 or D_12 edges raises ComplexError.
    """
    index = {d_gen.name: j for j, d_gen in enumerate(D.generators)}
    step: dict[str, dict[int, int]] = {"1": {}, "2": {}, "12": {}}
    for source, label, target in D.edges:
        out = step.get(label)
        if out is None:
            continue
        j = index[source]
        if j in out:
            raise ComplexError(f"complement generator {source} has two D_{label} edges")
        out[j] = index[target]

    ones, twos, twelves, gens = step["1"], step["2"], step["12"], D.generators
    starts = [(j, node, "i1") for j, node in twos.items() if gens[j].idempotent == "i1"]
    starts += [(j, j, "i0") for j in {**ones, **twelves} if gens[j].idempotent == "i0"]
    arrows = []
    for j, node, idempotent in starts:
        for i in range(A.p - 1):
            if node is None:
                break
            hit = ones.get(node)
            if hit is not None:
                arrows.extend((j, src, hit, tgt) for src, tgt in A.family(idempotent, i))
            after = twelves.get(node)
            if after == node and hit is None:  # a D_12 self-loop that closes no family
                break
            node = after
    return arrows


def _refusal(y: GradingElement, x: GradingElement) -> Exception:
    """The group law's error for a y * x that does not normalize: an odd
    determinant term fails the product, before any normalization check."""
    if (y.b2 * x.c2 - y.c2 * x.b2) % 2:
        return ArithmeticError(f"determinant term of {y} * {x} is not a half-integer")
    return GradingError(f"{y} * {x} does not normalize to integers")


def _rows(A: TypeAModule, D: TypeDModule, c: int) -> tuple[list[Sequence[str]], list[Row], dict[int, Row]]:
    """Per D entry, its A generators and its row, and, by D index, the step
    row of each entry that repeats: a square corner's per level up, the
    chain entry's per chain generator on.

    The first row of each (idempotent, b slot) is its anchor.  Its cells
    are affine (alexander) and quadratic (maslov) in the position within
    each grading family of A.families, and its failure residues repeat
    with period 2 there, so it normalizes the first three A generators of
    each family, in group order, and extends each family by its constant
    second difference: a refused anchor raises at the same first A
    generator as one normalization per A generator would.  One move rule
    builds everything else.  A grading move (da2, dc2, dd2) at a fixed b
    slot passes or fails one check for the whole row, whose failure is the
    error the group law raises for the group's first A generator, and
    changes every cell as the module docstring says.  A later row is its
    anchor moved, and a grading met before reuses its row.  A square
    corner's step row is the move (1 + b2, 2, 0) of one level, which the
    group law never refuses; the chain entry's is the move (step, step, 0)
    of one chain generator.  The residues are linear in the move, so once
    the chain entry's row passes, its step passes exactly when its second
    generator's row would, and a refused step raises that row's error: the
    chain meets the checks where its generators would.
    """
    g, h, ga2, gd2 = A.g, D.h, A.g.a2, A.g.d2
    groups_of = {idempotent: A.group(idempotent) for idempotent in ("i0", "i1")}
    # idempotent -> (size, first three gradings) of each grading family, and the
    # b slot of every A grading; formed at the idempotent's first anchor
    sampled: dict[str, tuple[list[tuple[int, list[GradingElement]]], tuple[int, ...]]] = {}
    # (idempotent, b slot) -> the anchor's doubled a, c, d slots and its row
    anchors: dict[tuple[str, int], tuple[int, int, int, Row]] = {}
    made: dict[tuple[str, GradingElement], Row] = {}
    # (idempotent, b slot, da2, dc2) -> step row; the square's corners share three
    stepped: dict[tuple[str, int, int, int], Row] = {}

    def sample(idempotent: str) -> tuple[list[tuple[int, list[GradingElement]]], tuple[int, ...]]:
        families, slopes = [], []
        for positions in A.families(idempotent):
            ys = [A.grading(idempotent, k) for k in positions[:3]]
            step = ys[1].b2 - ys[0].b2 if len(ys) > 1 else 1  # any step spans a family of one
            families.append((len(positions), ys))
            slopes.append(range(ys[0].b2, ys[0].b2 + len(positions) * step, step))
        return families, tuple(concat.from_iterable(slopes))

    def anchor_row(idempotent: str, x: GradingElement) -> Row:
        if idempotent not in sampled:
            sampled[idempotent] = sample(idempotent)
        cells: list[tuple[int, int]] = []
        for size, ys in sampled[idempotent][0]:
            first = []
            for y in ys:
                N, Aprime = normalize_double_coset(y * x, g, h)
                first.append((Aprime + c, N + 2 * (Aprime + c)))
            if size <= 3:
                cells += first
                continue
            (a0, m0), (a1, m1), (a2, m2) = first
            da, dm, sa, sm = a1 - a0, m1 - m0, a2 - 2 * a1 + a0, m2 - 2 * m1 + m0
            cells += [(a0 + k * da + k * (k - 1) // 2 * sa, m0 + k * dm + k * (k - 1) // 2 * sm)
                      for k in range(size)]
        return tuple(cells)

    def move(idempotent: str, b2: int, da2: int, dc2: int, dd2: int, x: GradingElement) -> tuple[int, int, int]:
        """(dA, dN + 2dA, dc2/2) of a grading move by (da2, dc2, dd2) at b
        slot b2; the group law's error for the moved grading x if refused."""
        n, m = 2 * da2 + (b2 - ga2) * dc2, 2 * dd2 - gd2 * dc2
        if dc2 % 2 or n % 4 or m % 4:
            raise _refusal(A.grading(idempotent, 0), x)
        da = m // 4
        return da, n // 4 + 2 * da, dc2 // 2

    def row(idempotent: str, x: GradingElement) -> Row:
        a2, b2, c2, d2 = x
        anchor = anchors.get((idempotent, b2))
        if anchor is None:
            cells = anchor_row(idempotent, x)
            anchors[idempotent, b2] = a2, c2, d2, cells
            return cells
        a0, c0, d0, cells = anchor
        da, dm, half = move(idempotent, b2, a2 - a0, c2 - c0, d2 - d0, x)
        return tuple([(a + da, mm + dm + b * half) for (a, mm), b in zip(cells, sampled[idempotent][1])])

    def step_row(idempotent: str, x: GradingElement, da2: int, dc2: int) -> Row:
        key = idempotent, x.b2, da2, dc2
        known = stepped.get(key)
        if known is None:
            da, dm, half = move(idempotent, x.b2, da2, dc2, 0, x._replace(a2=x.a2 + da2, c2=x.c2 + dc2))
            known = stepped[key] = tuple([(da, dm + b * half) for b in sampled[idempotent][1]])
        return known

    groups, rows, steps = [], [], {}
    for j, d_gen in enumerate(D.generators):
        idempotent, x = d_gen.idempotent, d_gen.grading
        known = made.get((idempotent, x))
        if known is None:
            known = made[idempotent, x] = row(idempotent, x)
        groups.append(groups_of[idempotent])
        rows.append(known)
        if d_gen.level is not None:
            steps[j] = step_row(idempotent, x, 1 + x.b2, 2)
        elif d_gen.length > 1:
            steps[j] = step_row(idempotent, x, d_gen.step, d_gen.step)
    return groups, rows, steps


def tensor_gradings(A: TypeAModule, D: TypeDModule, c: int) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    """(N, A', alexander, maslov) for every tensor generator on a D entry,
    complement-major order: the chain entry's first generator and the
    square at its stored level are listed, the chain's later generators
    and the square's other levels are not."""
    groups, rows, _ = _rows(A, D, c)
    return {(a_name, d_gen.name): (maslov - 2 * alexander, alexander - c, alexander, maslov)
            for d_gen, group, row in zip(D.generators, groups, rows)
            for a_name, (alexander, maslov) in zip(group, row)}


def pair_modules(A: TypeAModule, D: TypeDModule, l: int, n: int) -> BigradedComplex:
    """Assemble the bigraded complex of the cable from the rows.

    No per-generator record or index is built: generators is a view over
    (D entry, its A generators, its row, how it repeats), and an arrow
    end's index is its D entry's start plus its A position.  The bigrading
    counts are one Counter pass over every row but the chain entry's, the
    square's at its stored level once.  The square's generators repeat at
    every level of D.copies, offset by the level difference, and the chain
    entry along the chain, kept as progressions; their other listings are
    not counted.  Every arrow joins first copies of the stored generators.
    """
    c = shift_constant(l, A.p, n)
    groups, rows, steps = _rows(A, D, c)
    counted, progressions, chain, square = rows, (), None, None
    for j, d_gen in enumerate(D.generators):
        if d_gen.length > 1:
            first, chain_steps, length = rows[j], steps.pop(j), d_gen.length
            progressions = tuple(Progression(*cell, *step, length) for cell, step in zip(first, chain_steps))
            chain = Repeat((j,), (chain_steps,), range(length), range(length + 1))
            counted = rows[:j] + rows[j + 1:]
    if steps:
        levels = sorted(D.copies)  # the square is stored at the lowest, levels[0]
        square = Repeat(tuple(steps), tuple(steps.values()), tuple(t - levels[0] for t in levels),
                        tuple(accumulate(map(D.copies.__getitem__, levels), initial=0)))
    generators = TensorGenerators(tuple(d_gen.name for d_gen in D.generators), tuple(groups), tuple(rows), c,
                                  chain, square)
    starts = generators.starts
    arrows = sorted((starts[d_src] + a_src, starts[d_tgt] + a_tgt)
                    for d_src, a_src, d_tgt, a_tgt in tensor_differential(A, D))
    return BigradedComplex(generators=generators, arrows=tuple(arrows),
                           bigradings=Counter(concat.from_iterable(counted)), progressions=progressions)
