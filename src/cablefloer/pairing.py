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
it stands for.  So the differential's (D index, A position) ends are the
view's (slot, position), and the complex keeps them as they are, from
tensor_differential to homology.reduce_complex.  The complement
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
grading's b slot fixed, every row is one anchor row moved.  And a D
grading x and x * h^beta lie in one double coset, so they have one row;
with beta = (b2 - b0)/2, x * h^beta has the b slot b0 of any grading whose
b slot has x's parity.  So the first row of each idempotent is the anchor,
and a later grading is first moved onto its b slot.  The A gradings y_k
fall into grading families affine in k (TypeAModule.families), so along a
family the anchor's alexander is affine and its maslov quadratic in k,
with constant second difference h.c2: the anchor normalizes the first
three y_k of each family and extends it.  A grading that differs from the
anchor's by (da2, dc2, dd2) moves entry k by
(dA, dN + 2dA + y_k.b2*dc2/2), with dA = (2dd2 - g.d2*dc2)/4 and
dN = (2da2 + (b2 - g.a2)*dc2)/4.  The group law refuses it when dc2 is odd
or either quotient is not an integer, whatever k, so one check decides the
row.  That one move rule builds every later row and every step row below.
A row is a tuple of cells, the bigrading keys themselves, so most
counting is one Counter pass; the rows of a wide pattern are their
grading families instead (see below).

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
is mu<index + r>, its first row plus r step rows.

A grading family of at least FAMILY_RUN positions is kept the same way.
Along a family a row's alexander is affine and its maslov quadratic in
the position, so the family is one Progression whose maslov_bend is the
Maslov second difference.  An anchor's is read off its first three
cells; a move adds (dA, dN + 2dA + b0*dc2/2) with Maslov step
b_step*dc2/2, b0 and b_step being the b slot of the family's first y_k
and its step.  So every i1 row of such a pattern, and every step row, is
a FamilyRow: a read-only sequence of its families that forms cell k by
closed form when read and holds no cell, so the generator view, the
links and every reader of rows[j][k] do not change.
homology.reduce_complex reads every survivor off the rows, the chain's
and the families' as progressions.  The closed-form grading tables that
cross-check this group arithmetic live in invariants.py.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import accumulate, chain as concat, repeat
from typing import NamedTuple

from .gradings import GradingElement, GradingError, normalize_double_coset
from .type_a import TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import ComplexError, TypeDModule, raised

# A row: the (alexander, maslov) cell of each A generator of one idempotent
# group, in A order; a tuple of cells, or a FamilyRow on a wide pattern's i1 rows
Row = Sequence[tuple[int, int]]

# The length from which a grading family is kept as one progression
# instead of cells.  Families have p - 1 positions.  Measured over whole
# cables in process (seven per p: four chain-slot cables with |m| of 108
# to 180, one of 50 squares on nine levels, two short ones; medians of
# nine alternating rounds), the family rows take 1.29x the cell rows' time
# at p = 13, 1.15x to 1.47x at p = 14..22, 1.06x at 23, 1.03x at 24 and
# 1.04x at 26, and 0.92x at 30.  So every grid, squares and chain-slot
# cable below p = 25 takes the cell path, and a wider one the family path.
FAMILY_RUN = 24


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
    """The bigradings (alexander + r*alexander_step, maslov + r*maslov_step
    + r(r-1)/2*maslov_bend) for 0 <= r < length, each of rank rank: one
    b_k's cells along the unstable chain (maslov_bend 0), or the cells of
    one grading family of A generators paired with one complement or chain
    generator, whose Maslov grading is quadratic in the position (a part
    of a FamilyRow, or of a step row); on the square, rank is the number
    of squares at the level."""

    alexander: int
    maslov: int
    alexander_step: int
    maslov_step: int
    length: int
    maslov_bend: int = 0
    rank: int = 1

    def cell(self, r: int) -> tuple[int, int]:
        """Its cell r."""
        a, m, da, dm, _, bend, _ = self
        return a + r * da, m + r * dm + r * (r - 1) // 2 * bend

    def moved(self, by: Progression, times: int = 1, rank: int = 1) -> Progression:
        """Cell by cell, its cells plus times those of by, each of rank
        rank: a family moved times by a step row's family."""
        a, m, da, dm, length, bend, _ = self
        a_by, m_by, da_by, dm_by, _, bend_by, _ = by
        return Progression(a + times * a_by, m + times * m_by, da + times * da_by, dm + times * dm_by, length,
                           bend + times * bend_by, rank)

    def cells(self):
        """Its (alexander, maslov) cells in order."""
        a, m, da, dm, length, bend, _ = self
        alexanders = range(a, a + da * length, da) if da else repeat(a, length)
        if bend:  # the Maslov first differences are dm, dm + bend, ...
            return zip(alexanders, accumulate(range(dm, dm + (length - 1) * bend, bend), initial=m))
        return zip(alexanders, range(m, m + dm * length, dm) if dm else repeat(m, length))

    def part(self, lo: int, hi: int) -> Progression:
        """Its cells lo .. hi - 1, as a progression."""
        a, m, da, dm, _, bend, rank = self
        return Progression(a + lo * da, m + lo * dm + lo * (lo - 1) // 2 * bend, da, dm + lo * bend, hi - lo, bend,
                           rank)


class FamilyRow(Sequence):
    """A row kept as its grading families: parts[i] is the progression of
    the cells of family i, which starts at position starts[i], in group
    order.  Cell k is formed by its family's closed form when read, so the
    row holds no cell."""

    __slots__ = ("parts", "starts", "_len")

    def __init__(self, parts: tuple[Progression, ...]):
        self.parts = parts
        *self.starts, self._len = accumulate((part.length for part in parts), initial=0)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, int]:
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("row index out of range")
        i = bisect_right(self.starts, k) - 1
        return self.parts[i].cell(k - self.starts[i])

    def __iter__(self):
        return concat.from_iterable(map(Progression.cells, self.parts))


class TensorGenerators(Sequence):
    """Read-only view of the tensor generators in complement-major order.

    Slot j is D entry j, named d_names[j], paired with the A generators
    a_names[j] at the cells rows[j].  A slot of no Repeat is
    listed once, from starts[j] on.  A slot of chain or square, the two
    Repeats or None, lists its repetitions one after another, each
    repetition's copies in a row (see Repeat): the unstable chain's
    interior repeats once per chain generator, and the square's corners
    once per level, all by one layout.
    Copy 0 of repetition 0 of a*d sits at starts[j] plus the position of a
    in the group.  A record, with N = M - 2A and A' = A - c, is built only
    when an index or a (slot, copy, position) is read (at); the run reads
    the rows instead, and records only to name generators in refusals, so
    the D names (from the function names, called once) and the starts are
    formed on their first read.  It is the only generator sequence a
    BigradedComplex holds.
    """

    def __init__(self, names: Callable[[], Sequence[str]], a_names: tuple[Sequence[str], ...],
                 rows: tuple[Row, ...], c: int, chain: Repeat | None = None, square: Repeat | None = None):
        self._names, self.a_names, self.rows = names, a_names, rows
        self.c, self.chain, self.square = c, chain, square

    @cached_property
    def d_names(self) -> tuple[str, ...]:
        return tuple(self._names())

    def _repeat(self, j: int) -> Repeat | None:
        """The Repeat slot j belongs to, or None."""
        return next((rep for rep in (self.chain, self.square) if rep is not None and j in rep.slots), None)

    @cached_property
    def _bounds(self) -> list[int]:
        """The start of every slot, then the total."""
        return list(accumulate((len(row) * (1 if rep is None else rep.copy_starts[-1])
                                for row, rep in zip(self.rows, map(self._repeat, range(len(self.rows))))), initial=0))

    @property
    def starts(self) -> list[int]:
        return self._bounds[:-1]

    def __len__(self) -> int:
        return self._bounds[-1]

    def __getitem__(self, i: int) -> TensorGenerator:
        i = range(len(self))[i]  # counted from the end if negative; IndexError out of range
        j = bisect_right(self._bounds, i) - 1
        copy, k = divmod(i - self._bounds[j], len(self.rows[j]))
        return self.at(j, copy, k)

    def at(self, j: int, copy: int, k: int) -> TensorGenerator:
        """The record of the generator at position k of slot j's A group in
        its listing copy, counted over every repetition."""
        alexander, maslov = self.rows[j][k]
        d_name, rep = self.d_names[j], self._repeat(j)
        if rep is not None:
            r = bisect_right(rep.copy_starts, copy) - 1
            if r:
                (alexander_step, maslov_step), offset = rep.steps[rep.slots.index(j)][k], rep.offsets[r]
                alexander, maslov = alexander + offset * alexander_step, maslov + offset * maslov_step
                d_name = raised(d_name, r)
        return TensorGenerator(self.a_names[j][k], d_name, maslov - 2 * alexander, alexander - self.c,
                               alexander, maslov)


class BigradedComplex(NamedTuple):
    """The paired complex: the generator view and its links, the arrows
    as tensor_differential gives them, (slot, position) of the source then
    of the target, ascending.  A link joins the first copies of its slots,
    and none touches the chain.  homology.reduce_complex reads every
    survivor off the view's rows."""

    generators: TensorGenerators
    links: tuple[tuple[int, int, int, int], ...]  # (source slot, position, target slot, position)

    @property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """(source index, target index) of each link in the view, ascending,
        since an index grows with (slot, position): cablebench's layer
        counts read it."""
        starts = self.generators.starts
        return tuple([(starts[j] + k, starts[j_target] + k_target) for j, k, j_target, k_target in self.links])


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
    interior has no edge, so the walk reads stored generators only.  The
    module's successor maps are the walk's steps, in D indices.
    """
    ones, twos, twelves, entries = D.ones, D.twos, D.twelves, D.entries
    starts = [(j, node, "i1") for j, node in twos.items() if entries[j][0] == "i1"]
    starts += [(j, j, "i0") for j in {**ones, **twelves} if entries[j][0] == "i0"]
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


def _rows(A: TypeAModule, D: TypeDModule, c: int) -> tuple[list[Sequence[str]], list[Row], dict[int, Row]]:
    """Per D entry, its A generators and its row, and, by D index, the step
    row of each entry that repeats: a square corner's per level up, the
    chain entry's per chain generator on.

    The first row of each idempotent, per parity of the b slot, is its
    anchor.  Its cells are affine (alexander) and quadratic (maslov) in the
    position within each grading family of A.families, and its failure
    residues repeat with period 2 there, so it normalizes the first three A
    generators of each family, in group order, and extends each family by
    its constant second difference: a refused anchor raises at the same
    first A generator as one normalization per A generator would.  One move
    rule builds everything else.  A grading move (da2, dc2, dd2) at a fixed
    b slot passes or fails one check for the whole row, whose failure is the
    error the group law raises for the group's first A generator, and
    changes every cell as the module docstring says.  A later grading x of
    another b slot is first moved onto the anchor's by x * h^beta, which
    keeps its double coset, so a later row is its anchor moved, and a
    grading met before reuses its row.  A refusal is raised from x itself,
    as when each b slot had its own anchor: on a b slot where no row was
    made before, x's own anchor row raises its normalization's error, else
    the one check's error stands.  Every module grading of one idempotent
    shares its b slot's parity; one of the other parity keeps an anchor of
    its own, which the group law refuses.  A square corner's step row is the
    move (1 + b2, 2, 0) of one level, which the group law never refuses; the
    chain entry's is the move (step, step, 0) of one chain generator.  The
    residues are linear in the move, so once the chain entry's row passes,
    its step passes exactly when its second generator's row would, and a
    refused step raises that row's error: the chain meets the checks where
    its generators would.

    When the i1 families have at least FAMILY_RUN positions, every i1 row
    and step row is a FamilyRow: an anchor's family is the progression of
    its first three cells, whose Alexander second difference must be 0
    (else ComplexError), a move is one progression per family, with the
    family's first b slot and its step in place of the b slot of every
    position, and a moved row is its anchor's parts plus the move's, so
    nothing here grows with p.
    """
    g, h, ga2, gd2 = A.g, D.h, A.g.a2, A.g.d2
    groups_of = {idempotent: A.group(idempotent) for idempotent in ("i0", "i1")}
    long = {"i0": False, "i1": A.p - 1 >= FAMILY_RUN}  # whether the idempotent's rows are FamilyRows
    # idempotent -> (positions, first three gradings, first b slot, b slot step) of
    # each grading family; formed at the idempotent's first anchor
    sampled: dict[str, list[tuple[range, list[GradingElement], int, int]]] = {}
    slopes: dict[str, tuple[int, ...]] = {}  # idempotent -> the b slot of every A grading, for tuple rows
    # (idempotent, parity of the b slot) -> the anchor's grading and its row
    anchors: dict[tuple[str, int], tuple[GradingElement, Row]] = {}
    made: dict[tuple[str, GradingElement], Row] = {}
    # (idempotent, b slot, da2, dc2) -> step row; the square's corners share three
    stepped: dict[tuple[str, int, int, int], Row] = {}

    def sample(idempotent: str) -> None:
        families = sampled[idempotent] = []
        for positions in A.families(idempotent):
            ys = [A.grading(idempotent, k) for k in positions[:3]]
            # any b slot step spans a family of one
            families.append((positions, ys, ys[0].b2, ys[1].b2 - ys[0].b2 if len(ys) > 1 else 1))
        if not long[idempotent]:
            slopes[idempotent] = tuple(concat.from_iterable(
                range(b0, b0 + len(positions) * step, step) for positions, _, b0, step in families))

    def anchor_row(idempotent: str, x: GradingElement) -> Row:
        if idempotent not in sampled:
            sample(idempotent)
        cells, parts = [], []  # the row's cells, or its families' progressions
        for positions, ys, _, _ in sampled[idempotent]:
            first = [(Aprime + c, N + 2 * (Aprime + c))
                     for N, Aprime in (normalize_double_coset(y * x, g, h) for y in ys)]
            size = len(positions)
            if size <= 3:
                cells += first
                continue
            (a0, m0), (a1, m1), (a2, m2) = first
            da, dm, sa, sm = a1 - a0, m1 - m0, a2 - 2 * a1 + a0, m2 - 2 * m1 + m0
            if long[idempotent]:
                if sa:
                    raise ComplexError(f"the alexander gradings of {groups_of[idempotent][positions.start]} * {x} "
                                       f"and the rest of its family have second difference {sa}, not 0")
                parts.append(Progression(a0, m0, da, dm, size, sm))
                continue
            cells += [(a0 + k * da + k * (k - 1) // 2 * sa, m0 + k * dm + k * (k - 1) // 2 * sm)
                      for k in range(size)]
        return FamilyRow(tuple(parts)) if long[idempotent] else tuple(cells)

    def move(idempotent: str, b2: int, da2: int, dc2: int, dd2: int, x: GradingElement) -> tuple[int, int, int]:
        """(dA, dN + 2dA, dc2/2) of a grading move by (da2, dc2, dd2) at b
        slot b2; the group law's error for the moved grading x if refused."""
        n, m = 2 * da2 + (b2 - ga2) * dc2, 2 * dd2 - gd2 * dc2
        if dc2 % 2 or n % 4 or m % 4:  # refused: the group law's error for y * x, y the group's first
            y = A.grading(idempotent, 0)
            if (y.b2 * x.c2 - y.c2 * x.b2) % 2:  # an odd determinant term fails the product first
                raise ArithmeticError(f"determinant term of {y} * {x} is not a half-integer")
            raise GradingError(f"{y} * {x} does not normalize to integers")
        da = m // 4
        return da, n // 4 + 2 * da, dc2 // 2

    def moved_by(idempotent: str, da: int, dm: int, half: int) -> Row:
        """The row a move adds: entry k is (da, dm + y_k.b2*half)."""
        if long[idempotent]:
            return FamilyRow(tuple(Progression(da, dm + b0 * half, 0, step * half, len(positions))
                                   for positions, _, b0, step in sampled[idempotent]))
        return tuple([(da, dm + b * half) for b in slopes[idempotent]])

    def row(idempotent: str, x: GradingElement) -> Row:
        a2, b2, c2, d2 = x
        anchor = anchors.get((idempotent, b2 % 2))
        if anchor is None:
            cells = anchor_row(idempotent, x)
            anchors[idempotent, b2 % 2] = x, cells
            return cells
        (a0, b0, c0, d0), cells = anchor
        beta = (b2 - b0) // 2  # x * h^beta: x's double coset, so x's row, at the anchor's b slot
        try:
            da, dm, half = move(idempotent, b0, a2 + beta * h.a2 + beta * (b2 * h.c2 + 2 * c2) // 2 - a0,
                                c2 + beta * h.c2 - c0, d2 + beta * h.d2 - d0, x)
        except (ArithmeticError, GradingError):
            if all((made_at, z.b2) != (idempotent, b2) for made_at, z in made):
                anchor_row(idempotent, x)  # the first row on its b slot: x raises as that slot's anchor
            raise
        if long[idempotent]:
            return FamilyRow(tuple(map(Progression.moved, cells.parts, moved_by(idempotent, da, dm, half).parts)))
        return tuple([(a + da, mm + dm + b * half) for (a, mm), b in zip(cells, slopes[idempotent])])

    def step_row(idempotent: str, x: GradingElement, da2: int, dc2: int) -> Row:
        key = idempotent, x.b2, da2, dc2
        known = stepped.get(key)
        if known is None:
            moved = move(idempotent, x.b2, da2, dc2, 0, x._replace(a2=x.a2 + da2, c2=x.c2 + dc2))
            known = stepped[key] = moved_by(idempotent, *moved)
        return known

    groups, rows, steps = [], [], {}
    for j, (idempotent, x, _, _, level, length, step) in enumerate(D.entries):
        known = made.get((idempotent, x))
        if known is None:
            known = made[idempotent, x] = row(idempotent, x)
        groups.append(groups_of[idempotent])
        rows.append(known)
        if level is not None:
            steps[j] = step_row(idempotent, x, 1 + x.b2, 2)
        elif length > 1:
            steps[j] = step_row(idempotent, x, step, step)
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
    (D entry, its A generators, its row, how it repeats), and the links are
    tensor_differential's arrows, sorted, in its (D entry, A position)
    coordinates, which are the view's (slot, position).  The square's
    generators repeat at every level of D.copies, offset by the level
    difference, and the chain entry along the chain.  Every link joins
    first copies of the stored generators.
    """
    c = shift_constant(l, A.p, n)
    groups, rows, steps = _rows(A, D, c)
    chain = square = None
    for j, (_, _, _, _, _, length, _) in enumerate(D.entries):
        if length > 1:
            chain = Repeat((j,), (steps.pop(j),), range(length), range(length + 1))
    if steps:
        levels = sorted(D.copies)  # the square is stored at the lowest, levels[0]
        square = Repeat(tuple(steps), tuple(steps.values()), tuple(t - levels[0] for t in levels),
                        tuple(accumulate(map(D.copies.__getitem__, levels), initial=0)))
    generators = TensorGenerators(lambda: [gen.name for gen in D.generators], tuple(groups), tuple(rows), c,
                                  chain, square)
    return BigradedComplex(generators=generators, links=tuple(sorted(tensor_differential(A, D))))
