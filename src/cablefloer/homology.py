"""Reduction of the bigraded complex over the two-element field.

The differential is a matching, so every arrow cancels its two ends on its
own, and the table is every slot's row less the positions arrows kill,
listed as the view lists it: one rule for every summand.  A Repeat of
the view is a stored summand that stands for its copies at every
repetition, so its arrows are cancelled once, on the first copy, and its
survivors are placed at every repetition.  Along the unstable chain each
survivor is one progression; over the square's levels the survivors are
counted at each level listed once, and kept once, as lines, over the
levels listed more than once.  A long grading family is one progression
that the arrow ends on it cut, and each piece left is placed at every
repetition, with the repetition's count as its rank.  The table keeps the
counted survivors, the progressions and the square's lines as its three
parts, and merges them into ranks only when ranks is read.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain as concat, repeat
from operator import sub
from typing import Mapping

from .pairing import BigradedComplex, ComplexError, FamilyRow, Progression


class RankTable:
    """Rank per (alexander, maslov) bigrading, in three parts.

    stored holds positive counts only: zero counts are dropped on
    construction, and a zero-free mapping is kept as handed over, without a
    copy.  progressions holds progressions, one rank per cell of each, in
    slot order: a table reduced from a cable whose chain entry stands for
    two or more generators (|m| >= 3) has the chain's, one per b_k or, on
    a chain shorter than a long grading family, one per family piece and
    chain generator; one of p > FAMILY_RUN has the pieces that
    cancellation leaves of every long grading family, on the square once
    per level with the level's square count as its rank.  square is the pair (survivors,
    levels): the stored square's surviving ((alexander, maslov), (alexander
    step, maslov step)) pairs at its lowest level, and the (offset, count)
    of every level the square is listed at more than once.  Each survivor
    is a line over those levels, its cell plus offset times its step at
    each, count times.  stored holds no cell of the progressions or the
    lines.  ranks is the whole table, merged on its first read and kept in
    the _ranks slot, None until then; the checks in invariants.py read the
    parts instead.  Two tables are equal when their ranks are.
    """

    __slots__ = ("stored", "progressions", "square", "_ranks")

    def __init__(self, stored: Mapping[tuple[int, int], int], progressions: tuple[Progression, ...] = (),
                 square: tuple = ((), ())):
        self.stored = {k: v for k, v in stored.items() if v} if 0 in stored.values() else stored
        self.progressions = progressions
        self.square = square
        self._ranks = None

    def __eq__(self, other):
        return self.ranks == other.ranks if isinstance(other, RankTable) else NotImplemented

    def __repr__(self) -> str:
        return f"RankTable(stored={self.stored!r}, progressions={self.progressions!r}, square={self.square!r})"

    @property
    def ranks(self) -> Mapping[tuple[int, int], int]:
        """stored itself without progressions and lines; else a dict, stored
        counted on by one Counter pass over the progressions' cells, by rank
        - 1 more at each cell of a progression of a higher rank, and by
        count at each line's cell on each of its levels."""
        survivors, levels = self.square
        if not (self.progressions or levels):
            return self.stored
        if self._ranks is None:
            ranks = Counter(self.stored)
            ranks.update(concat.from_iterable(map(Progression.cells, self.progressions)))
            for progression in self.progressions:
                if progression.rank > 1:
                    for cell in progression.cells():
                        ranks[cell] += progression.rank - 1
            ranks = dict(ranks)  # a plain dict: its items are set faster than a Counter's
            get = ranks.get
            for offset, count in levels:
                for (a, m), (da, dm) in survivors:
                    cell = a + offset * da, m + offset * dm
                    ranks[cell] = get(cell, 0) + count
            self._ranks = ranks
        return self._ranks

    @property
    def total(self) -> int:
        survivors, levels = self.square
        return (sum(self.stored.values()) + len(survivors) * sum(count for _, count in levels)
                + sum(progression.length * progression.rank for progression in self.progressions))

    def entries(self) -> list[tuple[int, int, int]]:
        """(alexander, maslov, rank) triples, descending alexander then maslov:
        the triples sort as their cells do, since no cell repeats."""
        return sorted([(a, m, rank) for (a, m), rank in self.ranks.items()], reverse=True)

    def alexander_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (a, _), r in self.ranks.items():
            out[a] = out.get(a, 0) + r
        return out


def reduce_complex(complex_: BigradedComplex) -> RankTable:
    """Every slot's row less the positions arrows kill, listed as the view
    lists it.

    Each link is an arrow read as (slot, position) of its two ends, on the
    first copies of their slots.  One rule holds for every Repeat: a link
    must join two stored generators of one summand, both on one Repeat or
    both on none, keep the Alexander grading and lower the Maslov grading
    by one, and no generator may lie on two arrows; a correctly assembled
    complex always does all three, so any other link raises ComplexError,
    which names its generators.  A matching has no 2-path, so d^2 = 0, and
    each arrow cancels on its own: the table does not depend on link order.
    An arrow on a Repeat kills its ends' positions in the stored summand:
    the box tensor product is additive over direct summands, so the same
    arrow joins the same positions at every repetition and in every copy.
    That holds only when its ends step alike, so that it is graded at every
    repetition once it is at the first; on a Repeat of more than one
    repetition an arrow whose ends step differently raises as mis-graded
    at the last repetition.

    Then one rule reads each slot: its row less its killed positions, as
    the view lists it, a slot of no Repeat as one repetition at offset 0
    listed once.  A FamilyRow is its parts cut at the killed positions,
    each piece moved to every repetition by the step row's part, with rank
    the number of times the view lists it there; on an along Repeat (see
    pairing.Repeat) that is done only when it gives fewer pieces than the
    row has positions.  Cells, a tuple row's or else an along FamilyRow's,
    take the shape of their Repeat: along, each survivor is one
    progression over the repetitions; over explicit levels (the square's,
    the one Repeat of that shape), they are counted at each level the view
    lists once, and the survivors, each with its step, and the levels
    listed more than once, with their counts, are the table's square part;
    with no Repeat, they are counted once.  The table keeps the counts as one dict, with no zero, the
    progressions in slot order, and the square part.
    """
    gens, links = complex_.generators, complex_.links
    rows, repeat_of = gens.rows, gens.repeat_of
    killed: dict[int, set[int]] = {}  # slot -> the positions links kill on its first copy
    for j, k, j_target, k_target in links:
        rep, steps = repeat_of.get(j, (None, None))
        rep_target, steps_target = repeat_of.get(j_target, (None, None))
        if rep is not rep_target:
            raise ComplexError(f"arrow {gens.at(j, 0, k).name} -> {gens.at(j_target, 0, k_target).name} does not "
                               f"join stored generators of one summand")
        source, target = rows[j][k], rows[j_target][k_target]  # a first copy reads its row as stored
        if source[0] != target[0] or source[1] != target[1] + 1:
            raise _misgraded(gens.at(j, 0, k), gens.at(j_target, 0, k_target))
        if rep is not None and len(rep.offsets) > 1 and steps[k] != steps_target[k_target]:
            last = rep.copy_starts[-2]  # mis-graded at the last repetition
            raise _misgraded(gens.at(j, last, k), gens.at(j_target, last, k_target))
        killed.setdefault(j, set()).add(k)
        killed.setdefault(j_target, set()).add(k_target)
    if sum(map(len, killed.values())) != 2 * len(links):  # not a matching: name the first shared generator
        seen: set[tuple[int, int]] = set()
        for end in concat.from_iterable((link[:2], link[2:]) for link in links):
            if end in seen:
                j, k = end
                name = gens.at(j, 0, k).name
                raise ComplexError(f"generator {name} (index {gens.starts[j] + k}) lies on two arrows")
            seen.add(end)
    # (offset, count) of each level of each Repeat but an along one (offsets a range), once per Repeat
    levels_of = {id(rep): list(zip(rep.offsets, map(sub, rep.copy_starts[1:], rep.copy_starts)))
                 for rep in gens.repeats if type(rep.offsets) is not range}
    counted, lost, pieces, group, levels = [], [], [], [], []
    for j, row in enumerate(rows):
        dead = killed.get(j, ())
        rep, steps = repeat_of.get(j, (None, None))
        if rep is None and type(row) is not FamilyRow:  # cells of no Repeat: counted once
            counted.append(row)
            if dead:
                lost += [row[k] for k in dead]
            continue
        # no Repeat: one level, offset 0, listed once, where a part stays as stored; None along
        at = ((0, 1),) if rep is None else levels_of.get(id(rep))
        if type(row) is FamilyRow and (at or len(row.parts) * len(rep.offsets) < len(row)):
            pieces += [(part.moved(step, offset, count) if offset or count > 1 else part).part(lo, hi)
                       for part, step, start in zip(row.parts, (steps or row).parts, row.starts)
                       for lo, hi in _runs(part.length, dead, start)
                       for offset, count in at or zip(rep.offsets, repeat(1))]
        elif at is None:  # cells along: each survivor one progression over the repetitions
            pieces += [Progression(*cell, *step, len(rep.offsets))
                       for k, (cell, step) in enumerate(zip(row, steps)) if k not in dead]
        else:  # cells over explicit levels
            levels = at
            stepped = zip(row, steps)
            group += [spot for k, spot in enumerate(stepped) if k not in dead] if dead else stepped
    # a level listed once is counted with the rows; the levels listed more than once are the
    # square part, whose lines grow with the survivors, not with the counts
    for offset, count in levels:
        if count == 1:
            counted.append([(a + offset * da, m + offset * dm) for (a, m), (da, dm) in group] if offset else
                           [cell for cell, _ in group])
    ranks = dict(Counter(concat.from_iterable(counted)))
    for cell in lost:  # a row's cells are counted once and its killed positions are a set: never below zero
        count = ranks[cell] - 1
        if count:
            ranks[cell] = count
        else:
            del ranks[cell]
    return RankTable(ranks, tuple(pieces), (group, tuple(level for level in levels if level[1] > 1)))


def _runs(length: int, dead, start: int) -> list[tuple[int, int]]:
    """(lo, hi) of each run of positions start .. start + length - 1 that
    dead does not hold, relative to start."""
    cuts = sorted(k - start for k in dead if 0 <= k - start < length)
    return [(lo, hi) for lo, hi in zip([0] + [cut + 1 for cut in cuts], cuts + [length]) if lo < hi]


def _misgraded(x, y) -> ComplexError:
    return ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                        f"{y.name} (A={y.alexander}, M={y.maslov})")
