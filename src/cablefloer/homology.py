"""Reduction of the bigraded complex over the two-element field.

The differential is a matching, so every arrow cancels its two ends on its
own.  The stored square is a direct summand that stands for c_t squares at
every level t, so its arrows are cancelled once and its survivors placed at
every level, c_t times each.  No arrow touches the unstable chain's
interior, so the chain, which the complex keeps as progressions, survives
whole: the table keeps the survivors and the progressions as its two
parts, and merges them into ranks only when ranks is read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain as concat
from operator import sub
from typing import Mapping

from .pairing import BigradedComplex, ComplexError, Progression


@dataclass(frozen=True)
class RankTable:
    """Rank per (alexander, maslov) bigrading, in two parts.

    stored holds positive counts only: zero counts are dropped on
    construction, and a zero-free mapping is kept as handed over, without a
    copy.  chain holds progressions, one rank per cell of each: a table
    reduced from a cable whose chain entry stands for two or more
    generators (|m| >= 3) has one per b_k, and stored then holds no chain
    cell.  ranks is the whole table, merged on its first read; the checks
    in invariants.py read the parts instead.  Two tables are equal when
    their ranks are.
    """

    stored: Mapping[tuple[int, int], int]
    chain: tuple[Progression, ...] = ()

    def __post_init__(self):
        if 0 in self.stored.values():
            object.__setattr__(self, "stored", {k: v for k, v in self.stored.items() if v})

    def __eq__(self, other):
        return self.ranks == other.ranks if isinstance(other, RankTable) else NotImplemented

    @cached_property
    def ranks(self) -> Mapping[tuple[int, int], int]:
        """stored itself without a chain; else a dict, stored counted on by
        one Counter pass over the chain's cells."""
        if not self.chain:
            return self.stored
        ranks = Counter(self.stored)
        ranks.update(concat.from_iterable(map(Progression.cells, self.chain)))
        return dict(ranks)

    @property
    def total(self) -> int:
        return sum(self.stored.values()) + sum(progression.length for progression in self.chain)

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
    """The bigrading counts minus both ends of every arrow, plus the
    square's survivors at every level.

    Every arrow must join the first copies of two stored generators of one
    summand, both of the square or neither (a square listed once, with
    nothing to place, is stored generators like the others), keep the
    Alexander grading and lower the Maslov grading by one, and no generator
    may lie on two arrows; a correctly assembled complex always does all
    three, so any other arrow raises ComplexError.  A matching has no
    2-path, so d^2 = 0, and each arrow cancels on its own: the table does
    not depend on arrow order.  Every arrow subtracts its ends, read at their stored
    rows, from complex_.bigradings, which counts every stored row once, and
    a count that would go below zero means the counts and the generators
    disagree, and raises.  An arrow on the square also kills its ends'
    positions in the stored square: the box tensor product is additive
    over the square summands, so the same arrow joins the same positions
    at every level and in every copy.  That holds only when its ends step
    alike from level to level, so that it is graded at every level once it
    is at the stored one; an arrow whose ends step differently raises as
    mis-graded at the last level.  Each position no arrow kills is then
    added at every level, as many times as the view lists it there, less
    the stored listing bigradings counts.  The survivors are one dict, with
    every count cancelled to zero deleted; complex_.bigradings stays as it
    is.  The arrows read stored generators only (see
    pairing.tensor_differential), so the chain's progressions, which
    bigradings does not count, are not reduced: the table holds them next
    to the survivors.
    """
    gens, arrows, square = complex_.generators, complex_.arrows, complex_.generators.square
    rows = gens.rows
    placed = []  # (offset, count) of the square's listings that bigradings does not count
    if square is not None:
        listings = list(map(sub, square.copy_starts[1:], square.copy_starts))
        listings[0] -= 1  # the stored listing
        placed = [(offset, count) for offset, count in zip(square.offsets, listings) if count]
    # square slot -> its steps; a square with nothing to place is stored generators like the others
    steps_of = dict(zip(square.slots, square.steps)) if placed else {}
    ends = list(concat.from_iterable(arrows))
    spots = gens.spots(ends)
    lost: dict[tuple[int, int], int] = {}
    killed: dict[int, set[int]] = {}  # slot -> the positions arrows kill in the stored square
    for (src, tgt), (j, copy, k), (j_target, target_copy, k_target) in zip(arrows, spots[::2], spots[1::2]):
        on_square = j in steps_of
        if copy or target_copy or on_square != (j_target in steps_of):
            raise ComplexError(f"arrow {gens[src].name} -> {gens[tgt].name} does not join stored generators "
                               f"of one summand")
        source, target = rows[j][k], rows[j_target][k_target]  # a first copy reads its row as stored
        if source[0] != target[0] or source[1] != target[1] + 1:
            raise _misgraded(gens[src], gens[tgt])
        if on_square:
            if len(square.offsets) > 1 and steps_of[j][k] != steps_of[j_target][k_target]:  # mis-graded off t_0
                last = square.copy_starts[-2]
                raise _misgraded(gens[gens.index(j, last, k)], gens[gens.index(j_target, last, k_target)])
            killed.setdefault(j, set()).add(k)
            killed.setdefault(j_target, set()).add(k_target)
        lost[source] = lost.get(source, 0) + 1
        lost[target] = lost.get(target, 0) + 1
    if len(set(ends)) != len(ends):  # not a matching: name the first shared generator
        seen: set[int] = set()
        for i in ends:
            if i in seen:
                raise ComplexError(f"generator {gens[i].name} (index {i}) lies on two arrows")
            seen.add(i)
    ranks = dict(complex_.bigradings)
    for (alexander, m), count in lost.items():
        counted = ranks.get((alexander, m), 0)
        if count > counted:
            raise ComplexError(f"bigrading (A={alexander}, M={m}) loses {count} generators "
                               f"to cancellation but counts {counted}")
        if count == counted:
            del ranks[alexander, m]
        else:
            ranks[alexander, m] = counted - count
    if placed:
        group = []  # (cell, step) of every position no arrow kills
        for j, steps in steps_of.items():
            spots, dead = zip(rows[j], steps), killed.get(j)
            group += [spot for k, spot in enumerate(spots) if k not in dead] if dead else spots
        get = ranks.get
        for offset, count in placed:
            cells = [(a + offset * da, m + offset * dm) for (a, m), (da, dm) in group] if offset else \
                [cell for cell, _ in group]
            for cell in cells:
                ranks[cell] = get(cell, 0) + count
    return RankTable(ranks, complex_.progressions)


def _misgraded(x, y) -> ComplexError:
    return ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                        f"{y.name} (A={y.alexander}, M={y.maslov})")
