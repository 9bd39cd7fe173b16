"""Reduction of the bigraded complex over the two-element field.

The differential is a matching, so every arrow cancels its two ends on its
own: each end is subtracted at its bigrading as many times as the generator
view lists copies of it.  No arrow touches the unstable chain's interior, so
the chain, which the complex keeps as progressions, survives whole: the
table keeps the survivors and the progressions as its two parts, and merges
them into ranks only when ranks is read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain as concat
from typing import Mapping

from .pairing import BigradedComplex, ComplexError, Progression


@dataclass(frozen=True)
class RankTable:
    """Rank per (alexander, maslov) bigrading, in two parts.

    stored holds positive counts only: zero counts are dropped on
    construction, and a zero-free mapping is kept as handed over, without a
    copy.  chain holds progressions, one rank per cell of each: a table
    reduced from a cable with an unstable chain has one per b_k, and stored
    then holds no chain cell.  ranks is the whole table, merged on its first
    read; the checks in invariants.py read the parts instead.  Two tables
    are equal when their ranks are.
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
    """The bigrading counts minus both ends of every arrow.

    Every arrow must keep the Alexander grading and lower the Maslov grading
    by one, and no generator may lie on two arrows; a correctly assembled
    complex always does both, so any other arrow raises ComplexError.  A
    matching has no 2-path, so d^2 = 0, and each arrow cancels on its own:
    the table does not depend on arrow order.  The generator view lists a
    square's generator once per copy but its arrows on copy 0 only, since
    the box tensor product is additive over the square summands: the ends of
    every arrow are read in one call to the view's cells and subtracted as
    many times as the view lists them.  A count that would go below zero
    means the counts and the generators disagree, and raises.  The
    survivors are one copy of the positive counts complex_.bigradings, with
    every count cancelled to zero deleted; complex_.bigradings stays as it
    is.  The arrows read stored generators only (see
    pairing.tensor_differential), so the chain's progressions, which
    bigradings does not count, are not reduced: the table holds them next
    to the survivors.
    """
    gens, arrows = complex_.generators, complex_.arrows
    ends = list(concat.from_iterable(arrows))
    cells = gens.cells(ends)
    lost: dict[tuple[int, int], int] = {}
    for (src, tgt), (alexander, maslov, copies), (target_alexander, target_maslov, target_copies) in zip(
            arrows, cells[::2], cells[1::2]):
        if alexander != target_alexander or maslov != target_maslov + 1:
            x, y = gens[src], gens[tgt]
            raise ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                               f"{y.name} (A={y.alexander}, M={y.maslov})")
        source, target = (alexander, maslov), (target_alexander, target_maslov)
        lost[source] = lost.get(source, 0) + copies
        lost[target] = lost.get(target, 0) + target_copies
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
    return RankTable(ranks, complex_.progressions)
