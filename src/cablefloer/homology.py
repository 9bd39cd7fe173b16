"""Reduction of the bigraded complex over the two-element field.

The differential is a matching, so every arrow cancels its two ends on its
own: each end is subtracted at its bigrading as many times as the generator
view lists copies of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .pairing import BigradedComplex, ComplexError


@dataclass(frozen=True)
class RankTable:
    """Rank per (alexander, maslov) bigrading; zero entries are never stored."""

    ranks: Mapping[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "ranks", {k: v for k, v in self.ranks.items() if v})

    @classmethod
    def _trusted(cls, ranks: dict[tuple[int, int], int]) -> "RankTable":
        """Wrap a zero-free dict that the caller hands over, without copying it."""
        table = cls.__new__(cls)
        object.__setattr__(table, "ranks", ranks)
        return table

    @property
    def total(self) -> int:
        return sum(self.ranks.values())

    def entries(self) -> list[tuple[int, int, int]]:
        """(alexander, maslov, rank) triples, descending alexander then maslov."""
        return [(a, m, self.ranks[(a, m)]) for a, m in sorted(self.ranks, reverse=True)]

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
    the box tensor product is additive over the square summands: an arrow's
    ends are read from the view's cells and subtracted as many times as the
    view lists them.  A count that would go below zero means the counts and
    the generators disagree, and raises.  The table is one copy of the
    positive counts complex_.bigradings, with every count cancelled to zero
    deleted; complex_.bigradings stays as it is.
    """
    gens, arrows = complex_.generators, complex_.arrows
    lost: dict[tuple[int, int], int] = {}
    for src, tgt in arrows:
        alexander, maslov, copies = gens.cell(src)
        target_alexander, target_maslov, target_copies = gens.cell(tgt)
        if alexander != target_alexander or maslov != target_maslov + 1:
            x, y = gens[src], gens[tgt]
            raise ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                               f"{y.name} (A={y.alexander}, M={y.maslov})")
        source, target = (alexander, maslov), (target_alexander, target_maslov)
        lost[source] = lost.get(source, 0) + copies
        lost[target] = lost.get(target, 0) + target_copies
    ends = [i for arrow in arrows for i in arrow]
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
    return RankTable._trusted(ranks)
