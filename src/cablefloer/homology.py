"""Reduction of the bigraded complex over the two-element field.

Cancellation runs once per run of isomorphic summands (the squares of one
level) and scales the first copy's killed generators by the number of
copies, after checking that every later copy's arrows are the first copy's
shifted and that no other arrow touches the run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Mapping

from .pairing import BigradedComplex, ComplexError


@dataclass(frozen=True)
class RankTable:
    """Rank per (alexander, maslov) bigrading; zero entries are never stored."""

    ranks: Mapping[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "ranks", {k: v for k, v in dict(self.ranks).items() if v})

    @property
    def total(self) -> int:
        return sum(self.ranks.values())

    def entries(self) -> list[tuple[int, int, int]]:
        """(alexander, maslov, rank) triples, descending alexander then maslov."""
        return [(a, m, self.ranks[(a, m)])
                for a, m in sorted(self.ranks, key=lambda am: (-am[0], -am[1]))]

    def alexander_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (a, _), r in self.ranks.items():
            out[a] = out.get(a, 0) + r
        return out


def _cancel_block(arrows: list[tuple[int, int]]) -> set[int]:
    """Check d^2 = 0, then cancel arrows over GF(2) until none remain; return
    killed generators."""
    outgoing: dict[int, set[int]] = {}
    incoming: dict[int, set[int]] = {}
    for src, tgt in arrows:
        outgoing.setdefault(src, set()).add(tgt)
        incoming.setdefault(tgt, set()).add(src)
    for src, targets in outgoing.items():
        two_step: set[int] = set()  # ends of an odd number of 2-paths from src
        for mid in targets:
            two_step.symmetric_difference_update(outgoing.get(mid, ()))
        if two_step:
            raise ComplexError(f"d^2 != 0 at generator index {src}")
    killed: set[int] = set()
    queue = deque(arrows)
    while queue:
        x, y = queue.popleft()
        if x in killed or y in killed or y not in outgoing.get(x, ()):
            continue
        killed.update((x, y))
        sources = incoming.get(y, set()) - {x}
        targets = outgoing.get(x, set()) - {y}
        for node in (x, y):
            for w in incoming.pop(node, set()):
                outgoing.get(w, set()).discard(node)
            for z in outgoing.pop(node, set()):
                incoming.get(z, set()).discard(node)
        # zig-zag composition: toggle w -> z for every pair
        for w in sources:
            for z in targets:
                if z in outgoing.get(w, set()):
                    outgoing[w].discard(z)
                    incoming[z].discard(w)
                else:
                    outgoing.setdefault(w, set()).add(z)
                    incoming.setdefault(z, set()).add(w)
                    queue.append((w, z))
    return killed


def _representatives(complex_: BigradedComplex
                     ) -> tuple[list[tuple[int, int]], list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """The arrows outside every run of copies, and each run's copies with the
    arrows of its first copy.

    Arrows are sorted, so the arrows leaving one copy are a slice; each
    later copy's slice must equal the first copy's shifted by k * length,
    the first copy's arrows must stay inside it, and no remaining arrow
    may touch a run.  Anything else raises ComplexError.
    """
    arrows = complex_.arrows
    outside: list[tuple[int, int]] = []
    runs = []
    bounds: list[int] = []  # index ranges of the runs, flattened: inside iff an odd count <= index
    pos = 0
    for first, length, copies in sorted(complex_.summands):
        lo, hi = bisect_left(arrows, (first,)), bisect_left(arrows, (first + length,))
        if (bounds and first < bounds[-1]) or lo < pos:
            raise ComplexError(f"the run of copies at generator index {first} overlaps another "
                               f"or its arrows are out of order")
        rep = arrows[lo:hi]
        if any(not (first <= src < first + length and first <= tgt < first + length) for src, tgt in rep):
            raise ComplexError(f"an arrow leaves the summand at generator index {first}")
        size = hi - lo
        for k in range(1, copies):
            shift = k * length
            shifted = tuple((src + shift, tgt + shift) for src, tgt in rep)
            if arrows[lo + k * size:lo + (k + 1) * size] != shifted:
                raise ComplexError(f"the summand at generator index {first + shift} is not a copy "
                                   f"of the one at {first}")
        outside.extend(arrows[pos:lo])
        pos = lo + copies * size
        runs.append((copies, rep))
        bounds += (first, first + copies * length)
    outside.extend(arrows[pos:])
    for src, tgt in outside:
        if bisect_right(bounds, src) % 2 or bisect_right(bounds, tgt) % 2:
            raise ComplexError(f"arrow {src} -> {tgt} touches a run of copies")
    return outside, runs


def reduce_complex(complex_: BigradedComplex) -> RankTable:
    """Full cancellation; the bigrading counts minus the killed generators.

    Every arrow must keep the Alexander grading and lower the Maslov grading
    by one; a correctly assembled complex always does, so any other arrow
    raises ComplexError.  Arrows therefore never cross Alexander gradings, so
    every 2-path stays inside one block: d^2 = 0 is checked and the
    cancellation runs block by block, and the resulting table does not
    depend on cancellation order.  Only arrow endpoints can
    be killed, so gradings are read for those alone; a count that would go
    below zero means the counts and the generators disagree, and raises.

    A run of copies in complex_.summands is reduced through its first copy
    alone, and each generator that copy kills is subtracted once per copy.
    This weakens no check: the pairing recorded the run only after finding
    every copy's generators on the first copy's very rows, so copy k's
    generators have the gradings of copy 0 index for index, and here every
    copy's arrows are checked to be copy 0's shifted by k * length, with no
    other arrow touching the run.  Copy k is then copy 0 relabelled, a
    direct summand with the same graded arrows: the mis-graded-arrow check,
    the d^2 check and the cancellation of copy 0 hold for it verbatim.
    """
    arrows, runs = _representatives(complex_) if complex_.summands else (complex_.arrows, [])
    blocks: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (alexander, copies) -> arrows
    maslov: dict[int, int] = {}  # arrow endpoint -> Maslov grading
    gens = complex_.generators
    for copies, group in ((1, arrows), *runs):
        for src, tgt in group:
            x, y = gens[src], gens[tgt]
            if x.alexander != y.alexander or x.maslov != y.maslov + 1:
                raise ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                                   f"{y.name} (A={y.alexander}, M={y.maslov})")
            maslov[src], maslov[tgt] = x.maslov, y.maslov
            blocks.setdefault((x.alexander, copies), []).append((src, tgt))
    ranks = dict(complex_.bigradings)
    for alexander, copies in sorted(blocks):
        killed = Counter(maslov[i] for i in _cancel_block(blocks[alexander, copies]))
        for m, count in killed.items():
            counted, count = ranks.get((alexander, m), 0), copies * count
            if count > counted:
                raise ComplexError(f"bigrading (A={alexander}, M={m}) loses {count} generators "
                                   f"to cancellation but counts {counted}")
            ranks[alexander, m] = counted - count
    return RankTable(ranks)
