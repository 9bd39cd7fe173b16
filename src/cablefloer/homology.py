"""Reduction of the bigraded complex over the two-element field.

The staircase and chain arrows are cancelled per Alexander block; the
square template is cancelled once, and its killed generators are read at
each square level's gradings and scaled by that level's square count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .pairing import BigradedComplex, ComplexError, TensorGenerator


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


def _cancel_block(arrows: Sequence[tuple[int, int]]) -> set[int]:
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


def _endpoint_gradings(gens: Sequence[TensorGenerator], arrows: Sequence[tuple[int, int]],
                       base: int = 0) -> dict[int, tuple[int, int]]:
    """(alexander, maslov) of each arrow endpoint, read at generator base + endpoint.

    An arrow that does not keep the Alexander grading and lower the Maslov
    grading by one raises ComplexError.
    """
    out: dict[int, tuple[int, int]] = {}
    for src, tgt in arrows:
        x, y = gens[base + src], gens[base + tgt]
        if x.alexander != y.alexander or x.maslov != y.maslov + 1:
            raise ComplexError(f"mis-graded arrow {x.name} (A={x.alexander}, M={x.maslov}) -> "
                               f"{y.name} (A={y.alexander}, M={y.maslov})")
        out[src], out[tgt] = (x.alexander, x.maslov), (y.alexander, y.maslov)
    return out


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

    From the first square on, the arrows are the template shifted to every
    square (pair_modules found each square to be the first one relabelled),
    so they are not read.  The template is checked against the gradings of
    every level's first square, cancelled once with its d^2 check, and each
    generator it kills is subtracted c_t times at that level's bigrading.
    Cancellation reads only arrows, so the template's kills cancel every
    square, and the per-level check makes them a graded cancellation there.
    """
    gens, arrows, levels = complex_.generators, complex_.arrows, complex_.levels
    if levels:
        arrows = arrows[:bisect_left(arrows, (min(levels)[0],))]
    head = _endpoint_gradings(gens, arrows)
    per_level = [(count, _endpoint_gradings(gens, complex_.template, first)) for first, count in levels]
    blocks: dict[int, list[tuple[int, int]]] = {}  # alexander -> arrows
    for src, tgt in arrows:
        blocks.setdefault(head[src][0], []).append((src, tgt))
    kills = [(1, head, _cancel_block(blocks[alexander])) for alexander in sorted(blocks)]
    if levels:
        killed = _cancel_block(complex_.template)
        kills += [(count, graded, killed) for count, graded in per_level]
    ranks = dict(complex_.bigradings)
    for scale, graded, killed in kills:
        for (alexander, m), count in Counter(map(graded.__getitem__, killed)).items():
            counted, count = ranks.get((alexander, m), 0), scale * count
            if count > counted:
                raise ComplexError(f"bigrading (A={alexander}, M={m}) loses {count} generators "
                                   f"to cancellation but counts {counted}")
            ranks[alexander, m] = counted - count
    return RankTable(ranks)
