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
D grading) row is normalized once and shared: all squares at one level carry
the same gradings (the box tensor product is additive over those summands),
and so do the x1 and x3 corners of every square.  The complex itself stays
whole, one record per tensor generator, since the benchmark's generator
count and the selfcheck's closed-form comparison read every generator.
The closed-form grading tables that cross-check this group arithmetic live
in invariants.py with the other pipeline-independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gradings import GradingElement, normalize_double_coset
from .type_a import CHORD_PREFIX, TypeAModule, hat_operations  # noqa: F401 (re-exported)
from .type_d import TypeDModule


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


@dataclass(frozen=True)
class BigradedComplex:
    generators: tuple[TensorGenerator, ...]
    arrows: tuple[tuple[int, int], ...]  # (source index, target index)

    def as_dict(self) -> dict:
        return {
            "generators": [
                {
                    "a_side": g.a_side,
                    "d_side": g.d_side,
                    "alexander": g.alexander,
                    "maslov": g.maslov,
                }
                for g in self.generators
            ],
            "arrows": [list(pair) for pair in self.arrows],
        }


def shift_constant(l: int, p: int, n: int) -> int:
    """Alexander-grading shift c = l*p - n*p*(p-1)/2."""
    return l * p - n * p * (p - 1) // 2


def _by_idempotent(A: TypeAModule) -> dict[str, list[str]]:
    """A generators by the complement idempotent they pair with, in A order."""
    by_idempotent: dict[str, list[str]] = {}
    for a_name in A.generators:
        by_idempotent.setdefault(A.pairs_with(a_name), []).append(a_name)
    return by_idempotent


def tensor_generators(A: TypeAModule, D: TypeDModule) -> list[tuple[str, str]]:
    """Complementary-idempotent pairs, complement-major order."""
    by_idempotent = _by_idempotent(A)
    return [(a_name, d_gen.name) for d_gen in D.generators
            for a_name in by_idempotent.get(d_gen.idempotent, ())]


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


def tensor_gradings(A: TypeAModule, D: TypeDModule, c: int) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    """(N, A', alexander, maslov) for every tensor generator, in tensor_generators order.

    With D.h, A.g and c fixed, a tensor grading depends only on the A
    generator, the idempotent and the D grading, so the row of an
    (idempotent, D grading) key is normalized once and reused: squares at one
    level share their rows, and so do the x1 and x3 corners of every square.
    The idempotent belongs in the key because i0 and i1 rows run over
    different A generators.
    """
    by_idempotent = _by_idempotent(A)
    rows: dict[tuple[str, GradingElement], list[tuple[str, tuple[int, int, int, int]]]] = {}
    out = {}
    for d_gen in D.generators:
        key = (d_gen.idempotent, d_gen.grading)
        row = rows.get(key)
        if row is None:
            row = rows[key] = []
            for a_name in by_idempotent.get(d_gen.idempotent, ()):
                norm = normalize_double_coset(A.gradings[a_name] * d_gen.grading, A.g, D.h)
                alexander = norm.Aprime + c
                row.append((a_name, (norm.N, norm.Aprime, alexander, norm.N + 2 * alexander)))
        for a_name, value in row:
            out[(a_name, d_gen.name)] = value
    return out


def pair_modules(A: TypeAModule, D: TypeDModule, l: int, n: int) -> BigradedComplex:
    """Assemble the full bigraded complex of the cable, one record per tensor generator."""
    gradings = tensor_gradings(A, D, shift_constant(l, A.p, n))  # keyed in tensor_generators order
    index = {pair: i for i, pair in enumerate(gradings)}
    generators = tuple(TensorGenerator(a, d, *value) for (a, d), value in gradings.items())
    arrows = tuple(sorted((index[src], index[tgt]) for src, tgt in tensor_differential(A, D)))
    return BigradedComplex(generators=generators, arrows=arrows)
