"""The complement-side module of a framed thin knot.

Built directly from a :class:`~cablefloer.thin.ThinModel`: the staircase
contributes generators u_1 .. u_{2|tau|+1} (idempotent i0) and v_1 .. v_{2|tau|}
(idempotent i1), the c_t square summands at level t are one square of corners
x_1 .. x_4 (i0) and y_1 .. y_4 (i1) counted c_t times, and the
framing-dependent unstable chain joins the two staircase ends through extra
i1 generators mu_j.  Every generator carries a
right-coset grading; the coset normalizer h depends on m = 2*tau - n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .gradings import GradingElement
from .thin import ThinModel


class DEdge(NamedTuple):
    source: str
    label: str  # one of 1, 2, 3, 12, 23, 123
    target: str


@dataclass(frozen=True)
class DGenerator:
    name: str
    idempotent: str  # "i0" or "i1"
    grading: GradingElement
    kind: str  # "u", "v", "mu", "x", "y"
    index: int  # subscript within its kind
    level: int | None = None  # diagonal level, squares only


@dataclass(frozen=True)
class TypeDModule:
    generators: tuple[DGenerator, ...]
    edges: tuple[DEdge, ...]
    h: GradingElement = field(repr=False)
    # square count c_t per level t; a level's square is stored once and
    # stands for its c_t isomorphic copies
    copies: dict[int, int] = field(default_factory=dict)


def framing_h(l: int, m: int) -> GradingElement:
    """Right coset normalizer (m/2 - 1/2 - l; -1, m + 2l; 0); valid for every m."""
    return GradingElement(m - 1 - 2 * l, -2, 2 * (m + 2 * l), 0)


def unstable_chain(tau: int, n: int) -> tuple[list[str], list[DEdge]]:
    """Chain of mu generators joining the staircase ends, by the sign of m = 2*tau - n.

    The end u_{2|tau|+1} is the vertical-homology end and u_1 the horizontal
    one.  m = 0 gives a single D_12 edge (a self-loop when tau = 0); m > 0 a
    D_1 / D_23-string / D_3 chain; m < 0 a D_123 / D_23-string / D_2 chain.
    """
    m = 2 * tau - n
    top = f"u{2 * abs(tau) + 1}"
    bottom = "u1"
    if m == 0:
        return [], [DEdge(top, "12", bottom)]
    if m > 0:
        mus = [f"mu{j}" for j in range(1, m + 1)]
        edges = [DEdge(top, "1", "mu1")]
        edges += [DEdge(f"mu{j + 1}", "23", f"mu{j}") for j in range(1, m)]
        edges.append(DEdge(bottom, "3", f"mu{m}"))
        return mus, edges
    mus = [f"mu{j}" for j in range(1, -m + 1)]
    edges = [DEdge(top, "123", "mu1")]
    edges += [DEdge(f"mu{j}", "23", f"mu{j + 1}") for j in range(1, -m)]
    edges.append(DEdge(f"mu{-m}", "2", bottom))
    return mus, edges


# Square gadget: x1 is the corner with both outgoing model arrows, x2 its
# horizontal target, x3 its vertical target, x4 the remaining corner.  Each
# vertical arrow u -> u' becomes u --D1--> v, u' --D123--> v; each horizontal
# arrow u -> u' becomes u --D3--> v, v --D2--> u'.
_SQUARE_EDGES = (
    ("x1", "1", "y4"),
    ("x3", "123", "y4"),
    ("x2", "1", "y2"),
    ("x4", "123", "y2"),
    ("x1", "3", "y1"),
    ("y1", "2", "x2"),
    ("x3", "3", "y3"),
    ("y3", "2", "x4"),
)

_SQUARE_BASE = {
    "x1": ("i0", GradingElement(0, 0, 0, 0)),
    "x2": ("i0", GradingElement(-1, 0, -2, 0)),
    "x3": ("i0", GradingElement(0, 0, 0, 0)),
    "x4": ("i0", GradingElement(1, 0, 2, 0)),
    "y1": ("i1", GradingElement(-1, 1, -1, 0)),
    "y2": ("i1", GradingElement(-1, -1, -1, 0)),
    "y3": ("i1", GradingElement(1, 1, 1, 0)),
    "y4": ("i1", GradingElement(-1, -1, 1, 0)),
}


def build_typed(model: ThinModel, n: int) -> TypeDModule:
    """Assemble the complement module for framing n."""
    tau = model.params.tau
    l = model.params.l
    steps = abs(tau)
    m = 2 * tau - n

    gens: list[DGenerator] = []
    edges: list[DEdge] = []

    # staircase gradings; vertical/horizontal arrows originate at odd u's
    # for tau <= 0 and at even u's for tau > 0
    if tau <= 0:
        for k in range(steps + 1):
            gens.append(DGenerator(f"u{2 * k + 1}", "i0", GradingElement(2 * k, 0, 4 * k, 0), "u", 2 * k + 1))
        for k in range(1, steps + 1):
            gens.append(DGenerator(f"u{2 * k}", "i0", GradingElement(2 * k - 1, 0, 4 * k - 2, 0), "u", 2 * k))
        for k in range(steps):
            gens.append(DGenerator(f"v{2 * k + 1}", "i1", GradingElement(-1, -1, 4 * k + 1, 0), "v", 2 * k + 1))
        for k in range(1, steps + 1):
            gens.append(DGenerator(f"v{2 * k}", "i1", GradingElement(4 * k - 1, 1, 4 * k - 1, 0), "v", 2 * k))
        for t in range(steps):
            edges.append(DEdge(f"u{2 * t + 1}", "1", f"v{2 * t + 1}"))
            edges.append(DEdge(f"u{2 * t + 2}", "123", f"v{2 * t + 1}"))
            edges.append(DEdge(f"u{2 * t + 3}", "3", f"v{2 * t + 2}"))
            edges.append(DEdge(f"v{2 * t + 2}", "2", f"u{2 * t + 2}"))
    else:
        for k in range(steps + 1):
            gens.append(DGenerator(f"u{2 * k + 1}", "i0", GradingElement(-2 * k, 0, -4 * k, 0), "u", 2 * k + 1))
        for k in range(1, steps + 1):
            gens.append(DGenerator(f"u{2 * k}", "i0", GradingElement(-2 * k + 1, 0, -4 * k + 2, 0), "u", 2 * k))
        for k in range(steps):
            gens.append(DGenerator(f"v{2 * k + 1}", "i1", GradingElement(-1, -1, -4 * k - 1, 0), "v", 2 * k + 1))
        for k in range(1, steps + 1):
            gens.append(DGenerator(f"v{2 * k}", "i1", GradingElement(-4 * k + 1, 1, -4 * k + 1, 0), "v", 2 * k))
        for t in range(1, steps + 1):
            edges.append(DEdge(f"u{2 * t}", "1", f"v{2 * t - 1}"))
            edges.append(DEdge(f"u{2 * t - 1}", "123", f"v{2 * t - 1}"))
            edges.append(DEdge(f"u{2 * t}", "3", f"v{2 * t}"))
            edges.append(DEdge(f"v{2 * t}", "2", f"u{2 * t + 1}"))

    mu_names, chain_edges = unstable_chain(tau, n)
    for j, name in enumerate(mu_names):
        if m > 0:
            grading = GradingElement(2 * j - 1, -1, 2 * j + 1 + 4 * l, 0)
        else:
            grading = GradingElement(-2 * j - 1, -1, -2 * j - 1 + 4 * l, 0)
        gens.append(DGenerator(name, "i1", grading, "mu", j + 1))
    edges.extend(chain_edges)

    # a square whose corner count is c_i lies at level t = i - tau; its
    # gradings are the base square right-multiplied by (t/2; 0, t; 0).  The
    # c_i squares of one level are isomorphic summands, so one square per
    # level is emitted, from its x1 corner on, and copies[t] counts them.
    copies: dict[int, int] = {}
    for serial, i in enumerate(sorted(model.square_counts)):
        t = i - tau
        shift = GradingElement(t, 0, 2 * t, 0)
        tag = f"s{serial}"
        for corner, (idem, base) in _SQUARE_BASE.items():
            gens.append(DGenerator(f"{corner}.{tag}", idem, base * shift, corner[0], int(corner[1]), level=t))
        for src, label, tgt in _SQUARE_EDGES:
            edges.append(DEdge(f"{src}.{tag}", label, f"{tgt}.{tag}"))
        copies[t] = model.square_counts[i]

    return TypeDModule(
        generators=tuple(gens),
        edges=tuple(edges),
        h=framing_h(l, m),
        copies=copies,
    )
