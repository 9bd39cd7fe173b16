"""The complement-side module of a framed thin knot.

Built directly from a :class:`~cablefloer.thin.ThinModel`: the staircase
contributes generators u_1 .. u_{2|tau|+1} (idempotent i0) and v_1 .. v_{2|tau|}
(idempotent i1), the squares are one square of corners x_1 .. x_4 (i0) and
y_1 .. y_4 (i1), stored once at the lowest level t_0 and standing for the
c_t squares of every level t, and the framing-dependent unstable chain
joins the two staircase ends through extra i1 generators mu_1 .. mu_|m|,
m = 2*tau - n.  Only the edges a hat operation reads are stored: every hat
operation's chords are a prefix (nothing or rho_2), then rho_12^i, then
rho_1, so a D_3, D_23 or D_123 edge never meets an operation and adds
nothing to the box tensor product.  That leaves one edge per model arrow of
the staircase and the square: a vertical arrow u -> u' through v stores
u --D1--> v, and a horizontal one v --D2--> u'.  Every staircase and square
generator is a level-0 square corner right-multiplied by the shift
(t/2; 0, t; 0) of its Alexander level t; in doubled slots that product
takes (a2, b2, c2, d2) to (a2 + t*(1 + b2), b2, c2 + 2t, d2), which is
written directly instead of multiplied out per corner.  The squares of
every level are that one square moved by the shift of the level
difference, so the pairing places the stored square's part of the complex
at every level (see pairing.py).  The chain stores one edge: D_12 from
u_top to u_1 when m = 0, else the one at its end, D_1 into mu_1 when m > 0
or D_2 out of mu_|m| when m < 0.  That end is a generator, and the other
|m| - 1, whose gradings step by a constant, are one more entry of the
generator list: the chain entry stands for its length translates by its
step, as the stored square stands for its levels.  Every generator carries
a right-coset grading; the coset normalizer h depends on m.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .gradings import GradingElement
from .thin import ThinModel


class DEdge(NamedTuple):
    source: str
    label: str  # 1, 2 or 12
    target: str


class DGenerator(NamedTuple):
    name: str
    idempotent: str  # "i0" or "i1"
    grading: GradingElement
    kind: str  # "u", "v", "mu", "x", "y"
    index: int  # subscript within its kind
    level: int | None = None  # diagonal level it is stored at, squares only
    # the chain entry stands for mu<index> .. mu<index + length - 1>, each
    # next one adding step to the doubled a and c slots; none has an edge a
    # hat operation reads, so none has a stored edge.  Every other generator
    # stands for itself: length 1.
    length: int = 1
    step: int = 0


class TypeDModule(NamedTuple):
    generators: tuple[DGenerator, ...]
    edges: tuple[DEdge, ...]  # D_1 and D_2, one per model arrow, and the chain's one edge
    h: GradingElement
    # square count c_t per level t, ascending; the generators with a level
    # are one square, which stands for the c_t isomorphic squares of every
    # level t.  Empty, every generator stands for itself once; the empty
    # default is read-only, as every instance shares it.
    copies: Mapping[int, int] = MappingProxyType({})


def framing_h(l: int, m: int) -> GradingElement:
    """Right coset normalizer (m/2 - 1/2 - l; -1, m + 2l; 0); valid for every m."""
    return GradingElement(m - 1 - 2 * l, -2, 2 * (m + 2 * l), 0)


def raised(name: str, r: int) -> str:
    """name with its trailing number raised by r: the name of the r-th
    repetition of a stored generator, mu2 -> mu3 along the chain and
    x1.s0 -> x1.s<r> from the stored square's level to the r-th level up."""
    stem = name.rstrip("0123456789")
    return f"{stem}{int(name[len(stem):]) + r}"


def _mu(j: int, sign: int, l: int) -> GradingElement:
    """Grading of mu_j on the chain of m's sign."""
    return GradingElement(2 * sign * (j - 1) - 1, -1, 2 * sign * (j - 1) + sign + 4 * l, 0)


# square corners at level 0: x1 has both outgoing model arrows, x2 is its
# horizontal target, x3 its vertical target and x4 the remaining corner
_SQUARE_BASE = {
    "x1": GradingElement(0, 0, 0, 0),
    "x2": GradingElement(-1, 0, -2, 0),
    "x3": GradingElement(0, 0, 0, 0),
    "x4": GradingElement(1, 0, 2, 0),
    "y1": GradingElement(-1, 1, -1, 0),
    "y2": GradingElement(-1, -1, -1, 0),
    "y3": GradingElement(1, 1, 1, 0),
    "y4": GradingElement(-1, -1, 1, 0),
}
# (idempotent, kind, index, base grading) of each corner, in _SQUARE_BASE order
_CORNERS = tuple(("i0" if corner[0] == "x" else "i1", corner[0], int(corner[1]), base)
                 for corner, base in _SQUARE_BASE.items())


def _at_level(base: GradingElement, t: int) -> GradingElement:
    """The corner of level-0 grading base at level t: base * (t/2; 0, t; 0),
    in closed form, with no group product."""
    a2, b2, c2, d2 = base
    return GradingElement(a2 + t * (1 + b2), b2, c2 + 2 * t, d2)


def build_typed(model: ThinModel, n: int) -> TypeDModule:
    """Assemble the complement module for framing n."""
    tau = model.params.tau
    l = model.params.l
    steps = abs(tau)
    m = 2 * tau - n

    gens: list[DGenerator] = []
    edges: list[DEdge] = []

    # every staircase generator is a square corner at a level: u_i is x3 (the
    # identity) at level sigma*(i - 1), and v_j is y4 (odd j) or y3 (even j)
    # at level j - 1 for tau <= 0, -j for tau > 0 -- the level of u_j or
    # u_{j+1}, so each v reuses the shift of the u emitted with it
    sigma = 1 if tau <= 0 else -1
    for i in range(1, 2 * steps + 2):
        level = sigma * (i - 1)
        gens.append(DGenerator(f"u{i}", "i0", GradingElement(level, 0, 2 * level, 0), "u", i))
        j = i if tau <= 0 else i - 1
        if 1 <= j <= 2 * steps:
            corner = _SQUARE_BASE["y4" if j % 2 else "y3"]
            gens.append(DGenerator(f"v{j}", "i1", _at_level(corner, level), "v", j))
    # step k joins u_k, u_{k+1}, u_{k+2} through v_k, v_{k+1}: a vertical
    # model arrow through v_k and a horizontal one through v_{k+1}, leaving
    # the odd u's (lo -> mid, hi -> mid) for tau <= 0 and the even u
    # (mid -> lo, mid -> hi) for tau > 0
    for k in range(1, 2 * steps, 2):
        lo, mid, hi, v, w = f"u{k}", f"u{k + 1}", f"u{k + 2}", f"v{k}", f"v{k + 1}"
        if tau <= 0:
            edges += [DEdge(lo, "1", v), DEdge(w, "2", mid)]
        else:
            edges += [DEdge(mid, "1", v), DEdge(w, "2", hi)]

    # the unstable chain joins the ends u_top and u_1: m = 0 gives one D_12
    # edge (a self-loop when tau = 0), m > 0 the edge u_top --D1--> mu_1 and
    # m < 0 the edge mu_|m| --D2--> u_1; the chain entry lists the other
    # |m| - 1 after mu_1 or before mu_|m|, in chain order
    top, bottom = f"u{2 * steps + 1}", "u1"
    if m == 0:
        edges.append(DEdge(top, "12", bottom))
    else:
        sign, length = (1, m) if m > 0 else (-1, -m)
        end, index = (1, 2) if m > 0 else (length, 1)
        mus = [DGenerator(f"mu{end}", "i1", _mu(end, sign, l), "mu", end)]
        if length > 1:
            interior = DGenerator(f"mu{index}", "i1", _mu(index, sign, l), "mu", index, length=length - 1,
                                  step=2 * sign)
            mus.insert(1 if m > 0 else 0, interior)
        gens += mus
        edges.append(DEdge(top, "1", "mu1") if m > 0 else DEdge(f"mu{length}", "2", bottom))

    # a square whose corner count is c_i lies at level t = i - tau; its
    # gradings are the base square right-multiplied by (t/2; 0, t; 0).  The
    # squares of all levels are isomorphic summands whose gradings differ by
    # such shifts, so one square is emitted, at the lowest level, from its
    # x1 corner on, and copies[t] counts the squares of every level t.
    copies = {i - tau: model.square_counts[i] for i in sorted(model.square_counts)}
    if copies:
        t = next(iter(copies))
        names = [f"{corner}.s0" for corner in _SQUARE_BASE]
        gens += [DGenerator(name, idem, _at_level(base, t), kind, index, t)
                 for name, (idem, kind, index, base) in zip(names, _CORNERS)]
        # vertical model arrows x1 -> x3 through y4 and x2 -> x4 through y2,
        # horizontal ones x1 -> x2 through y1 and x3 -> x4 through y3
        x1, x2, x3, x4, y1, y2, y3, y4 = names
        edges += [DEdge(x1, "1", y4), DEdge(x2, "1", y2), DEdge(y1, "2", x2), DEdge(y3, "2", x4)]

    return TypeDModule(
        generators=tuple(gens),
        edges=tuple(edges),
        h=framing_h(l, m),
        copies=copies,
    )
