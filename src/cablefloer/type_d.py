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

The module is built in index coordinates: each entry is a plain tuple of
its idempotent, grading, kind, index, level, length and step, and the D_1,
D_2 and D_12 edges are successor maps from entry index to entry index,
which the pairing walks as they are.  Names (u3, x1.s0, mu2) and the
DGenerator and DEdge records are formed only where something reads them:
refusals, the closed-form cross-check, the self-check, the tests and the
benchmark's counts.  TypeDModule.from_edges builds a module from named
records and an edge list, and refuses a generator with two edges of one
label.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .gradings import GradingElement
from .thin import ThinModel


class ComplexError(RuntimeError):
    """Structural failure: a complement generator with two edges of one
    label, an arrow that does not join stored generators of one summand, a
    mis-graded arrow, a generator on two arrows, or a long grading family
    whose Alexander grading is not affine."""


class DEdge(NamedTuple):
    source: str
    label: str  # 1, 2 or 12
    target: str


class DGenerator(NamedTuple):
    """A stored entry with its name: TypeDModule.generators forms it when read."""

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
    """The module in index coordinates.  Entry j is the tuple (idempotent,
    grading, kind, index, level, length, step) of DGenerator without its
    name, and ones, twos and twelves map an entry to the target of its D_1,
    D_2 or D_12 edge, at most one of each.  An entry is named by its kind
    and index (u3, mu2), with ".s0" on a square corner (x1.s0), unless the
    module was built from named generators (from_edges); generators and
    edges form the records on each read."""

    entries: tuple[tuple, ...]
    ones: Mapping[int, int]
    twos: Mapping[int, int]
    twelves: Mapping[int, int]
    h: GradingElement
    # square count c_t per level t, ascending; the entries with a level
    # are one square, which stands for the c_t isomorphic squares of every
    # level t.  Empty, every entry stands for itself once; the empty
    # default is read-only, as every instance shares it.
    copies: Mapping[int, int] = MappingProxyType({})
    names: tuple[str, ...] | None = None

    @classmethod
    def from_edges(cls, generators: tuple[DGenerator, ...], edges, h: GradingElement,
                   copies: Mapping[int, int] = MappingProxyType({})) -> TypeDModule:
        """The module of these generators and edges; an edge of a label
        other than 1, 2 and 12 meets no hat operation and is dropped, and a
        generator with two edges of one of those labels raises ComplexError."""
        index = {gen.name: j for j, gen in enumerate(generators)}
        out = {"1": {}, "2": {}, "12": {}}
        for source, label, target in edges:
            step = out.get(label, {})
            if index[source] in step:
                raise ComplexError(f"complement generator {source} has two D_{label} edges")
            step[index[source]] = index[target]
        # out's values are the ones, twos and twelves, in field order
        return cls(tuple(gen[1:] for gen in generators), *out.values(), h, copies, tuple(gen[0] for gen in generators))

    @property
    def generators(self) -> tuple[DGenerator, ...]:
        names = self.names or [f"{kind}{index}" if level is None else f"{kind}{index}.s0"
                               for _, _, kind, index, level, _, _ in self.entries]
        return tuple(DGenerator(name, *entry) for name, entry in zip(names, self.entries))

    @property
    def edges(self) -> tuple[DEdge, ...]:
        """Every stored edge, the D_1 edges first, then D_2, then D_12."""
        names = [gen.name for gen in self.generators]
        return tuple(DEdge(names[j], label, names[target]) for label, step in
                     (("1", self.ones), ("2", self.twos), ("12", self.twelves)) for j, target in step.items())


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
    tau, l = model.params.tau, model.params.l
    steps = abs(tau)
    m = 2 * tau - n

    entries: list[tuple] = []
    ones, twos, twelves = {}, {}, {}  # entry -> the target of its D_1, D_2, D_12 edge

    # every staircase generator is a square corner at a level: u_i is x3 (the
    # identity) at level sigma*(i - 1), and v_j is y4 (odd j) or y3 (even j)
    # at level j - 1 for tau <= 0, -j for tau > 0 -- the level of u_j or
    # u_{j+1}, so each v reuses the shift of the u emitted with it
    sigma = 1 if tau <= 0 else -1
    for i in range(1, 2 * steps + 2):
        level = sigma * (i - 1)
        entries.append(("i0", GradingElement(level, 0, 2 * level, 0), "u", i, None, 1, 0))
        j = i if tau <= 0 else i - 1
        if 1 <= j <= 2 * steps:
            entries.append(("i1", _at_level(_SQUARE_BASE["y4" if j % 2 else "y3"], level), "v", j, None, 1, 0))
    # step k joins u_k, u_{k+1}, u_{k+2} through v_k, v_{k+1}: a vertical
    # model arrow through v_k and a horizontal one through v_{k+1}, leaving
    # the odd u's (lo -> mid, hi -> mid) for tau <= 0 and the even u
    # (mid -> lo, mid -> hi) for tau > 0.  The entries run u_1, v_1, u_2,
    # v_2, .. for tau <= 0 and u_1, u_2, v_1, u_3, v_2, .. for tau > 0, so
    # the vertical arrow's D_1 edge joins entry e = 2k - 2 + late to e + 1,
    # and the horizontal one's D_2 edge e + 3 to e + 2
    late = int(tau > 0)
    for e in range(late, 4 * steps - 2 + late, 4):
        ones[e], twos[e + 3] = e + 1, e + 2

    # the unstable chain joins the ends u_top (the last u) and u_1 (entry
    # 0): m = 0 gives one D_12 edge (a self-loop when tau = 0), m > 0 the
    # edge u_top --D1--> mu_1 and m < 0 the edge mu_|m| --D2--> u_1; the
    # chain entry lists the other |m| - 1 after mu_1 or before mu_|m|, in
    # chain order
    top = len(entries) - 1 - late
    if m == 0:
        twelves[top] = 0
    else:
        sign, length = (1, m) if m > 0 else (-1, -m)
        end, index = (1, 2) if m > 0 else (length, 1)
        mus = [("i1", _mu(end, sign, l), "mu", end, None, 1, 0)]
        if length > 1:
            mus.insert(1 if m > 0 else 0, ("i1", _mu(index, sign, l), "mu", index, None, length - 1, 2 * sign))
        if m > 0:
            ones[top] = len(entries)
        else:
            twos[len(entries) + len(mus) - 1] = 0
        entries += mus

    # a square whose corner count is c_i lies at level t = i - tau; its
    # gradings are the base square right-multiplied by (t/2; 0, t; 0).  The
    # squares of all levels are isomorphic summands whose gradings differ by
    # such shifts, so one square is emitted, at the lowest level, from its
    # x1 corner on, and copies[t] counts the squares of every level t.
    copies = {i - tau: model.square_counts[i] for i in sorted(model.square_counts)}
    if copies:
        t = next(iter(copies))
        x1 = len(entries)  # the corners follow in _SQUARE_BASE order, x1 .. x4 then y1 .. y4
        entries += [(idem, _at_level(base, t), kind, index, t, 1, 0) for idem, kind, index, base in _CORNERS]
        # vertical model arrows x1 -> x3 through y4 and x2 -> x4 through y2,
        # horizontal ones x1 -> x2 through y1 and x3 -> x4 through y3
        ones[x1], ones[x1 + 1], twos[x1 + 4], twos[x1 + 6] = x1 + 7, x1 + 5, x1 + 1, x1 + 3

    return TypeDModule(tuple(entries), ones, twos, twelves, framing_h(l, m), copies)
