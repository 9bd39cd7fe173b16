"""Shared fixtures: frozen golden data, independent oracles, grid builders.

The oracles here deliberately avoid the library's own code paths: torus-knot
Alexander polynomials are recomputed with local dict arithmetic, and
staircase bigradings follow the standard positive-coefficient-knot pattern
read off the polynomial alone.  The CLI's JSON text is its dict payload
through the standard library's encoder.  The grading-group helpers that only
tests call (half-integer construction, inverses, lambda and the algebra
chord gradings) live here too, with the pattern module's per-generator
grading formulas, a pattern module whose gradings a test injects, the
cell-by-cell symmetry and Euler characteristic of a rank table, which read
its merged ranks only, and the Euler comparison on a whole polynomial.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from cablefloer import (
    DEdge,
    GradingElement,
    LaurentPolynomial,
    RankTable,
    TypeAModule,
    TypeDModule,
    build_typea_minus,
    euler_holds,
    synthesize_delta,
)
from cablefloer.pairing import FAMILY_RUN
from cablefloer.type_d import raised

# rank of the (5,16)-cable of 11n50 per (alexander, maslov), transcribed
# from the published listing; totals 181 over 60 lattice points
GOLDEN_11N50_5_16 = {
    (-40, -78): 2, (40, 2): 2, (-39, -77): 2, (39, 1): 2,
    (-35, -69): 4, (35, 1): 4, (-34, -68): 4, (34, 0): 4,
    (-30, -60): 5, (30, 0): 5, (-29, -59): 5, (29, -1): 5,
    (-25, -52): 1, (-25, -51): 2, (25, -2): 1, (25, -1): 2,
    (-24, -51): 1, (-24, -50): 4, (24, -3): 1, (24, -2): 4,
    (-23, -49): 2, (23, -3): 2,
    (-20, -44): 3, (-20, -43): 2, (20, -4): 3, (20, -3): 2,
    (-19, -43): 5, (19, -5): 5, (-18, -42): 4, (18, -6): 4,
    (-15, -37): 2, (-15, -36): 3, (15, -7): 2, (15, -6): 3,
    (-14, -36): 4, (14, -8): 4, (-13, -35): 5, (13, -9): 5,
    (-10, -30): 3, (-10, -29): 2, (10, -10): 3, (10, -9): 2,
    (-9, -29): 2, (9, -11): 2, (-8, -29): 1, (-8, -28): 4,
    (8, -13): 1, (8, -12): 4, (-7, -27): 2, (7, -13): 2,
    (-5, -24): 3, (-5, -23): 2, (5, -14): 3, (5, -13): 2,
    (-3, -23): 5, (3, -17): 5, (-2, -22): 4, (2, -18): 4,
    (0, -19): 2, (0, -18): 3,
}

DELTA_11N50 = "2,-6,9,-6,2"
DELTA_TREFOIL = "1,-1,1"
DELTA_FIG8 = "-1,3,-1"
DELTA_5_2 = "2,-3,2"

# 55 squares over the 21 levels -10..10, up to three per level
SPREAD_55 = {0: 1, **{i: 3 for i in range(-8, 9) if i}, 9: 2, -9: 2, 10: 1, -10: 1}

# (tau, square counts, p, n) of paired complexes checked against references
ROW_PARAMS = [
    pytest.param(0, {1: 2, 0: 2, -1: 2}, 5, 3, id="golden-11n50"),     # two squares per level
    pytest.param(10, SPREAD_55, 10, 30, id="spread-55"),               # 55 squares over 21 levels
    pytest.param(-2, {1: 2, 0: 3, -1: 2}, 3, -1, id="tau-neg-m-neg"),  # tau < 0, m < 0
    pytest.param(0, {}, 4, 0, id="unknot-n0"),                         # the zero-framed unknot
    pytest.param(3, {0: 1}, 7, -100, id="chain-m106"),                 # long unstable chain
    pytest.param(-2, {}, 6, 96, id="chain-m-100"),                     # long unstable chain
    pytest.param(-1, {1: 1, 0: 2, -1: 1}, 2, 1, id="p2-squares"),      # p = 2: squares of 12 generators
    pytest.param(2, {1: 1, 0: 2, -1: 1}, 4, 4, id="m0-squares"),       # m = 0: D_12 joins staircase ends
    # the widest patterns whose rows are tuples of cells (p = FAMILY_RUN) and the
    # narrowest whose i1 rows are their grading families (p = FAMILY_RUN + 1),
    # squares on three to five levels, with m of each sign and m = 0
    pytest.param(1, {1: 1, 0: 2, -1: 1}, FAMILY_RUN, -2, id="run-m-pos"),              # m = 4
    pytest.param(-1, {2: 1, 0: 1, -2: 1}, FAMILY_RUN, 1, id="run-m-neg"),              # m = -3
    pytest.param(2, {1: 2, 0: 1, -1: 2}, FAMILY_RUN, 4, id="run-m0"),                  # m = 0
    pytest.param(1, {1: 1, 0: 2, -1: 1}, FAMILY_RUN + 1, -2, id="wide-m-pos"),         # m = 4
    pytest.param(-1, {2: 1, 1: 1, 0: 1, -1: 1, -2: 1}, FAMILY_RUN + 1, 1, id="wide-m-neg"),  # m = -3
    pytest.param(2, {1: 2, 0: 1, -1: 2}, FAMILY_RUN + 1, 4, id="wide-m0"),             # m = 0
]


# ---------------------------------------------------------------------------
# grading-group helpers
# ---------------------------------------------------------------------------

#: Central element; commutes with everything since its middle slots vanish.
LAMBDA = GradingElement(2, 0, 0, 0)

_RHO_SINGLE = {
    "1": GradingElement(-1, 1, -1, 0),
    "2": GradingElement(-1, 1, 1, 0),
    "3": GradingElement(-1, -1, 1, 0),
}


def grading_of(a, b, c, d) -> GradingElement:
    """Build from half-integer values given as ints or Fractions."""
    doubled = []
    for value in (a, b, c, d):
        twice = Fraction(value) * 2
        if twice.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        doubled.append(int(twice))
    return GradingElement(*doubled)


def inverse(x: GradingElement) -> GradingElement:
    """x^-1, the negated quadruple (powers are linear)."""
    return GradingElement(-x.a2, -x.b2, -x.c2, -x.d2)


def rho_grading(label: str) -> GradingElement:
    """Grading of an algebra chord element; composites multiply left to right."""
    if label not in ("1", "2", "3", "12", "23", "123"):
        raise ValueError(f"unknown chord label {label!r}")
    out = GradingElement.identity()
    for ch in label:
        out = out * _RHO_SINGLE[ch]
    return out


# ---------------------------------------------------------------------------
# pattern module gradings
# ---------------------------------------------------------------------------

def pattern_gradings(p: int) -> dict[str, GradingElement]:
    """The pattern generators' gradings by name, one formula per generator:
    the oracle for TypeAModule.grading's closed form by position."""
    gradings = {"a": GradingElement.identity()}
    # gr(b_{2p-i-2}) = (-1/2; i+1/2, -1/2; 0),      0 <= i <= p-2
    # gr(b_i)       = ( 1/2; i-1/2, -1/2; i-p),     1 <= i <= p-1
    for i in range(p - 1):
        gradings[f"b{2 * p - i - 2}"] = GradingElement(-1, 2 * i + 1, -1, 0)
    for i in range(1, p):
        gradings[f"b{i}"] = GradingElement(1, 2 * i - 1, -1, 2 * (i - p))
    return gradings


def module_gradings(A: TypeAModule) -> dict[str, GradingElement]:
    """Every grading A forms, keyed by its generator's name, read by group position."""
    return {name: A.grading(idempotent, k)
            for idempotent in ("i0", "i1") for k, name in enumerate(A.group(idempotent))}


class InjectedPattern(TypeAModule):
    """A p = 2 pattern module whose gradings a test chooses: ys are those of
    a, b1 and b2, kept beside the module's fields p and g.  At p = 2 every
    grading family has one generator, so the pairing normalizes each of
    them and never extends a family."""

    def __new__(cls, g: GradingElement, ys):
        module = super().__new__(cls, 2, g)
        module.ys = tuple(ys)
        return module

    def grading(self, idempotent: str, k: int) -> GradingElement:
        return self.ys[k if idempotent == "i0" else k + 1]


def injected_pattern(ys, g: GradingElement | None = None) -> InjectedPattern:
    """The p = 2 pattern module with gradings ys (a, b1, b2) and left normalizer g."""
    return InjectedPattern(build_typea_minus(2).g if g is None else g, ys)


# ---------------------------------------------------------------------------
# independent polynomial arithmetic (dict degree -> coeff, local to tests)
# ---------------------------------------------------------------------------

def poly_mul(A: dict, B: dict) -> dict:
    out: dict[int, int] = {}
    for i, x in A.items():
        for j, y in B.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def poly_div(A: dict, B: dict) -> dict:
    A = dict(A)
    out: dict[int, int] = {}
    deg_b = max(B)
    while A:
        deg = max(A)
        q, r = divmod(A[deg], B[deg_b])
        assert r == 0, "non-exact division in test oracle"
        out[deg - deg_b] = q
        for d, c in B.items():
            nd = deg - deg_b + d
            A[nd] = A.get(nd, 0) - q * c
            if not A[nd]:
                del A[nd]
    return out


def oracle_torus_delta(p: int, q: int) -> dict:
    """Symmetrized torus-knot Alexander polynomial, test-local route."""
    q = abs(q)
    if q == 1:
        return {0: 1}
    num = poly_mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    den = poly_mul({p: 1, 0: -1}, {q: 1, 0: -1})
    quot = poly_div(num, den)
    shift = (p - 1) * (q - 1) // 2
    return {d - shift: c for d, c in quot.items()}


def oracle_cable_delta(delta: LaurentPolynomial, p: int, q: int) -> dict:
    inflated = {p * d: c for d, c in delta.items()}
    return poly_mul(inflated, oracle_torus_delta(p, q))


def oracle_staircase(delta: dict, mirror: bool = False) -> dict:
    """Bigraded ranks of the staircase knot with the given alternating delta.

    Exponents descend a_0 > a_1 > ...; maslov starts at 0 and drops by
    2*(gap) - 1 into odd positions and by 1 into even ones.  The mirror
    flag negates both gradings.
    """
    degrees = sorted((d for d, c in delta.items() if c), reverse=True)
    signs = [delta[d] for d in degrees]
    if signs[0] < 0:
        signs = [-s for s in signs]
    assert all(abs(s) == 1 for s in signs), "staircase oracle needs +-1 coefficients"
    assert all(signs[i] == (-1) ** (i % 2) for i in range(len(signs))), "signs must alternate"
    table: dict[tuple[int, int], int] = {}
    maslov = 0
    for i, degree in enumerate(degrees):
        if i > 0:
            gap = degrees[i - 1] - degree
            maslov += (1 - 2 * gap) if i % 2 else -1
        table[(degree, maslov)] = 1
    if mirror:
        table = {(-a, -m): r for (a, m), r in table.items()}
    return table


# ---------------------------------------------------------------------------
# cell-by-cell checks on a table's merged ranks, the references of the run
# path's symmetry_holds and euler_holds
# ---------------------------------------------------------------------------

def check_symmetry(table: RankTable) -> bool:
    """rank(a, m) == rank(-a, m - 2a) for every entry, cell by cell."""
    ranks = table.ranks  # a property: read once, not per cell
    return all(ranks.get((-a, m - 2 * a)) == r for (a, m), r in ranks.items())


def euler_characteristic(table: RankTable) -> LaurentPolynomial:
    """Alternating-sign rank sum per Alexander grading, cell by cell."""
    coeffs: dict[int, int] = {}
    for (a, m), r in table.ranks.items():
        coeffs[a] = coeffs.get(a, 0) + (-r if m & 1 else r)
    return LaurentPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Euler characteristic against the satellite formula
# ---------------------------------------------------------------------------

def times_binomial(f: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """f * (t^k - 1) in one pass over the terms."""
    out = {deg + k: coeff for deg, coeff in f.items()}
    for deg, coeff in f.items():
        out[deg] = out.get(deg, 0) - coeff
    return LaurentPolynomial(out)


def euler_matches_cable(euler: LaurentPolynomial, delta: LaurentPolynomial, p: int, q: int) -> bool:
    """euler == delta(t^p) * Delta_T(p,q), decided by the run path's
    binomial comparison (invariants.euler_holds) on a polynomial rather
    than on a table's parts: a table of no progressions whose cells carry
    euler's coefficients, a positive one at Maslov grading 0 and a negative
    one at 1."""
    return euler_holds(RankTable({(a, 0 if c > 0 else 1): abs(c) for a, c in euler.items()}), delta, p, q)


# ---------------------------------------------------------------------------
# CLI JSON text through the standard library encoder
# ---------------------------------------------------------------------------

def oracle_json_text(result) -> str:
    """The README's JSON schema for one CableHomology, as its dict payload
    through `json.dumps(payload, indent=2)`: the reference the CLI's writer
    must equal byte for byte."""
    delta, g = result.delta, result.model.params.g
    cells = sorted(result.table.ranks.items(), key=lambda cell: (-cell[0][0], -cell[0][1]))
    payload = {
        "input": {
            "delta": [delta.coeff(d) for d in range(-g, g + 1)],
            "tau": result.tau,
            "p": result.p,
            "n": result.n,
            "q": result.q,
        },
        "tau": result.cable_tau,
        "total_rank": result.table.total,
        "ranks": [{"a": a, "m": m, "rank": rank} for (a, m), rank in cells],
        "checks": {**result.checks,
                   "table": {"value": result.table_value, "match": result.checks["table"]}},
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# complement module with every square level and copy written out
# ---------------------------------------------------------------------------

def expand_levels(D: TypeDModule) -> TypeDModule:
    """D with its one square written out at every level of D.copies, one
    square of corners with no level per level and copy, and copies empty,
    so that every generator stands for itself once.  Level t's square,
    serial its position in ascending order, has corners named
    corner.s<serial> (the stored name raised by serial, type_d.raised), graded
    by the group product of the stored corner and the shift (dt/2; 0, dt; 0)
    of the level difference, and copy k > 0 of a corner is named
    corner.s<serial>#k.  The generators are listed in the order of the
    pairing's view: corner by corner, every level in turn, the copies of a
    level in a row.  The generic matcher walks this module in full, as an
    independent reference for the pairing's translation of the square."""
    if not D.copies:
        return D
    levels = list(enumerate(sorted(D.copies)))

    def written(name: str, level: int) -> list[tuple[str, int]]:
        """(name, level difference) of every copy of the corner stored as name."""
        return [(copy_name(raised(name, serial), k), t - level)
                for serial, t in levels for k in range(D.copies[t])]

    level_of = {g.name: g.level for g in D.generators if g.level is not None}
    gens = []
    for g in D.generators:
        if g.level is None:
            gens.append(g)
        else:
            gens += [g._replace(name=name, level=None, grading=g.grading * GradingElement(dt, 0, 2 * dt, 0))
                     for name, dt in written(g.name, g.level)]
    edges = []
    for e in D.edges:
        if e.source in level_of:
            edges += [DEdge(source, e.label, target) for (source, _), (target, _) in zip(
                written(e.source, level_of[e.source]), written(e.target, level_of[e.target]))]
        else:
            edges.append(e)
    return D._replace(generators=tuple(gens), edges=tuple(edges), copies={})


def expand_chain(D: TypeDModule) -> TypeDModule:
    """D with the unstable chain's interior written out: the chain entry,
    which stands for length generators, replaced in its place in D order by
    one "mu" generator of length 1 per chain position, with no edge (the
    chain's D_23 edges meet no hat operation and are not stored).  The
    pairing's record path walks this module generator by generator, as an
    independent reference for the chain's progression."""
    gens = []
    for g in D.generators:
        if g.length == 1:
            gens.append(g)
            continue
        x = g.grading
        gens += [g._replace(name=f"mu{g.index + r}", grading=x._replace(a2=x.a2 + r * g.step, c2=x.c2 + r * g.step),
                            index=g.index + r, length=1, step=0) for r in range(g.length)]
    return D._replace(generators=tuple(gens))


def written_out(D: TypeDModule) -> TypeDModule:
    """D with the chain's interior and every square level and copy written out."""
    return expand_levels(expand_chain(D))


def named_arrows(A, D) -> list:
    """tensor_differential(A, D) with every arrow end named: a quad
    (d_src, a_pos_src, d_tgt, a_pos_tgt) becomes ((a_src, d_src), (a_tgt,
    d_tgt)), a D index naming its D generator and an A position naming the
    A generator at that position among those pairing with its idempotent."""
    from cablefloer import tensor_differential

    def name(d, k):
        d_gen = D.generators[d]
        return [a for a in A.generators if A.pairs_with(a) == d_gen.idempotent][k], d_gen.name

    return [(name(d_src, a_src), name(d_tgt, a_tgt)) for d_src, a_src, d_tgt, a_tgt in tensor_differential(A, D)]


def copy_name(name: str, k: int) -> str:
    return f"{name}#{k}" if k else name


def stored_name(name: str) -> str:
    """The name that copy `name` of expand_levels has in the pairing's view."""
    return name.split("#")[0]


# ---------------------------------------------------------------------------
# thin-input grid
# ---------------------------------------------------------------------------

def thin_grid_cases(seed: int = 0):
    """Randomized-but-reproducible grid: |tau| <= 2, g <= 4, p <= 5, |n| <= 4."""
    rng = random.Random(seed)
    cases = []
    for tau in (-2, -1, 0, 1, 2):
        configs = [{}]
        for _ in range(2):
            counts: dict[int, int] = {}
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(-3, 4)
                counts[i] = counts.get(i, 0) + 1
                if i:
                    counts[-i] = counts.get(-i, 0) + 1
            configs.append(counts)
        for counts in configs:
            delta = synthesize_delta(tau, counts)
            if delta.top_degree > 4:
                continue
            for p in (2, 3, 4, 5):
                for n in range(-4, 5):
                    cases.append((delta, tau, p, n))
    return cases


@pytest.fixture(scope="session")
def grid_cases():
    return thin_grid_cases()


@pytest.fixture(scope="session")
def grid_results(grid_cases):
    from cablefloer import compute_cable_hfk

    return {(delta, tau, p, n): compute_cable_hfk(delta, tau, p, n)
            for delta, tau, p, n in grid_cases}
