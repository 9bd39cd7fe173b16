from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cablefloer import (
    DGenerator,
    GradingElement,
    GradingError,
    TypeDModule,
    build_typea_minus,
    normalize_double_coset,
    tensor_gradings,
)

from conftest import LAMBDA, grading_of as gel, injected_pattern, inverse, rho_grading

F = Fraction
half = F(1, 2)


# normalizers of the left-trefoil example: p = 2, framing -2
G_P2 = gel(-half, 0, 1, 2)
H_LT = gel(-F(3, 2), -1, 2, 0)


class TestGroupLaw:
    def test_determinant_twist(self):
        assert gel(0, 1, 0, 0) * gel(0, 0, 1, 0) == gel(1, 1, 1, 0)
        assert gel(0, 0, 1, 0) * gel(0, 1, 0, 0) == gel(-1, 1, 1, 0)

    def test_identity(self):
        x = gel(-half, half, -half, 3)
        e = GradingElement.identity()
        assert x * e == x and e * x == x

    def test_rho_product(self):
        assert rho_grading("1") * rho_grading("2") == gel(-half, 1, 0, 0)

    def test_inverse_examples(self):
        assert inverse(GradingElement.identity()) == GradingElement.identity()
        x = gel(-half, half, -half, 0)
        assert inverse(x) == gel(half, -half, half, 0)
        assert x * inverse(x) == GradingElement.identity()

    def test_powers(self):
        assert LAMBDA**3 == gel(3, 0, 0, 0)
        assert G_P2**-2 == gel(1, 0, -2, -4)
        assert G_P2**-3 == gel(F(3, 2), 0, -3, -6)
        h = gel(-half, half, -half, 0)
        assert h**1 == h and h**0 == GradingElement.identity()

    def test_of_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            gel(F(1, 3), 0, 0, 0)


    def test_record_contract(self):
        """An immutable value, equal and hashed by value; refusal messages
        embed its str and repr, and tests compare them word for word."""
        x = GradingElement(1, -1, 3, 0)
        with pytest.raises(AttributeError):
            x.a2 = 0
        assert x == GradingElement(1, -1, 3, 0) and hash(x) == hash(GradingElement(1, -1, 3, 0))
        assert x != GradingElement(1, -1, 3, 2)
        assert str(x) == "(1/2; -1/2, 3/2; 0)"
        assert repr(x) == "GradingElement(a2=1, b2=-1, c2=3, d2=0)"
        with pytest.raises(ArithmeticError, match="determinant term is not a half-integer"):
            GradingElement(0, 1, 0, 0) * GradingElement(0, 0, 1, 0)


class TestRhoGradings:
    def test_singles(self):
        assert rho_grading("1") == gel(-half, half, -half, 0)
        assert rho_grading("2") == gel(-half, half, half, 0)
        assert rho_grading("3") == gel(-half, -half, half, 0)

    def test_composites(self):
        assert rho_grading("12") == gel(-half, 1, 0, 0)
        assert rho_grading("23") == gel(-half, 0, 1, 0)
        assert rho_grading("123") == rho_grading("1") * rho_grading("2") * rho_grading("3")

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            rho_grading("13")


class TestNormalize:
    def test_identity(self):
        assert normalize_double_coset(GradingElement.identity(), G_P2, H_LT) == (0, 0)

    def test_staircase_generator(self):
        assert normalize_double_coset(gel(1, 0, 2, 0), G_P2, H_LT) == (2, -4)

    def test_offdiagonal_generator(self):
        assert normalize_double_coset(gel(3, 1, 1, -1), G_P2, H_LT) == (6, -7)

    def test_half_integer_b_slot_rejected(self):
        with pytest.raises(GradingError):
            normalize_double_coset(gel(0, half, 0, 0), G_P2, H_LT)

    def test_bad_normalizers_rejected(self):
        with pytest.raises(GradingError):
            normalize_double_coset(GradingElement.identity(), H_LT, H_LT)
        with pytest.raises(GradingError):
            normalize_double_coset(GradingElement.identity(), G_P2, G_P2)


# the group lives on quadruples whose middle slots share their half-part
# (b + c is an integer for every algebra and module grading)
elements = st.builds(
    lambda a2, b, c, d2, fringe: GradingElement(a2, 2 * b + fringe, 2 * c + fringe, d2),
    st.integers(-12, 12),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-12, 12),
    st.integers(0, 1),
)


@given(elements, elements, elements)
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements)
def test_group_inverse(x):
    assert x * inverse(x) == GradingElement.identity()
    assert inverse(x) * x == GradingElement.identity()


@given(elements)
def test_lambda_central(x):
    assert LAMBDA * x == x * LAMBDA


def iterated_power(x, k):
    out = GradingElement.identity()
    for _ in range(abs(k)):
        out = out * (x if k > 0 else inverse(x))
    return out


@given(elements, st.integers(-200, 200))
def test_power_matches_iterated_product(x, k):
    assert x**k == iterated_power(x, k)


# shifts by g and h powers must not change the double-coset coordinates;
# only elements that actually normalize to integers are in scope
even_elements = st.builds(
    lambda a, b, c, d: GradingElement(2 * a, 2 * b, 2 * c, 2 * d),
    *(st.integers(-6, 6) for _ in range(4)),
)


@given(even_elements, st.integers(-3, 3), st.integers(-3, 3))
def test_double_coset_invariance(x, j, k):
    try:
        base = normalize_double_coset(x, G_P2, H_LT)
    except GradingError:
        assume(False)
    shifted = normalize_double_coset(G_P2**j * x * H_LT**k, G_P2, H_LT)
    assert base == shifted


# any valid normalizers: g = (ga; 0, 1; gd) and h = (ha; -1, hc; hd)
left_normalizers = st.builds(
    lambda a2, d2: GradingElement(a2, 0, 2, d2), st.integers(-12, 12), st.integers(-12, 12)
)
right_normalizers = st.builds(
    lambda a2, c, d2: GradingElement(a2, -2, 2 * c, d2),
    st.integers(-12, 12),
    st.integers(-6, 6),
    st.integers(-12, 12),
)


def reference_normalize(x, g, h):
    """Normalization by the group law alone: iterated products of h, then g."""
    if x.b2 % 2:
        raise GradingError("b slot")
    y = x * iterated_power(h, x.b2 // 2)
    assert y.b2 == 0
    if y.c2 % 2:
        raise GradingError("c slot")
    z = iterated_power(g, -(y.c2 // 2)) * y
    assert (z.b2, z.c2) == (0, 0)
    if z.a2 % 2 or z.d2 % 2:
        raise GradingError("entries")
    return (z.a2 // 2, z.d2 // 2)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (GradingError, ArithmeticError) as exc:
        return type(exc)


@given(elements, left_normalizers, right_normalizers)
def test_normalize_matches_group_law(x, g, h):
    assert outcome(normalize_double_coset, x, g, h) == outcome(reference_normalize, x, g, h)


# complement gradings: b slot -1, 0 or 1, and a c slot of either parity, so
# the determinant and c-slot failures both occur
d_gradings = st.builds(
    GradingElement,
    st.integers(-12, 12),
    st.sampled_from((-1, 0, 1)),
    st.integers(-12, 12),
    st.integers(-12, 12),
)


def affine_rows(ys, xs, g, h):
    """(N, A') of every tensor generator of a pattern with A gradings ys
    (a, b1, b2) and complement generators xs of (idempotent, grading)."""
    A = injected_pattern(ys, g)
    gens = tuple(DGenerator(f"x{j}", idem, x, "x", j) for j, (idem, x) in enumerate(xs))
    D = TypeDModule.from_edges(gens, (), h)
    return [value[:2] for value in tensor_gradings(A, D, 0).values()]


@settings(max_examples=300)
@given(st.lists(elements, min_size=3, max_size=3),
       st.lists(st.tuples(st.sampled_from(("i0", "i1")), d_gradings), min_size=1, max_size=4),
       left_normalizers, right_normalizers)
def test_affine_rows_match_group_law(ys, xs, g, h):
    """Rows translated from the anchor row of each (idempotent, b slot)
    against one normalize_double_coset(y * x, g, h) per generator, values and
    first error."""

    def reference():
        return [normalize_double_coset(y * x, g, h)
                for idem, x in xs for y in (ys[:1] if idem == "i0" else ys[1:])]

    assert outcome(affine_rows, ys, xs, g, h) == outcome(reference)


shifts = st.lists(st.tuples(*(st.integers(-2, 2) for _ in range(3))), max_size=4)


@given(elements, st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3), st.sampled_from((-1, 1)),
       left_normalizers, right_normalizers, shifts)
def test_affine_rows_near_a_double_coset(y, N, Aprime, k, sign, g, h, shifts):
    """An anchor x with y * x = g^k (N; 0, 0; A') h^j normalizes to (N, A');
    gradings shifted from it in the a, c and d slots are then its row
    translated, and hit every outcome: values, entries that are not
    integers, and c slots of the wrong parity."""
    b2 = sign * (y.b2 % 2)
    x = inverse(y) * g**k * GradingElement(2 * N, 0, 0, 2 * Aprime) * h ** ((-y.b2 - b2) // 2)
    assert x.b2 == b2
    assert affine_rows([y, y, y], [("i0", x)], g, h) == [normalize_double_coset(y * x, g, h)] == [(N, Aprime)]
    xs = [x] + [GradingElement(x.a2 + da, b2, x.c2 + dc, x.d2 + dd) for da, dc, dd in shifts]
    assert outcome(affine_rows, [y, y, y], [("i0", x) for x in xs], g, h) == outcome(
        lambda: [normalize_double_coset(y * x, g, h) for x in xs])


def outcome_and_message(fn, *args):
    try:
        return fn(*args)
    except (GradingError, ArithmeticError) as exc:
        return type(exc), str(exc)



@settings(max_examples=300)
@given(st.integers(2, 60), right_normalizers, st.data())
def test_anchor_row_matches_one_normalization_per_generator(p, h, data):
    """The anchor row of an i1 complement generator x, which normalizes the
    first three b_k of each grading family and extends the rest, against
    one normalize_double_coset(gr(b_k) * x, g, h) per b_k on the real
    pattern gradings: the same values, or the same first error, type and
    message.  Half the x are built from a known double-coset representative
    of a drawn b_k, so that whole rows of values occur."""
    A = build_typea_minus(p)
    ys = [A.grading("i1", k) for k in range(2 * p - 2)]
    if data.draw(st.booleans(), label="from a representative"):
        y = data.draw(st.sampled_from(ys), label="y")
        N, Aprime, k = (data.draw(st.integers(-6, 6), label=name) for name in ("N", "A'", "k"))
        b2 = data.draw(st.sampled_from((-1, 1)), label="b slot")
        x = inverse(y) * A.g**k * GradingElement(2 * N, 0, 0, 2 * Aprime) * h ** ((-y.b2 - b2) // 2)
        assert x.b2 == b2
    else:
        x = data.draw(d_gradings, label="x")
    D = TypeDModule.from_edges((DGenerator("x", "i1", x, "x", 1),), (), h)

    def row():
        return [value[:2] for value in tensor_gradings(A, D, 0).values()]

    assert outcome_and_message(row) == outcome_and_message(
        lambda: [normalize_double_coset(y * x, A.g, h) for y in ys])
