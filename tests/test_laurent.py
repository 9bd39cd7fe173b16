import pytest
from hypothesis import given
from hypothesis import strategies as st

from cablefloer import LaurentPolynomial


def poly(d):
    return LaurentPolynomial(d)


def test_zero_coefficients_dropped():
    assert poly({0: 1, 2: 0}) == poly({0: 1})
    assert poly({}) == LaurentPolynomial()
    assert not poly({})
    assert poly({1: 1})


def test_duplicate_degrees_accumulate():
    assert LaurentPolynomial([(0, 1), (0, 2), (1, -1), (1, 1)]) == poly({0: 3})


def test_from_centered_list():
    assert LaurentPolynomial.from_centered_list([2, -6, 9, -6, 2]) == poly(
        {-2: 2, -1: -6, 0: 9, 1: -6, 2: 2}
    )
    assert LaurentPolynomial.from_centered_list([1]) == poly({0: 1})
    with pytest.raises(ValueError):
        LaurentPolynomial.from_centered_list([1, 2])


def test_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPolynomial({0.5: 1})


def test_arithmetic():
    trefoil = poly({-1: 1, 0: -1, 1: 1})
    assert trefoil + poly({0: 1}) == poly({-1: 1, 1: 1})
    assert trefoil - trefoil == LaurentPolynomial()
    square = trefoil * trefoil
    assert square == poly({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1})
    assert -trefoil == poly({-1: -1, 0: 1, 1: -1})


def test_inflate_and_shift():
    trefoil = poly({-1: 1, 0: -1, 1: 1})
    assert trefoil.inflate(2) == poly({-2: 1, 0: -1, 2: 1})
    assert trefoil * poly({3: 1}) == poly({2: 1, 3: -1, 4: 1})


def test_evaluate():
    trefoil = poly({-1: 1, 0: -1, 1: 1})
    assert trefoil(1) == 1
    assert trefoil(-1) == -3
    assert poly({-2: 4})(2) == 1
    with pytest.raises(ValueError):
        poly({-1: 1})(2)
    with pytest.raises(ZeroDivisionError):
        trefoil(0)


@pytest.mark.parametrize("coeffs, value, want", [
    ({-1: 1, -2: 2}, 2, 1),     # 1/2 + 2/4: neither term is integral alone
    ({-1: 1, -2: 2}, -2, 0),    # -1/2 + 2/4
    ({-1: 3, -3: 1, 2: 1}, -1, -3),
    ({-2: 3, -1: 2, 0: -4}, 3, -3),  # 3/9 + 2/3 - 4
    ({}, 5, 0),
], ids=["halves", "halves-negative", "at-minus-one", "thirds", "zero"])
def test_evaluate_over_common_denominator(coeffs, value, want):
    """Negative-degree terms are summed over their common denominator, so
    terms that are not integral on their own may still add to an integer."""
    assert poly(coeffs)(value) == want


@pytest.mark.parametrize("coeffs, value", [({-1: 1, -2: 1}, 2), ({-1: 1, -2: 2}, 3), ({-3: 2}, -2)])
def test_evaluate_refuses_a_total_that_is_not_integral(coeffs, value):
    with pytest.raises(ValueError, match="not integral"):
        poly(coeffs)(value)


def test_symmetry_and_degree():
    assert poly({-1: 1, 0: -1, 1: 1}).is_symmetric()
    assert not poly({-1: 2, 1: 1}).is_symmetric()
    assert poly({-2: 2, 2: 2, 0: 1}).top_degree == 2
    assert LaurentPolynomial().top_degree == 0
    assert poly({-2: 2, -1: -6, 0: 9, 1: -6, 2: 2}).abs_coeff_sum() == 25


def test_display():
    assert str(poly({-1: 1, 0: -1, 1: 1})) == "t - 1 + t^-1"
    assert str(poly({0: -2, 2: 3})) == "3*t^2 - 2"
    assert str(LaurentPolynomial()) == "0"


coeff_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_ring_laws(a, b, c):
    f, g, h = poly(a), poly(b), poly(c)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(coeff_dicts, st.integers(2, 5))
def test_inflate_multiplicative(a, p):
    f = poly(a)
    assert (f * f).inflate(p) == f.inflate(p) * f.inflate(p)
    assert f.inflate(p)(1) == f(1)


@given(coeff_dicts, coeff_dicts)
def test_arithmetic_stores_no_zero_coefficients(a, b):
    """Results of arithmetic skip the public constructor's checks but keep its
    invariant, so equality stays dict equality."""
    f, g = poly(a), poly(b)
    for result in (f + g, -f, f - g, f * g, f.inflate(3), f * -f):
        assert 0 not in dict(result.items()).values()
        assert result == LaurentPolynomial(dict(result.items()))


@given(coeff_dicts, st.integers(-7, 7))
def test_times_binomial_is_product(a, k):
    f = poly(a)
    assert f.times_binomial(k) == f * (poly({k: 1}) - poly({0: 1}))
