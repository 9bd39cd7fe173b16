import pytest
from hypothesis import given
from hypothesis import strategies as st

from cablefloer import (
    LaurentPolynomial,
    ThinInputError,
    build_model,
    parse_delta,
    synthesize_delta,
    validate_thin,
)

from conftest import DELTA_11N50, DELTA_5_2, DELTA_FIG8, DELTA_TREFOIL


class TestParseDelta:
    def test_11n50(self):
        assert parse_delta(DELTA_11N50) == LaurentPolynomial(
            {-2: 2, -1: -6, 0: 9, 1: -6, 2: 2}
        )

    def test_unknot(self):
        assert parse_delta("1") == LaurentPolynomial({0: 1})

    def test_trefoil(self):
        delta = parse_delta(DELTA_TREFOIL)
        assert delta == LaurentPolynomial({-1: 1, 0: -1, 1: 1})
        assert abs(delta(1)) == 1

    def test_whitespace_tolerated(self):
        assert parse_delta(" 1, -1 , 1 ") == parse_delta(DELTA_TREFOIL)

    def test_even_length_rejected(self):
        with pytest.raises(ThinInputError):
            parse_delta("1,-1")

    def test_non_integer_rejected(self):
        with pytest.raises(ThinInputError):
            parse_delta("1,x,1")
        with pytest.raises(ThinInputError):
            parse_delta("1.5,0,1.5")


class TestValidateThin:
    def test_11n50(self):
        params = validate_thin(parse_delta(DELTA_11N50), 0)
        assert (params.a, params.s, params.l, params.g) == (25, 6, 0, 2)

    def test_unknot(self):
        params = validate_thin(LaurentPolynomial({0: 1}), 0)
        assert (params.a, params.s, params.l, params.g) == (1, 0, 0, 0)

    def test_trefoil(self):
        params = validate_thin(parse_delta(DELTA_TREFOIL), 1)
        assert (params.a, params.s, params.l, params.g) == (3, 0, -1, 1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ThinInputError):
            validate_thin(LaurentPolynomial({0: 1, 1: 1, -1: -1}), 0)

    def test_wrong_determinant_rejected(self):
        with pytest.raises(ThinInputError):
            validate_thin(LaurentPolynomial({-1: 1, 0: 1, 1: 1}), 0)

    def test_bad_square_count_rejected(self):
        # figure-eight data with tau = 1: a - 2|tau| - 1 = 2 is not 4-divisible
        with pytest.raises(ThinInputError):
            validate_thin(parse_delta(DELTA_FIG8), 1)
        # unknot with tau = 1: the count goes negative
        with pytest.raises(ThinInputError):
            validate_thin(LaurentPolynomial({0: 1}), 1)


def covered(model):
    """Magnitude per degree that the model's squares cover: c_{i+1} + 2 c_i + c_{i-1}."""
    c, g = model.square_counts, model.params.g
    return {i: c.get(i + 1, 0) + 2 * c.get(i, 0) + c.get(i - 1, 0) for i in range(-g, g + 1)}


class TestAPrime:
    """build_model removes the staircase, a'_i = |a_i| - 1 for |i| <= |tau|,
    and its squares cover exactly what is left."""

    def test_11n50(self):
        removed = covered(build_model(parse_delta(DELTA_11N50), 0))
        assert removed[2] == 2 and removed[1] == 6 and removed[0] == 8

    def test_unknot(self):
        assert covered(build_model(LaurentPolynomial({0: 1}), 0)) == {0: 0}

    def test_5_2(self):
        removed = covered(build_model(parse_delta(DELTA_5_2), 1))
        assert removed[1] == 1 and removed[0] == 2
        assert removed.get(2, 0) == 0

    def test_negative_rejected(self):
        # vanishing coefficient strictly inside the staircase span
        with pytest.raises(ThinInputError, match="staircase removal"):
            build_model(LaurentPolynomial({-2: 3, 0: -5, 2: 3}), 1)


class TestSquareCounts:
    def test_11n50(self):
        counts = build_model(parse_delta(DELTA_11N50), 0).square_counts
        assert counts == {1: 2, 0: 2, -1: 2}

    def test_unknot(self):
        assert build_model(LaurentPolynomial({0: 1}), 0).square_counts == {}

    def test_5_2(self):
        assert build_model(parse_delta(DELTA_5_2), 1).square_counts == {0: 1}

    def test_figure_eight(self):
        assert build_model(parse_delta(DELTA_FIG8), 0).square_counts == {0: 1}

    def test_negative_count_rejected(self):
        # symmetric, determinant 1, but no consistent square layout
        with pytest.raises(ThinInputError, match="square count c_0"):
            build_model(LaurentPolynomial({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}), 0)


class TestBuildModel:
    def test_figure_eight(self):
        model = build_model(parse_delta(DELTA_FIG8), 0)
        assert model.params.a - 4 * model.params.s == 1  # staircase length
        assert model.square_counts == {0: 1}

    def test_trefoil(self):
        model = build_model(parse_delta(DELTA_TREFOIL), 1)
        assert model.params.a - 4 * model.params.s == 3
        assert model.square_counts == {}

    def test_11n50(self):
        model = build_model(parse_delta(DELTA_11N50), 0)
        assert model.params.a - 4 * model.params.s == 1
        assert model.square_counts == {1: 2, 0: 2, -1: 2}


square_configs = st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3).map(
    lambda half: {i: c for i, c in half.items() if i == 0}
    | {i: c for i, c in half.items() if i} | {-i: c for i, c in half.items() if i}
)


@given(st.integers(-3, 3), square_configs)
def test_synthesize_roundtrip(tau, counts):
    """build_model's square counts invert synthesize_delta, and the rank count adds up."""
    delta = synthesize_delta(tau, counts)
    model = build_model(delta, tau)
    assert model.square_counts == {i: c for i, c in counts.items() if c}
    params = model.params
    assert 4 * sum(model.square_counts.values()) + 2 * abs(tau) + 1 == params.a
    assert all(model.square_counts.get(i, 0) == model.square_counts.get(-i, 0)
               for i in range(-params.g, params.g + 1))


@given(st.integers(-3, 3), square_configs, st.data())
def test_thin_signs_alternate(tau, counts, data):
    """A thin delta is accepted with either global sign; flipping the sign of one
    pair +-d is refused whenever a nonzero coefficient lies outside that pair."""
    delta = synthesize_delta(tau, counts)
    build_model(delta, tau)
    build_model(-delta, tau)
    coeffs = dict(delta.items())
    d = data.draw(st.sampled_from(sorted(d for d in coeffs if d >= 0)))
    flipped = {e: -c if abs(e) == d else c for e, c in coeffs.items()}
    if any(abs(e) != d for e in coeffs):
        with pytest.raises(ThinInputError):
            build_model(LaurentPolynomial(flipped), tau)
