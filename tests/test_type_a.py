from fractions import Fraction

import pytest

from cablefloer import AOperation, GradingElement, build_typea_minus, hat_operations

from conftest import LAMBDA, grading_of, module_gradings, pattern_gradings, rho_grading

half = Fraction(1, 2)


def op_set(module):
    return {(o.source, o.inputs, o.target) for o in module.finite_operations}


def test_rejects_small_p():
    with pytest.raises(ValueError):
        build_typea_minus(1)
    with pytest.raises(ValueError):
        build_typea_minus(0)


def test_generator_count():
    for p in (2, 3, 4, 5):
        module = build_typea_minus(p)
        assert len(module.generators) == 2 * p - 1
        assert module.generators[0] == "a"
        assert module.pairs_with("a") == "i0"
        assert module.pairs_with("b1") == "i1"


def test_p2_operations():
    # m2(a, r1) = b2 is the only U = 0 operation; m1(b1) = U b2,
    # m3(a, r3, r2) = U^2 a and m4(a, r3, r2, r1) = U b1 are not built
    assert op_set(build_typea_minus(2)) == {("a", ("1",), "b2")}


def test_p3_operations():
    module = build_typea_minus(3)
    ops = op_set(module)
    assert ("b4", ("2", "1"), "b3") in ops                 # m3(b4, r2, r1) = b3
    assert ("a", ("12", "1"), "b3") in ops                 # m3(a, r12, r1) = b3


def test_p2_gradings():
    module = build_typea_minus(2)
    gradings = module_gradings(module)
    assert gradings["a"] == GradingElement.identity()
    assert gradings["b2"] == grading_of(-half, half, -half, 0)
    assert gradings["b1"] == grading_of(half, half, -half, -1)
    assert module.g == grading_of(-half, 0, 1, 2)


@pytest.mark.parametrize("p", range(2, 13))
def test_closed_form_gradings_match_per_generator_formulas(p):
    """The gradings formed by group position equal the per-generator
    formulas, name for name, and each family of A.families is affine in
    its position."""
    module = build_typea_minus(p)
    gradings = module_gradings(module)
    assert list(gradings) == list(module.generators)
    assert gradings == pattern_gradings(p)
    for idempotent in ("i0", "i1"):
        for family in module.families(idempotent):
            ys = [module.grading(idempotent, k) for k in family]
            steps = {tuple(b - a for a, b in zip(y, z)) for y, z in zip(ys, ys[1:])}
            assert len(steps) <= 1


def test_hat_p2():
    table = hat_operations(build_typea_minus(2))
    assert table == {("a", ("1",)): "b2"}


def test_hat_p3():
    table = hat_operations(build_typea_minus(3))
    assert table == {
        ("a", ("1",)): "b4",
        ("a", ("12", "1")): "b3",
        ("b4", ("2", "1")): "b3",
    }


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_hat_count_and_shapes(p):
    table = hat_operations(build_typea_minus(p))
    assert len(table) == (p - 1) + (p - 2) * (p - 1) // 2
    for (source, inputs), _ in table.items():
        assert inputs[-1] == "1"
        if source == "a":
            assert set(inputs[:-1]) <= {"12"}
        else:
            assert inputs[0] == "2" and set(inputs[1:-1]) <= {"12"}
        assert "3" not in inputs and "23" not in inputs and "123" not in inputs


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_hat_operations_respect_coset_gradings(p):
    """gr(target) = g^k * lambda^(l-1) * gr(source) * gr(inputs) for some integer k."""
    module = build_typea_minus(p)
    gradings = module_gradings(module)
    for (source, inputs), target in hat_operations(module).items():
        expected = LAMBDA ** (len(inputs) - 1) * gradings[source]
        for label in inputs:
            expected = expected * rho_grading(label)
        got = gradings[target]
        # the left normalizer has zero b slot, so b slots must agree on the nose
        assert got.b2 == expected.b2
        k2 = got.c2 - expected.c2
        assert k2 % 2 == 0
        assert module.g ** (k2 // 2) * expected == got


def test_operation_is_frozen():
    op = AOperation("a", ("1",), "b2")
    with pytest.raises(AttributeError):
        op.target = "b1"
