"""The A-side module of the (p,1) pattern in the solid torus, hat flavour.

Generators are a and b_1 .. b_{2p-2}; a pairs with i0 generators of the
complement module and the b_k pair with i1 generators.  The full module over
F2[U] has six operation families; only two carry U power zero, so they are
the whole operation table of HFK-hat and the only ones built here:
m(a, rho_12^i, rho_1) and m(b_k, rho_2, rho_12^i, rho_1) for k > p.  No
hat operation consumes rho_3, rho_23 or rho_123.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gradings import GradingElement


@dataclass(frozen=True)
class AOperation:
    """m(source, inputs...) = target, with U power zero."""

    source: str
    inputs: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class TypeAModule:
    p: int
    generators: tuple[str, ...]
    gradings: dict[str, GradingElement] = field(repr=False)
    #: the two U = 0 operation families, materialized
    finite_operations: tuple[AOperation, ...] = field(repr=False)
    #: left normalizer of the coset gradings
    g: GradingElement = field(repr=False)

    def pairs_with(self, name: str) -> str:
        """Idempotent class of complement generators this generator pairs with."""
        return "i0" if name == "a" else "i1"


def build_typea_minus(p: int) -> TypeAModule:
    """Instantiate the U = 0 part of the pattern module for winding number p > 1."""
    if p <= 1:
        raise ValueError(f"pattern requires p > 1, got {p}")
    generators = ("a",) + tuple(f"b{k}" for k in range(1, 2 * p - 1))

    gradings = {"a": GradingElement.identity()}
    # gr(b_{2p-i-2}) = (-1/2; i+1/2, -1/2; 0),      0 <= i <= p-2
    # gr(b_i)       = ( 1/2; i-1/2, -1/2; i-p),     1 <= i <= p-1
    for i in range(p - 1):
        gradings[f"b{2 * p - i - 2}"] = GradingElement(-1, 2 * i + 1, -1, 0)
    for i in range(1, p):
        gradings[f"b{i}"] = GradingElement(1, 2 * i - 1, -1, 2 * (i - p))

    ops: list[AOperation] = []
    # m(b_k, rho_2, rho_12^i, rho_1) = b_{k-i-1},         p+1 <= k <= 2p-2, 0 <= i <= k-1-p
    for k in range(p + 1, 2 * p - 1):
        for i in range(k - p):
            ops.append(AOperation(f"b{k}", ("2",) + ("12",) * i + ("1",), f"b{k - i - 1}"))
    # m(a, rho_12^i, rho_1) = b_{2p-i-2},                 0 <= i <= p-2
    for i in range(p - 1):
        ops.append(AOperation("a", ("12",) * i + ("1",), f"b{2 * p - i - 2}"))

    g = GradingElement(-1, 0, 2, 2 * p)
    return TypeAModule(p=p, generators=generators, gradings=gradings,
                       finite_operations=tuple(ops), g=g)


def hat_operations(module: TypeAModule) -> dict[tuple[str, tuple[str, ...]], str]:
    """Operation table keyed by (source, chord label sequence)."""
    return {(op.source, op.inputs): op.target for op in module.finite_operations}
