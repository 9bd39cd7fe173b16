"""End-to-end computation: thin input -> bigraded rank table plus checks."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import invariants
from .homology import RankTable, reduce_complex
from .laurent import LaurentPolynomial
from .pairing import BigradedComplex, pair_modules
from .thin import ThinModel, build_model
from .type_a import build_typea_minus
from .type_d import build_typed


@dataclass(frozen=True)
class CableHomology:
    """Everything one run produces, downstream of a validated input."""

    delta: LaurentPolynomial
    tau: int
    p: int
    n: int
    model: ThinModel
    complex: BigradedComplex = field(repr=False)
    table: RankTable
    cable_tau: int
    table_value: int
    symmetry_ok: bool
    euler_ok: bool

    @property
    def q(self) -> int:
        return self.p * self.n + 1

    @property
    def table_match(self) -> bool:
        return self.table.total == self.table_value

    @property
    def failed_checks(self) -> list[str]:
        """Names of the internal checks that failed: symmetry, euler, table."""
        return [name for name, ok in (("symmetry", self.symmetry_ok), ("euler", self.euler_ok),
                                      ("table", self.table_match)) if not ok]

    @property
    def consistent(self) -> bool:
        return not self.failed_checks


def compute_cable_hfk(delta: LaurentPolynomial, tau: int, p: int, n: int) -> CableHomology:
    """Run the full pairing pipeline for the (p, p*n+1)-cable."""
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    model = build_model(delta, tau)
    module_d = build_typed(model, n)
    module_a = build_typea_minus(p)
    complex_ = pair_modules(module_a, module_d, model.params.l, n)
    table = reduce_complex(complex_)

    euler = invariants.euler_characteristic(table)
    # the homology is built from coefficient magnitudes, so its Euler
    # characteristic carries the delta(1) = +1 normalization even when the
    # input polynomial arrives globally negated
    normalized = delta if delta(1) > 0 else -delta
    expected_euler = invariants.cable_alexander(normalized, p, p * n + 1)
    return CableHomology(
        delta=delta,
        tau=tau,
        p=p,
        n=n,
        model=model,
        complex=complex_,
        table=table,
        cable_tau=invariants.tau_cable(tau, p, n).value,
        table_value=invariants.table_rank(tau, model.params.s, p, n),
        symmetry_ok=invariants.check_symmetry(table),
        euler_ok=euler == expected_euler,
    )

