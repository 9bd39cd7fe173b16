"""End-to-end computation: thin input -> bigraded rank table plus checks."""

from __future__ import annotations

from . import invariants
from .homology import RankTable, reduce_complex
from .laurent import LaurentPolynomial
from .pairing import BigradedComplex, pair_modules
from .thin import ThinModel, ThinParams, build_model
from .type_a import build_typea_minus
from .type_d import build_typed


# work budget, checked before any module is built
MAX_GENERATORS = 10**6  # tensor generators plus the pattern module's 2p - 1
# degree span of the satellite Alexander polynomial; no run forms that
# polynomial, but this bound fixes the accepted domain
MAX_SATELLITE_DEGREES = 10**7


class CableHomology:
    """Everything one run produces, downstream of a validated input.  It is
    not a tuple: a caller that takes both library results and CLI
    (exit code, text) pairs tells them apart by that."""

    __slots__ = ("delta", "tau", "p", "n", "model", "complex", "table", "cable_tau", "table_value", "checks")

    def __init__(self, delta: LaurentPolynomial, tau: int, p: int, n: int, model: ThinModel,
                 complex: BigradedComplex, table: RankTable, cable_tau: int, table_value: int,
                 checks: dict[str, bool]):
        self.delta, self.tau, self.p, self.n, self.model = delta, tau, p, n, model
        self.complex, self.table, self.cable_tau, self.table_value = complex, table, cable_tau, table_value
        self.checks = checks  # symmetry, euler, table: verdicts in that order

    @property
    def q(self) -> int:
        return self.p * self.n + 1

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def consistent(self) -> bool:
        return all(self.checks.values())


def _check_budget(params: ThinParams, p: int, n: int) -> None:
    """Refuse a cable whose predicted size exceeds the work budget.

    The complement module has 2|tau|+1+4s generators pairing with a and
    2|tau|+4s+|2tau-n| pairing with each of the 2p-2 generators b_k; the
    satellite polynomial delta(t^p) * Delta_T(p,q) spans 2gp + (p-1)(|q|-1)
    degrees.  The Euler check cross-multiplies binomials rather than forming
    that polynomial, but the degree bound still decides which cables are
    accepted, and its refusal names the degree span.
    """
    tau, s, q = params.tau, params.s, p * n + 1
    generators = (2 * abs(tau) + 1 + 4 * s) + (2 * p - 2) * (2 * abs(tau) + 4 * s + abs(2 * tau - n))
    generators += 2 * p - 1
    if generators > MAX_GENERATORS:
        raise ValueError(f"the ({p}, {q})-cable needs {generators} generators, "
                         f"over the budget of {MAX_GENERATORS}")
    degrees = 2 * params.g * p + (p - 1) * (abs(q) - 1)
    if degrees > MAX_SATELLITE_DEGREES:
        raise ValueError(f"the ({p}, {q})-cable's satellite polynomial spans {degrees} degrees, "
                         f"over the budget of {MAX_SATELLITE_DEGREES}")


def compute_cable_hfk(delta: LaurentPolynomial, tau: int, p: int, n: int) -> CableHomology:
    """Run the full pairing pipeline for the (p, p*n+1)-cable."""
    if p <= 1:
        raise ValueError(f"cable requires p > 1, got {p}")
    model = build_model(delta, tau)
    _check_budget(model.params, p, n)
    module_d = build_typed(model, n)
    module_a = build_typea_minus(p)
    complex_ = pair_modules(module_a, module_d, model.params.l, n)
    table = reduce_complex(complex_)

    # the homology is built from coefficient magnitudes, so its Euler
    # characteristic carries the delta(1) = +1 normalization even when the
    # input polynomial arrives globally negated
    normalized = delta if delta(1) > 0 else -delta
    table_value = invariants.table_rank(tau, model.params.s, p, n)
    return CableHomology(
        delta=delta,
        tau=tau,
        p=p,
        n=n,
        model=model,
        complex=complex_,
        table=table,
        cable_tau=invariants.tau_cable(tau, p, n),
        table_value=table_value,
        checks={
            "symmetry": invariants.symmetry_holds(table),
            "euler": invariants.euler_holds(table, normalized, p, p * n + 1),
            "table": table.total == table_value,
        },
    )
