"""Risk-tuning calibration: find the largest zeta whose plan is certified.

Feasibility of a zeta means the freshly built plan's rejection envelope at
the lower indifference endpoint stays within alpha AND the mirror plan's
envelope (the acceptance-side bound) stays within beta.  Whether the
feasible set is an interval is not established, so the search only uses
bisection to locate a boundary near a known-feasible anchor and the
returned zeta is re-certified by direct evaluation, never by search logic.

Every probe rebuilds the plan: stage sizes depend on zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import CalibrationError, DomainError
from .plan_known import DEFAULT_CELL_BUDGET, DEFAULT_TAIL_MASS, build_known_plan
from .plan_unknown import build_unknown_plan

_ZETA_FLOOR = 1e-6


@dataclass(frozen=True)
class CalibrationResult:
    zeta: float
    phi_at_theta0: float
    phi_mirror_at_theta1: float
    iterations: int
    certified: bool


def _search(
    probe: Callable[[float], tuple[float, float]],
    alpha: float,
    beta: float,
    tau: int,
    zeta_tol: float,
) -> CalibrationResult:
    """Shared search skeleton.

    probe(zeta) returns the pair of certified bounds (Plan.certify of the
    plan built at zeta) checked against (alpha, beta).  Anchor at 1/tau;
    walk down by halving if infeasible, then bisect toward the nearest
    infeasible zeta above the anchor.
    """
    if not zeta_tol > 0.0:
        raise DomainError(f"zeta_tol must be > 0, got {zeta_tol}")
    zeta_hi = min(1.0, 10.0 / tau)
    anchor = min(1.0 / tau, zeta_hi)
    values: dict[float, tuple[float, float]] = {}  # every probe, each zeta once

    def feasible(z: float) -> bool:
        pair = probe(z)
        values[z] = pair
        return pair[0] <= alpha and pair[1] <= beta

    if feasible(anchor):
        if zeta_hi > anchor and not feasible(zeta_hi):
            lo, hi = anchor, zeta_hi
        else:
            lo = hi = zeta_hi  # zeta_hi is feasible, or is the anchor itself
    else:
        z = anchor
        while True:
            z *= 0.5
            if z < _ZETA_FLOOR:
                pa, pb = values[anchor]
                raise CalibrationError(
                    f"no feasible zeta above floor {_ZETA_FLOOR}",
                    zeta=z * 2.0,
                    bound_alpha=pa,
                    bound_beta=pb,
                )
            if feasible(z):
                break
        lo, hi = z, 2.0 * z
    while hi - lo > zeta_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles; zeta_tol is below their spacing
        if feasible(mid):
            lo = mid
        else:
            hi = mid

    # certify the returned zeta by its own evaluation
    pa, pb = values[lo]
    certified = pa <= alpha and pb <= beta
    return CalibrationResult(
        zeta=lo,
        phi_at_theta0=pa,
        phi_mirror_at_theta1=pb,
        iterations=len(values),
        certified=certified,
    )


def calibrate_known(
    alpha: float,
    beta: float,
    epsilon: float,
    rho: float,
    tau: int,
    zeta_tol: float = 1e-4,
) -> CalibrationResult:
    """Largest certified zeta for the known-variance design.

    The envelope does not involve gamma or sigma, so probes build plans at
    canonical gamma=0, sigma=1.
    """

    def probe(zeta: float) -> tuple[float, float]:
        return build_known_plan(alpha, beta, epsilon, 0.0, 1.0, zeta, rho, tau).certify()

    return _search(probe, alpha, beta, tau, zeta_tol)


def calibrate_unknown(
    alpha: float,
    beta: float,
    epsilon: float,
    rho: float,
    tau: int,
    zeta_tol: float = 1e-4,
    tail_mass: float = DEFAULT_TAIL_MASS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CalibrationResult:
    """Largest certified zeta for the unknown-variance design.

    Feasibility tests the interval upper ends, so a certified result is
    conservative with respect to the partition truncation.
    """

    def probe(zeta: float) -> tuple[float, float]:
        plan = build_unknown_plan(alpha, beta, epsilon, 0.0, zeta, rho, tau)
        return plan.certify(tail_mass, cell_budget)

    return _search(probe, alpha, beta, tau, zeta_tol)
