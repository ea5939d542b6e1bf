"""Risk-tuning calibration: find a zeta whose plan is certified, near an anchor.

Feasibility of a zeta means the freshly built plan's rejection envelope at
the lower indifference endpoint stays within alpha AND the mirror plan's
envelope (the acceptance-side bound) stays within beta.  Whether the
feasible set is an interval is not established, so the search only narrows
a bracket [feasible, infeasible] near a known-feasible anchor, and the
returned zeta is re-certified by direct evaluation, never by search logic.
The result is the bracket's feasible end: the largest certified zeta when
the feasible set is an interval, and otherwise a boundary near the anchor.

Known variance halves the bracket.  Unknown variance, where every probe is
a full hyperbola-cone certification, steps by regula falsi with the
Illinois modification (Dowell & Jarratt, BIT 11, 1971) on
g(zeta) = max(bound_a / alpha, bound_b / beta) - 1, which is smooth in zeta
between jumps of the stage ladder.  Each step is clamped into the middle
90% of the bracket and then projected toward the midpoint as in the ITP
method (Oliveira & Takahashi, ACM TOMS 47(1), 2021), so that at most
ceil(log2(w0 / zeta_tol)) + 2 steps follow the anchor phase, two more than
bisection, whatever g does.

Every probe rebuilds the plan: stage sizes depend on zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import CalibrationError, DomainError
from .plan_known import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_TAIL_MASS,
    build_known_plan,
    validate_design,
)
from .plan_unknown import build_unknown_plan

_ZETA_FLOOR = 1e-6
# a regula falsi step stays this share of the bracket width inside each end
_STEP_MARGIN = 0.05
# steps the interpolating search may take beyond bisection's count
_GUARD_SLACK = 2


def _check_zeta_tol(zeta_tol: float) -> None:
    if not zeta_tol > 0.0:
        raise DomainError(f"zeta_tol must be > 0, got {zeta_tol}")


@dataclass(frozen=True)
class CalibrationResult:
    """The returned zeta with its own certified bounds, and every probe made.

    path holds one (zeta, bound_a, bound_b, feasible) row per probe, in the
    order the search made them; no zeta is probed twice.
    """

    zeta: float
    phi_at_theta0: float
    phi_mirror_at_theta1: float
    certified: bool
    path: tuple[tuple[float, float, float, bool], ...]

    @property
    def iterations(self) -> int:
        return len(self.path)


def _search(
    probe: Callable[[float], tuple[float, float]],
    alpha: float,
    beta: float,
    tau: int,
    zeta_tol: float,
    interpolate: bool,
) -> CalibrationResult:
    """Shared search skeleton.

    probe(zeta) returns the pair of certified bounds (Plan.certify of the
    plan built at zeta) checked against (alpha, beta).  Anchor at 1/tau;
    walk down by halving if infeasible, then narrow the bracket between the
    last feasible and the nearest infeasible zeta above it until it is at
    most zeta_tol wide: at the midpoint, or with interpolate at the guarded
    Illinois step of the module docstring.
    """
    _check_zeta_tol(zeta_tol)
    zeta_hi = min(1.0, 10.0 / tau)
    anchor = min(1.0 / tau, zeta_hi)
    path: dict[float, tuple[float, float, bool]] = {}  # every probe, each zeta once

    def feasible(z: float) -> bool:
        pa, pb = probe(z)
        ok = pa <= alpha and pb <= beta
        path[z] = (pa, pb, ok)
        return ok

    def excess(z: float) -> float:
        pa, pb, _ = path[z]
        return max(pa / alpha, pb / beta) - 1.0

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
                pa, pb, _ = path[anchor]
                raise CalibrationError(
                    f"no feasible zeta above floor {_ZETA_FLOOR}",
                    zeta=z * 2.0,
                    bound_alpha=pa,
                    bound_beta=pb,
                )
            if feasible(z):
                break
        lo, hi = z, 2.0 * z

    # g at the bracket ends (g_lo <= 0 < g_hi up to rounding); Illinois
    # halves the g of an end that the last two steps both kept
    g_lo, g_hi = excess(lo), excess(hi)
    kept = 0  # +1: the last step kept hi, -1: it kept lo
    # ITP: step k lands within radius(k) of the midpoint, so after it the
    # bracket is at most aim * 2**(steps - k - 1) wide.  A projected step
    # leaves the bracket exactly that wide, so aim sits a little below
    # zeta_tol: rounding must not cost the last step
    width = hi - lo
    steps = (math.ceil(math.log2(width / zeta_tol)) if width > zeta_tol else 0) + _GUARD_SLACK
    aim = zeta_tol * (1.0 - 2.0**-10)
    k = 0
    while hi - lo > zeta_tol:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        z = mid
        if interpolate and g_hi > g_lo:
            z = hi - g_hi * width / (g_hi - g_lo)
            z = min(max(z, lo + _STEP_MARGIN * width), hi - _STEP_MARGIN * width)
            radius = max(0.0, math.ldexp(aim, steps - k - 1) - 0.5 * width)
            if abs(z - mid) > radius:
                z = mid + math.copysign(radius, z - mid)
        if not lo < z < hi:
            z = mid
            if not lo < z < hi:
                break  # lo and hi are adjacent doubles; zeta_tol is below their spacing
        k += 1
        if feasible(z):
            lo, g_lo = z, excess(z)
            if kept > 0:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = z, excess(z)
            if kept < 0:
                g_lo *= 0.5
            kept = -1

    # certify the returned zeta by its own evaluation
    pa, pb, certified = path[lo]
    return CalibrationResult(
        zeta=lo,
        phi_at_theta0=pa,
        phi_mirror_at_theta1=pb,
        certified=certified,
        path=tuple((z, *row) for z, row in path.items()),
    )


def calibrate_known(
    alpha: float,
    beta: float,
    epsilon: float,
    rho: float,
    tau: int,
    zeta_tol: float = 1e-4,
) -> CalibrationResult:
    """Certified zeta at a feasibility boundary near the anchor, known variance.

    The envelope does not involve gamma or sigma, so probes build plans at
    canonical gamma=0, sigma=1.
    """

    def probe(zeta: float) -> tuple[float, float]:
        return build_known_plan(alpha, beta, epsilon, 0.0, 1.0, zeta, rho, tau).certify()

    validate_design(alpha, beta, epsilon, 1.0, rho, tau)  # before the search divides by tau
    return _search(probe, alpha, beta, tau, zeta_tol, interpolate=False)


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
    """Certified zeta at a feasibility boundary near the anchor, unknown variance.

    Feasibility tests the interval upper ends, so a certified result is
    conservative with respect to the partition truncation.
    """

    def probe(zeta: float) -> tuple[float, float]:
        plan = build_unknown_plan(alpha, beta, epsilon, 0.0, zeta, rho, tau)
        return plan.certify(tail_mass, cell_budget)

    validate_design(alpha, beta, epsilon, 1.0, rho, tau)  # before the search divides by tau
    return _search(probe, alpha, beta, tau, zeta_tol, interpolate=True)
