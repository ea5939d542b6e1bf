"""Unknown-variance multistage plans: construction, decisions, interval OC
bounds via chi-square space partitioning, and ASN tails via noncentral t.

Stage sizes scale down geometrically from the smallest n at which the
accept and reject thresholds of the t-statistic meet.  The stage-l
statistic is the usual one-sample t against gamma at cumulative size n_l.

The rejection envelope for stage l >= 2 conditions on the pair (Y, Z) of
independent chi-square variables carrying the earlier-sample and
fresh-sample variability.  At a fixed (y, z) the conditional event is a
hyperbola-cone region in the (U, V) plane, monotone in y and z, so a
rectangle of (y, z) values yields certified upper and lower bounds from
the rectangle corners.  Truncating the chi-square tails and refining the
rectangle partition where the bound gap is largest gives an interval
that provably brackets the envelope; the truncated tail mass is added to
the upper end.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, DegenerateSampleError, InsufficientDataError, SeqnormError
from .geometry import (  # noqa: F401  (hyperbola_cone_prob: perfbench's binding test)
    ConeRegion,
    HyperbolaConeRegion,
    cone_prob,
    hyperbola_cone_prob,
    hyperbola_cone_prob_many,
)
from .plan_known import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_TAIL_MASS,
    Plan,
    Stage,
    _check_interval_settings,
    validate_design,
)
from .special import (
    chi_square_cdf,
    chi_square_quantile,
    noncentral_t_cdf,
    student_t_critical,
)

_SIZE_SEARCH_LIMIT = 10**7


@dataclass(frozen=True, kw_only=True)
class UnknownVarPlan(Plan):
    kind = "unknown"

    def statistic(self, samples: Sequence[float], n: int) -> float:
        """t-statistic sqrt(n) (mean - gamma) / sd over the first n samples."""
        if n < 2:
            raise DomainError(f"n must be >= 2 for a sample deviation, got {n}")
        if len(samples) < n:
            raise InsufficientDataError(
                f"statistic needs {n} samples, only {len(samples)} supplied"
            )
        window = samples[:n]
        mean = math.fsum(window) / n
        ss = math.fsum((x - mean) ** 2 for x in window)
        if ss <= 0.0:
            raise DegenerateSampleError("all samples equal; sample deviation is zero")
        sd = math.sqrt(ss / (n - 1))
        return math.sqrt(n) * (mean - self.gamma) / sd

    def stage_statistics(self, shifted: np.ndarray) -> np.ndarray:
        """t-statistics of every stage, stages in rows, replicates in columns.

        shifted holds samples minus gamma at the data's natural scale,
        replicates in rows, so sums of squares form there.
        """
        if self.stages[0].n < 2:
            raise DomainError("unknown-variance plans need stage sizes >= 2")
        csum = np.cumsum(shifted, axis=1)
        csq = np.cumsum(shifted * shifted, axis=1)
        cols = []
        for n in self.sizes:
            s = csum[:, n - 1]
            ss = csq[:, n - 1]
            var = np.maximum(ss - s * s / n, 0.0) / (n - 1)
            sd = np.sqrt(var)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (s / math.sqrt(n)) / np.where(sd > 0.0, sd, 1.0)
            # degenerate samples cannot occur with continuous draws; pin the
            # statistic to the mean's sign so a decision still falls out
            t = np.where(sd > 0.0, t, np.sign(s) * np.inf)
            t = np.where(np.isnan(t), 0.0, t)
            cols.append(t)
        return np.array(cols)

    def stage_cdf(self, x: float, n: int, theta: float) -> float:
        """Pr{statistic at size n <= x}: noncentral t, n - 1 dof, ncp sqrt(n) theta."""
        return noncentral_t_cdf(x, n - 1, math.sqrt(n) * theta)

    def envelope(
        self,
        theta: float,
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> tuple[float, float]:
        """Certified bracket of the rejection envelope (see oc_upper_P)."""
        return oc_upper_P(theta, self, tail_mass, cell_budget)


def min_stage_size(alpha: float, beta: float, epsilon: float, zeta: float) -> int:
    """Smallest n with t_{n-1, zeta*alpha} + t_{n-1, zeta*beta} <= 2 eps sqrt(n-1).

    The left side shrinks and the right side grows in n, so the predicate
    is monotone; a doubling search brackets the crossover and bisection
    pins it.
    """
    validate_design(alpha, beta, epsilon, zeta, rho=1.0, tau=1)

    def ok(n: int) -> bool:
        dof = n - 1
        return (
            student_t_critical(dof, zeta * alpha) + student_t_critical(dof, zeta * beta)
            <= 2.0 * epsilon * math.sqrt(dof)
        )

    if ok(2):
        return 2
    lo = 2  # known to fail
    hi = 4
    while not ok(hi):
        lo = hi
        hi *= 2
        if hi > _SIZE_SEARCH_LIMIT:
            raise DomainError(
                f"no stage size up to {_SIZE_SEARCH_LIMIT} meets the threshold-closure "
                f"inequality; epsilon={epsilon} is too small for zeta={zeta}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_unknown_plan(
    alpha: float,
    beta: float,
    epsilon: float,
    gamma: float,
    zeta: float,
    rho: float,
    tau: int,
) -> UnknownVarPlan:
    """Construct the unknown-variance plan for the given design parameters.

    Stage sizes are the distinct values of ceil(n* (1+rho)^(i-tau)), floored
    at 2 so the sample deviation exists; thresholds use stage-specific t
    critical values:
    a_l = min(theta* sqrt(n_l - 1), eps sqrt(n_l - 1) - t_{n_l-1, zeta*beta}),
    b_l = max(theta* sqrt(n_l - 1), t_{n_l-1, zeta*alpha} - eps sqrt(n_l - 1)),
    theta* = (t_{n_s-1, zeta*alpha} - t_{n_s-1, zeta*beta}) / (2 sqrt(n_s - 1)).
    """
    validate_design(alpha, beta, epsilon, zeta, rho, tau)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    tau = int(tau)

    n_star = min_stage_size(alpha, beta, epsilon, zeta)
    raw = [math.ceil(n_star * (1.0 + rho) ** (i - tau)) for i in range(1, tau + 1)]
    if any(n < 2 for n in raw):
        warnings.warn(
            "stage sizes below 2 were clipped to 2 (sample variance needs two points)",
            RuntimeWarning,
            stacklevel=2,
        )
    sizes = sorted({max(2, n) for n in raw})

    dof_final = sizes[-1] - 1
    theta_star = (
        student_t_critical(dof_final, zeta * alpha) - student_t_critical(dof_final, zeta * beta)
    ) / (2.0 * math.sqrt(dof_final))

    stages = []
    for n in sizes:
        dof = n - 1
        root = math.sqrt(dof)
        a = min(theta_star * root, epsilon * root - student_t_critical(dof, zeta * beta))
        b = max(theta_star * root, student_t_critical(dof, zeta * alpha) - epsilon * root)
        stages.append(Stage(n=n, a=a, b=b))
    return UnknownVarPlan(
        alpha=float(alpha),
        beta=float(beta),
        epsilon=float(epsilon),
        gamma=float(gamma),
        zeta=float(zeta),
        rho=float(rho),
        tau=tau,
        theta_star=theta_star,
        stages=tuple(stages),
    )


# perfbench calls the mirror by this module-level name
mirror_unknown_plan = UnknownVarPlan.mirror


# ---------------------------------------------------------------------------
# Partition machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCell:
    """Rectangle in (y, z) space with mass-weighted bound contributions."""

    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float
    p_lower: float
    p_upper: float

    def __post_init__(self):
        if self.y_lo > self.y_hi or self.z_lo > self.z_hi:
            raise DomainError("cell bounds inverted")
        if self.p_lower > self.p_upper + 1e-12:
            raise SeqnormError(
                f"cell bound inversion: lower={self.p_lower} > upper={self.p_upper}"
            )

    @property
    def gap(self) -> float:
        return self.p_upper - self.p_lower


def _partition(
    root: tuple[float, float, float, float],
    budget: int,
    evaluate: Callable[[list[tuple[float, float, float, float]]], list[tuple[float, float]]],
) -> list[PartitionCell]:
    """Cells tiling root = (y_lo, y_hi, z_lo, z_hi), split where the gap is widest.

    evaluate(rects) returns each rectangle's (p_lower, p_upper), for rectangles
    given as (y_lo, y_hi, z_lo, z_hi); it gets every rectangle of a round in one
    call: the initial cells, then each split's two children.  The root is halved
    along y and, if z has extent, along z; then the widest-gap cell, the
    lowest-index one among equals, is bisected along its side longer in units of
    the root's sides until budget cells exist, so larger budgets extend one path.
    """
    y_span, z_span = root[1] - root[0], root[3] - root[2]

    def halves(geom, along_y):
        y_lo, y_hi, z_lo, z_hi = geom
        if along_y:
            y_mid = 0.5 * (y_lo + y_hi)
            return (y_lo, y_mid, z_lo, z_hi), (y_mid, y_hi, z_lo, z_hi)
        z_mid = 0.5 * (z_lo + z_hi)
        return (y_lo, y_hi, z_lo, z_mid), (y_lo, y_hi, z_mid, z_hi)

    def make_cells(geoms):
        return [PartitionCell(*g, *bounds) for g, bounds in zip(geoms, evaluate(geoms))]

    rows = halves(root, False) if z_span > 0.0 else (root,)
    cells = make_cells([half for row in rows for half in halves(row, True)])
    widest = [(-c.gap, i) for i, c in enumerate(cells)]
    heapq.heapify(widest)
    while len(cells) < budget:
        _, best = heapq.heappop(widest)
        c = cells[best]
        ny = (c.y_hi - c.y_lo) / y_span if y_span > 0.0 else 0.0
        nz = (c.z_hi - c.z_lo) / z_span if z_span > 0.0 else 0.0
        if ny <= 0.0 and nz <= 0.0:
            break  # nothing splittable (degenerate rectangle)
        low, high = make_cells(list(halves((c.y_lo, c.y_hi, c.z_lo, c.z_hi), ny >= nz)))
        cells[best] = low
        cells.append(high)
        heapq.heappush(widest, (-low.gap, best))
        heapq.heappush(widest, (-high.gap, len(cells) - 1))
    return cells


class _StageTermEvaluator:
    """Corner-bound evaluator for one envelope term's (y, z) rectangles.

    Bounds Pr{scale sqrt(V^2 + y + z) <= U - off <= k V + omega sqrt(y)}
    differences between two omega values using monotonicity: the radicand
    grows with y + z (shrinking the region) and the line intercept grows
    with omega sqrt(y).  Neighbouring cells share corners, so each corner's
    probability is computed once per evaluator and then looked up; the
    corners a batch of rectangles still lacks are computed in one call.
    """

    def __init__(self, scale, off, k, omega_plus, omega_minus, dof_y, dof_z, negate):
        self.scale = scale
        self.off = off
        self.k = k
        self.omega_plus = omega_plus  # event entering the difference with +
        self.omega_minus = omega_minus  # event entering with -
        self.dof_y = dof_y
        self.dof_z = dof_z
        self.negate = negate  # True when the difference is nonpositive
        self._corners: dict[tuple[float, float, float], float] = {}

    def _key(self, sum_yz: float, y_for_line: float, omega: float) -> tuple[float, float, float]:
        # the cone path (scale 0) ignores sum_yz, so its corners share it
        return (sum_yz if self.scale != 0.0 else 0.0, y_for_line, omega)

    def _fill(self, keys) -> None:
        """Compute, in one batch, the corners among keys not yet in the memo."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._corners]
        if not missing:
            return
        if self.scale == 0.0:
            probs = [
                cone_prob(ConeRegion(h=self.off, g=self.off + omega * math.sqrt(y), k=self.k))
                for _, y, omega in missing
            ]
        else:
            lam = self.scale * self.scale
            probs = hyperbola_cone_prob_many([
                HyperbolaConeRegion(
                    offset=self.off, lam=lam, h=lam * sum_yz, g=omega * math.sqrt(y), k=self.k
                )
                for sum_yz, y, omega in missing
            ])
        self._corners.update(zip(missing, probs))

    def event_prob(self, sum_yz: float, y_for_line: float, omega: float) -> float:
        key = self._key(sum_yz, y_for_line, omega)
        self._fill([key])
        return self._corners[key]

    def _corner_keys(self, y_lo, y_hi, z_lo, z_hi, omega):
        """Keys of the corners giving the event's (upper, lower) bound on the rectangle."""
        y_for_hi = y_hi if omega >= 0.0 else y_lo
        y_for_lo = y_lo if omega >= 0.0 else y_hi
        return self._key(y_lo + z_lo, y_for_hi, omega), self._key(y_hi + z_hi, y_for_lo, omega)

    def mass(self, y_lo, y_hi, z_lo, z_hi) -> float:
        m = chi_square_cdf(y_hi, self.dof_y) - chi_square_cdf(y_lo, self.dof_y)
        if self.dof_z > 0:
            m *= chi_square_cdf(z_hi, self.dof_z) - chi_square_cdf(z_lo, self.dof_z)
        return max(0.0, m)

    def __call__(self, rects) -> list[tuple[float, float]]:
        """Mass-weighted (lower, upper) bounds for each (y_lo, y_hi, z_lo, z_hi) rectangle."""
        keys = [
            self._corner_keys(*rect, self.omega_plus) + self._corner_keys(*rect, self.omega_minus)
            for rect in rects
        ]
        self._fill([key for rect_keys in keys for key in rect_keys])
        out = []
        for rect, rect_keys in zip(rects, keys):
            a_hi, a_lo, b_hi, b_lo = (self._corners[key] for key in rect_keys)
            if self.negate:
                diff_hi = min(0.0, a_hi - b_lo)
                diff_lo = max(-1.0, a_lo - b_hi)
            else:
                diff_hi = min(1.0, max(0.0, a_hi - b_lo))
                diff_lo = max(0.0, a_lo - b_hi)
            diff_lo = min(diff_lo, diff_hi)
            m = self.mass(*rect)
            out.append((m * diff_lo, m * diff_hi))
        return out


def stage_term_cells(
    theta: float, plan: UnknownVarPlan, ell: int, tail_budget: float, cell_budget: int
) -> tuple[list[PartitionCell], _StageTermEvaluator, tuple[float, float]]:
    """Partition cells bounding the stage-ell envelope term (ell >= 2, 1-based).

    Returns the cells, their evaluator and the root's (y, z) side lengths.  The root
    holds the central 1 - tail_budget/2 of Y and of Z (Z = 0 when it has no dof).
    """
    prev = plan.stages[ell - 2]
    cur = plan.stages[ell - 1]
    dof_y = prev.n - 1
    dof_z = cur.n - prev.n - 1
    k = math.sqrt(cur.n / prev.n - 1.0)
    scale_prev = math.sqrt(cur.n / prev.n)
    c_prev = prev.a / math.sqrt(prev.n - 1)
    d_prev = prev.b / math.sqrt(prev.n - 1)
    d_cur = cur.b / math.sqrt(cur.n - 1)

    # a negative reject slope flips the event; multiplying by -1.0 is exact
    sign = 1.0 if d_cur >= 0.0 else -1.0
    evaluator = _StageTermEvaluator(
        scale=sign * d_cur,
        off=-sign * math.sqrt(cur.n) * theta,
        k=k,
        omega_plus=sign * scale_prev * d_prev,
        omega_minus=sign * scale_prev * c_prev,
        dof_y=dof_y,
        dof_z=dof_z,
        negate=sign < 0.0,
    )

    quarter = tail_budget / 4.0
    y_lo = chi_square_quantile(quarter, dof_y)
    y_hi = chi_square_quantile(1.0 - quarter, dof_y)
    if dof_z > 0:
        z_lo = chi_square_quantile(quarter, dof_z)
        z_hi = chi_square_quantile(1.0 - quarter, dof_z)
    else:
        z_lo = z_hi = 0.0

    cells = _partition((y_lo, y_hi, z_lo, z_hi), cell_budget, evaluator)
    return cells, evaluator, (y_hi - y_lo, z_hi - z_lo)


def oc_upper_P(
    theta: float,
    plan: UnknownVarPlan,
    tail_mass: float = DEFAULT_TAIL_MASS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> tuple[float, float]:
    """Interval [lower, upper] certified to bracket the rejection envelope.

    The first-stage term is a single noncentral-t tail and enters both ends
    exactly.  Each later term is bracketed by partition cells; the chi-square
    tail truncation budget is split evenly over those terms, so the total
    truncation slack absorbed into the interval is at most tail_mass.
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    _check_interval_settings(tail_mass, cell_budget)

    first = plan.stages[0]
    p1 = 1.0 - plan.stage_cdf(first.b, first.n, theta)
    lower = p1
    upper = p1
    s = plan.num_stages
    if s == 1:
        return lower, upper

    tail_budget = tail_mass / (s - 1)
    for ell in range(2, s + 1):
        cells, evaluator, _ = stage_term_cells(theta, plan, ell, tail_budget, cell_budget)
        cell_lo = math.fsum(c.p_lower for c in cells)
        cell_hi = math.fsum(c.p_upper for c in cells)
        if evaluator.negate:
            nct = plan.sample_tail(ell - 1, theta)
            term_lo = max(0.0, nct + cell_lo - tail_budget)
            term_hi = min(nct, nct + cell_hi)
        else:
            term_lo = max(0.0, cell_lo)
            term_hi = cell_hi + tail_budget
        if term_lo > term_hi + 1e-12:
            raise SeqnormError(
                f"stage {ell} interval inverted: [{term_lo}, {term_hi}]"
            )
        lower += term_lo
        upper += term_hi

    return lower, upper
