"""Known-variance multistage plans: construction, decisions, OC/ASN bounds.

A plan runs stages of cumulative sample sizes n_1 < ... < n_s.  At stage l
the statistic T_l = sqrt(n_l) (mean_{n_l} - gamma) / sigma is compared with
an accept threshold a_l (accept at or below) and a reject threshold b_l
(reject above); between them sampling continues.  Stage sizes follow a
geometric ladder whose top size makes the two thresholds meet, so the last
stage always decides.

The rejection envelope phi(theta) adds, over stages, the probability that
stage l-1 sat in the continue band while stage l crossed the reject line.
Conditioning on the fresh-sample direction turns each summand into the
Gaussian measure of a cone region, evaluated in closed form by the geometry
module.  phi taken at the indifference-zone endpoint equals the plan's
total boundary-crossing rate there, which is what calibration pins to the
error budget.

``Plan`` holds what both variance cases share: the design fields, the
stage ladder, the mirror plan, the OC bounds, the certificate and the
sample-number tails.  ``KnownVarPlan`` here and ``UnknownVarPlan`` in
plan_unknown add the statistic, its law at a stage and the envelope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError
from .geometry import ConeRegion, cone_prob
from .special import std_normal_cdf, std_normal_critical

# the builders loop over the tau ladder rungs, so a plan file's tau sets the
# cost of loading it
_TAU_LIMIT = 1000


class Decision(enum.IntEnum):
    """Stage outcome; integer values follow the 0/1/2 decision-variable coding."""

    CONTINUE = 0
    ACCEPT = 1
    REJECT = 2


@dataclass(frozen=True)
class Stage:
    """One checkpoint: cumulative size n, accept threshold a, reject threshold b."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"stage size must be >= 1, got {self.n}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("stage thresholds must be finite")
        if self.a > self.b:
            raise DomainError(f"stage thresholds inverted: a={self.a} > b={self.b}")


def validate_design(alpha, beta, epsilon, zeta, rho, tau, sigma=None):
    """Raise DomainError unless the design values are valid; sigma is checked if given."""
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < val < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {val}")
    for name, val in (("epsilon", epsilon), ("rho", rho)):
        if not (val > 0.0 and math.isfinite(val)):
            raise DomainError(f"{name} must be positive and finite, got {val}")
    # above 1 a stage's critical level zeta*alpha would exceed alpha itself;
    # calibration searches (0, 1] as well
    if not (0.0 < zeta <= 1.0):
        raise DomainError(f"zeta must lie in (0, 1], got {zeta}")
    if not (1 <= tau < math.inf and tau == int(tau)):
        raise DomainError(f"tau must be a positive integer, got {tau}")
    if tau > _TAU_LIMIT:
        raise DomainError(f"tau must be at most {_TAU_LIMIT}, got {tau}")
    if sigma is not None and not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")


# defaults of the unknown-variance interval (chi-square tail mass and
# partition cells per stage term); the closed-form known envelope only checks
# them, so that both plan kinds refuse the same settings
DEFAULT_TAIL_MASS = 1e-4
DEFAULT_CELL_BUDGET = 256


def _check_interval_settings(tail_mass: float, cell_budget: int) -> None:
    if not (0.0 < tail_mass < 1.0):
        raise DomainError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    if cell_budget < 4:
        raise DomainError(f"cell_budget must be >= 4, got {cell_budget}")


@dataclass(frozen=True, kw_only=True)
class Plan:
    """Design parameters plus the stage ladder they build.

    A subclass supplies ``statistic(samples, n)``, the vectorized
    ``stage_statistics(shifted)``, the statistic's law
    ``stage_cdf(x, n, theta)`` at stage size n and standardized mean
    theta, and ``envelope(theta, tail_mass, cell_budget) -> (lo, hi)``
    bracketing the rejection envelope.
    """

    alpha: float
    beta: float
    epsilon: float
    gamma: float
    zeta: float
    rho: float
    tau: int
    theta_star: float
    stages: tuple[Stage, ...]
    certified: bool = False

    kind: ClassVar[str]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def with_certified(self, certified: bool) -> "Plan":
        return replace(self, certified=certified)

    def mirror(self) -> "Plan":
        """The plan build_known_plan or build_unknown_plan makes with alpha and beta swapped.

        Swapping them keeps every stage size; thresholds negate and
        exchange, and theta* negates, which is what the acceptance-side
        bound evaluates.  ``0.0 - x`` keeps the +0.0 those functions give
        where a threshold is zero (``-x`` would give -0.0).
        """
        return replace(
            self,
            alpha=self.beta,
            beta=self.alpha,
            theta_star=0.0 - self.theta_star,
            stages=tuple(Stage(n=s.n, a=0.0 - s.b, b=0.0 - s.a) for s in self.stages),
            certified=False,
        )

    def sample_tail(self, ell: int, theta: float) -> float:
        """Bound on Pr{sampling continues past stage ell}: the continue-band mass."""
        s = self.num_stages
        if not (1 <= ell <= s - 1):
            raise DomainError(
                f"stage index must lie in [1, {s - 1}] (sampling always stops at stage {s})"
            )
        if not math.isfinite(theta):
            raise DomainError(f"theta must be finite, got {theta}")
        stage = self.stages[ell - 1]
        value = self.stage_cdf(stage.b, stage.n, theta) - self.stage_cdf(stage.a, stage.n, theta)
        return max(0.0, value)

    def oc_bounds(
        self,
        theta: float,
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> tuple[float, float]:
        """Certified (lower, upper) bounds on Pr{accept | mean = gamma + theta sigma}.

        Only stated outside the indifference zone: below it the acceptance
        probability exceeds 1 - (envelope upper end at theta); above it, it
        stays below the mirror plan's envelope upper end at -theta.
        """
        if abs(theta) < self.epsilon:
            raise DomainError(
                f"theta={theta} lies inside the indifference zone; no bound is stated there"
            )
        if theta <= -self.epsilon:
            # the envelope may exceed 1 for uncalibrated designs; the bound floors at 0
            _, hi = self.envelope(theta, tail_mass, cell_budget)
            return min(1.0, max(0.0, 1.0 - hi)), 1.0
        _, hi = self.mirror().envelope(-theta, tail_mass, cell_budget)
        return 0.0, min(1.0, max(0.0, hi))

    def certify(
        self, tail_mass: float = DEFAULT_TAIL_MASS, cell_budget: int = DEFAULT_CELL_BUDGET
    ) -> tuple[float, float]:
        """(bound_a, bound_b): envelope upper ends at theta = -epsilon.

        bound_a is the plan's own envelope and bounds the Type I error;
        bound_b is the mirror plan's and bounds the Type II error.  The plan
        is certified when bound_a <= alpha and bound_b <= beta.  A plan that
        is its own mirror (every alpha = beta design) has bound_b = bound_a,
        and its envelope is evaluated once.
        """
        theta = -self.epsilon
        _, bound_a = self.envelope(theta, tail_mass, cell_budget)
        mirror = self.mirror()
        # the mirror swaps alpha and beta, so only alpha = beta plans can be
        # their own; repr tells -0.0 from 0.0, which == does not, so equal
        # reprs mean equal bits and the same envelope
        if self.alpha == self.beta and repr(mirror) == repr(self.with_certified(False)):
            return bound_a, bound_a
        _, bound_b = mirror.envelope(theta, tail_mass, cell_budget)
        return bound_a, bound_b


@dataclass(frozen=True, kw_only=True)
class KnownVarPlan(Plan):
    sigma: float

    kind = "known"

    def statistic(self, samples: Sequence[float], n: int) -> float:
        """sqrt(n) * (mean of the first n samples - gamma) / sigma."""
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if len(samples) < n:
            raise InsufficientDataError(
                f"statistic needs {n} samples, only {len(samples)} supplied"
            )
        mean = math.fsum(samples[:n]) / n
        return math.sqrt(n) * (mean - self.gamma) / self.sigma

    def stage_statistics(self, shifted: np.ndarray) -> np.ndarray:
        """z-statistics of every stage, stages in rows, replicates in columns.

        shifted holds samples minus gamma, replicates in rows; like
        ``statistic``, this standardizes by the plan's sigma, whatever sigma
        the data had.
        """
        csum = np.cumsum(shifted / self.sigma, axis=1)
        return np.array([csum[:, n - 1] / math.sqrt(n) for n in self.sizes])

    def stage_cdf(self, x: float, n: int, theta: float) -> float:
        """Pr{statistic at size n <= x}: normal with mean sqrt(n) theta, unit variance."""
        return std_normal_cdf(x - math.sqrt(n) * theta)

    def envelope(
        self,
        theta: float,
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> tuple[float, float]:
        """[phi, phi]: the closed form is exact, so the interval is a point."""
        _check_interval_settings(tail_mass, cell_budget)
        phi = oc_upper_phi(theta, self)
        return phi, phi


def build_known_plan(
    alpha: float,
    beta: float,
    epsilon: float,
    gamma: float,
    sigma: float,
    zeta: float,
    rho: float,
    tau: int,
) -> KnownVarPlan:
    """Construct the known-variance plan for the given design parameters.

    Stage sizes are the distinct values of
    ceil((z_a + z_b)^2 / (4 eps^2) * (1 + rho)^(i - tau)), i = 1..tau,
    with z_a, z_b the upper-tail normal critical values at zeta*alpha and
    zeta*beta; duplicates collapse, so the plan may have fewer than tau
    stages.  Thresholds: a_l = min(theta*, eps sqrt(n_l) - z_b) and
    b_l = max(theta*, z_a - eps sqrt(n_l)) with theta* = (z_a - z_b) / 2.
    """
    validate_design(alpha, beta, epsilon, zeta, rho, tau, sigma)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    tau = int(tau)

    z_a = std_normal_critical(zeta * alpha)
    z_b = std_normal_critical(zeta * beta)
    denom = 4.0 * epsilon * epsilon
    base = (z_a + z_b) ** 2 / denom if denom > 0.0 else math.inf
    if not math.isfinite(base):
        raise DomainError(f"epsilon must be large enough for finite stage sizes, got {epsilon}")
    sizes = sorted({max(1, math.ceil(base * (1.0 + rho) ** (i - tau))) for i in range(1, tau + 1)})
    theta_star = 0.5 * (z_a - z_b)

    stages = []
    for n in sizes:
        root = epsilon * math.sqrt(n)
        a = min(theta_star, root - z_b)
        b = max(theta_star, z_a - root)
        stages.append(Stage(n=n, a=a, b=b))
    return KnownVarPlan(
        alpha=float(alpha),
        beta=float(beta),
        epsilon=float(epsilon),
        gamma=float(gamma),
        sigma=float(sigma),
        zeta=float(zeta),
        rho=float(rho),
        tau=tau,
        theta_star=theta_star,
        stages=tuple(stages),
    )


def decision_code(t, a, b):
    """The decision rule: accept at or below a, reject strictly above b, continue between.

    Gives the ``Decision`` value (0 continue, 1 accept, 2 reject) of a
    statistic t against thresholds a <= b.  It is elementwise on numpy
    arrays and stays in plain integer arithmetic on floats.
    """
    return (t <= a) + 2 * (t > b)


_DECISIONS = tuple(Decision)  # indexed by decision code


def decide_stage(statistic: float, stage: Stage) -> Decision:
    """The decision rule at one stage's thresholds."""
    return _DECISIONS[decision_code(statistic, stage.a, stage.b)]


def _phi_terms(theta: float, stages: Sequence[Stage]):
    """Cone regions whose measures sum to phi(theta) beyond the first term."""
    for prev, cur in zip(stages[:-1], stages[1:]):
        ratio = cur.n / prev.n
        k = math.sqrt(ratio - 1.0)
        root = math.sqrt(cur.n) * theta
        h = cur.b - root
        g_b = -root + math.sqrt(ratio) * prev.b
        g_a = -root + math.sqrt(ratio) * prev.a
        yield ConeRegion(h=h, g=g_b, k=k), ConeRegion(h=h, g=g_a, k=k)


def oc_upper_phi(theta: float, plan: KnownVarPlan) -> float:
    """Rejection envelope phi(theta) for the plan's own thresholds.

    First stage contributes Phi(sqrt(n_1) theta - b_1); every later stage
    contributes the measure of a cone pair (continue band at l-1 crossed by
    the reject line at l).
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    stages = plan.stages
    total = std_normal_cdf(math.sqrt(stages[0].n) * theta - stages[0].b)
    for region_b, region_a in _phi_terms(theta, stages):
        total += cone_prob(region_b) - cone_prob(region_a)
    return total
