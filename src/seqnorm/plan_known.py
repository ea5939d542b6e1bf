"""Known-variance multistage plans: construction, decisions, OC/ASN bounds.

A plan runs stages of cumulative sample sizes n_1 < ... < n_s.  At stage l
the statistic T_l = sqrt(n_l) (mean_{n_l} - gamma) / sigma is compared with
an accept threshold a_l (accept at or below) and a reject threshold b_l
(reject above); between them sampling continues.  Stage sizes follow a
geometric ladder whose top size makes the two thresholds meet, so the last
stage always decides; ``Plan`` refuses any plan whose last stage does not.

The rejection envelope phi(theta) adds, over stages, the probability that
stage l-1 sat in the continue band while stage l crossed the reject line.
Conditioning on the fresh-sample direction turns each summand into the
difference of two cone measures that share their barrier and slope; the
geometry module evaluates the pair in closed form through the same kernel
as ``cone_prob``, computing what the two cones share once.  phi taken at
the indifference-zone endpoint equals the plan's total boundary-crossing
rate there, which is what calibration pins to the error budget.

``Plan`` holds what both variance cases share: the design fields, the
stage ladder, the stage statistic, the mirror plan, the OC bounds, the
certificate and the sample-number tails.  ``KnownVarPlan`` here and
``UnknownVarPlan`` in plan_unknown add the statistic's scale, its law at a
stage and the envelopes of a list of plans.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import DomainError, _shown, count, real
from .geometry import _cone_measure, _cone_shared
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
        # the builders, mirror and the loader pass an int and two floats (the
        # critical values come from cython_special, which returns floats), so
        # they are taken as they are
        if not (type(self.n) is int and type(self.a) is float and type(self.b) is float):
            object.__setattr__(self, "n", count("n", self.n))
            object.__setattr__(self, "a", real("a", self.a, finite=False))
            object.__setattr__(self, "b", real("b", self.b, finite=False))
        if not 1 <= self.n < 2**64:
            n = count("n", self.n)  # refuses an n too long to print
            if n < 1:
                raise DomainError(f"stage size must be >= 1, got {n}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("stage thresholds must be finite")
        if self.a > self.b:
            raise DomainError(f"stage thresholds inverted: a={self.a} > b={self.b}")


def validate_design(alpha, beta, epsilon, zeta, rho, tau):
    """The design values, tau as an int and the rest as floats, once all are
    valid; DomainError names the first that is not (sigma: ``KnownVarPlan``)."""
    alpha, beta = real("alpha", alpha, finite=False), real("beta", beta, finite=False)
    epsilon, zeta = real("epsilon", epsilon, finite=False), real("zeta", zeta, finite=False)
    rho, tau = real("rho", rho, finite=False), count("tau", tau)
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
    if tau < 1:
        raise DomainError(f"tau must be a positive integer, got {tau}")
    if tau > _TAU_LIMIT:
        raise DomainError(f"tau must be at most {_TAU_LIMIT}, got {tau}")
    return alpha, beta, epsilon, zeta, rho, tau


# defaults of the unknown-variance interval (chi-square tail mass and
# partition cells per stage term); the closed-form known envelope only checks
# them, so that both plan kinds refuse the same settings
DEFAULT_TAIL_MASS = 1e-4
DEFAULT_CELL_BUDGET = 256


def _check_interval_settings(tail_mass: float, cell_budget: int) -> tuple[float, int]:
    """tail_mass as a float and cell_budget as an int, once they are valid."""
    tail_mass = real("tail_mass", tail_mass, finite=False)
    if not (0.0 < tail_mass < 1.0):
        raise DomainError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    # the partition refines until it reaches the budget: a NaN or inf one never ends
    cell_budget = count("cell_budget", cell_budget)
    if cell_budget < 4:
        raise DomainError(f"cell_budget must be >= 4, got {cell_budget}")
    return tail_mass, cell_budget


def _threshold_repr(plan) -> str:
    return repr([plan.theta_star, *[(s.a, s.b) for s in plan.stages]])


@dataclass(frozen=True, kw_only=True)
class Plan:
    """Design parameters plus the stage ladder they build.

    A subclass supplies the statistic's scale ``_sd(squares, n, out)`` and
    whether it is ``studentized`` (reads the squares), the statistic's law
    ``stage_cdf(x, n, theta)`` at stage size n and standardized mean
    theta, and ``envelopes(pairs, tail_mass, cell_budget)``, one
    ``(lo, hi)`` bracket of the rejection envelope per (theta, plan) pair,
    plans of its kind, evaluated together.
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
    studentized: ClassVar[bool]

    def __post_init__(self):
        """Refuse a plan without stages, with sizes that do not increase, or
        whose final stage can continue (a != b), in one pass over the stages."""
        if not self.stages:
            raise DomainError("plan has no stages")
        n = 0  # below every stage size
        for stage in self.stages:
            if not stage.n > n:
                raise DomainError(f"stage sizes must increase, got {n} then {stage.n}")
            n = stage.n
        if stage.a != stage.b:
            raise DomainError(f"the final stage must decide: a={stage.a!r} != b={stage.b!r}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def with_certified(self, certified: bool) -> "Plan":
        return replace(self, certified=certified)

    def stage_statistics(self, sums, squares, n):
        """The stage statistic sqrt(n) (sums / n - gamma) / sd, elementwise.

        sums are sums of n samples and squares their sums of squared
        deviations, read only by a studentized plan, whose sd is
        sqrt(squares / (n - 1)); any other plan's sd is its sigma.  n is
        one stage size, as sessions pass it, or an array that broadcasts
        against sums.  An overflowing statistic is +-inf, which still
        decides; a zero sd pins it to the sign of sums / n - gamma, and
        0 / 0 gives 0.  It is ``_statistics_into`` on a copy of sums.
        """
        return self._statistics_into(np.array(sums, dtype=float)[()], squares, n)

    def _statistics_into(self, t, squares, n, sd=None):
        """Overwrite t, sums of n samples, with their stage statistic, and return it.

        The one kernel of the statistic, which the simulator calls too.
        Each step is an augmented operator, in the order sqrt(n) (sums / n -
        gamma) / sd evaluates, so an array t is written in place and a
        scalar rebound.  sd is a scratch array of t's shape for a studentized
        plan's sd, or None.  A 0 / 0 makes a copy with 0 there.
        """
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t /= n
            t -= self.gamma
            t *= np.sqrt(n)
            t /= self._sd(squares, n, sd)
        nan = np.isnan(t)
        return np.where(nan, 0.0, t) if nan.any() else t

    def _mirrored_thresholds(self) -> tuple[float, list[tuple[float, float]]]:
        """theta* and the stage (a, b) pairs of ``mirror()``.

        Swapping alpha and beta negates theta* and negates and exchanges
        each stage's thresholds.  ``0.0 - x`` keeps the +0.0 build_known_plan
        and build_unknown_plan give where a threshold is zero (``-x`` would
        give -0.0).
        """
        return 0.0 - self.theta_star, [(0.0 - s.b, 0.0 - s.a) for s in self.stages]

    def mirror(self) -> "Plan":
        """The plan build_known_plan or build_unknown_plan makes with alpha and beta swapped.

        Swapping them keeps every stage size; theta* and the thresholds are
        ``_mirrored_thresholds()``, which is what the acceptance-side bound
        evaluates.
        """
        theta_star, pairs = self._mirrored_thresholds()
        return replace(
            self,
            alpha=self.beta,
            beta=self.alpha,
            theta_star=theta_star,
            stages=tuple(Stage(n=s.n, a=a, b=b) for s, (a, b) in zip(self.stages, pairs)),
            certified=False,
        )

    def _is_own_mirror(self) -> bool:
        """Whether ``mirror()`` has this plan's thresholds bit for bit,
        decided without building it.

        The mirror swaps alpha and beta, so only alpha = beta plans can be
        their own, and changes no other field but theta_star, the stages and
        certified.  repr tells -0.0 from 0.0, so equal reprs mean equal bits.
        """
        theta_star, pairs = self._mirrored_thresholds()
        return self.alpha == self.beta and repr([theta_star, *pairs]) == _threshold_repr(self)

    def sample_tail(self, ell: int, theta: float) -> float:
        """Bound on Pr{sampling continues past stage ell}: the continue-band mass."""
        s = self.num_stages
        ell = count("ell", ell)
        if not (1 <= ell <= s - 1):
            raise DomainError(
                f"stage index must lie in [1, {s - 1}] (sampling always stops at stage {s})"
            )
        theta = real("theta", theta)
        stage = self.stages[ell - 1]
        if not math.isfinite(math.sqrt(stage.n) * theta):
            raise _overflow(theta, ell, stage.n)
        value = self.stage_cdf(stage.b, stage.n, theta) - self.stage_cdf(stage.a, stage.n, theta)
        return max(0.0, value)

    def oc_bounds(
        self,
        thetas,
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> list[tuple[float, float]]:
        """Certified (lower, upper) bounds on Pr{accept | mean = gamma + theta sigma} at each theta.

        Only stated outside the indifference zone: below it the acceptance
        probability exceeds 1 - (envelope upper end at theta); above it, it
        stays below the mirror plan's envelope upper end at -theta.  A theta
        is refused after the envelopes of those before it, so an error is
        the first failing theta's.
        """
        try:
            thetas = list(thetas)
        except TypeError:
            raise DomainError(f"thetas must be an iterable, got {_shown(thetas)}") from None
        pairs, refusal, mirror = [], None, None
        for theta in thetas:
            try:
                theta = real("theta", theta, finite=False)  # the envelope refuses NaN and inf
                if abs(theta) < self.epsilon:
                    raise DomainError(
                        f"theta={theta} lies inside the indifference zone; no bound is stated there"
                    )
            except DomainError as exc:
                refusal = exc
                break
            if theta <= -self.epsilon:
                pairs.append((theta, self))
            else:
                mirror = mirror or self.mirror()
                pairs.append((-theta, mirror))
        brackets = self.envelopes(pairs, tail_mass, cell_budget)
        if refusal is not None:
            raise refusal
        # the envelope may exceed 1 for uncalibrated designs; the bounds floor at 0
        return [
            (min(1.0, max(0.0, 1.0 - hi)), 1.0) if plan is self else (0.0, min(1.0, max(0.0, hi)))
            for (_, plan), (_, hi) in zip(pairs, brackets)
        ]

    def certify(
        self, tail_mass: float = DEFAULT_TAIL_MASS, cell_budget: int = DEFAULT_CELL_BUDGET
    ) -> tuple[float, float]:
        """(bound_a, bound_b): envelope upper ends at theta = -epsilon.

        bound_a is the plan's own envelope and bounds the Type I error;
        bound_b is the mirror plan's and bounds the Type II error.  The plan
        is certified when bound_a <= alpha and bound_b <= beta.  Both
        envelopes are evaluated in one envelopes call; a plan that is its own
        mirror (every alpha = beta design) has bound_b = bound_a, and its
        envelope is evaluated once.
        """
        plans = [self] if self._is_own_mirror() else [self, self.mirror()]
        brackets = self.envelopes([(-self.epsilon, plan) for plan in plans], tail_mass, cell_budget)
        return brackets[0][1], brackets[-1][1]


def _check_plan(plan, cls=Plan) -> None:
    """DomainError unless plan is a cls: a plan of either kind by default."""
    if not isinstance(plan, cls):
        raise DomainError(f"plan must be an instance of {cls.__name__}, got {type(plan).__name__}")


@dataclass(frozen=True, kw_only=True)
class KnownVarPlan(Plan):
    sigma: float

    kind = "known"
    studentized = False

    def __post_init__(self):
        """The ``Plan`` contract, and a sigma the statistic can divide by."""
        super().__post_init__()
        object.__setattr__(self, "sigma", real("sigma", self.sigma, finite=False))
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")

    def _sd(self, squares, n, out) -> float:
        """The plan's sigma, whatever sigma the data had; out is left as it is."""
        return self.sigma

    def stage_cdf(self, x: float, n: int, theta: float) -> float:
        """Pr{statistic at size n <= x}: normal with mean sqrt(n) theta, unit variance."""
        return std_normal_cdf(x - math.sqrt(n) * theta)

    @staticmethod
    def envelopes(
        pairs: list[tuple[float, "KnownVarPlan"]],
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> list[tuple[float, float]]:
        """[phi, phi] per (theta, plan) pair: the closed form is exact, so each is a point."""
        _check_interval_settings(tail_mass, cell_budget)
        phis = [oc_upper_phi(theta, plan) for theta, plan in pairs]
        return [(phi, phi) for phi in phis]


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
    b_l = max(theta*, z_a - eps sqrt(n_l)) with theta* = (z_a - z_b) / 2;
    the top size, where the two meet, gets a_s = b_s = theta* itself, since
    rounding may leave the formulas an ulp apart there.
    """
    alpha, beta, epsilon, zeta, rho, tau = validate_design(alpha, beta, epsilon, zeta, rho, tau)
    gamma = real("gamma", gamma)

    z_a = std_normal_critical(zeta * alpha)
    z_b = std_normal_critical(zeta * beta)
    denom = 4.0 * epsilon * epsilon
    base = (z_a + z_b) ** 2 / denom if denom > 0.0 else math.inf
    if not math.isfinite(base):
        raise DomainError(f"epsilon must be large enough for finite stage sizes, got {epsilon}")
    sizes = sorted({max(1, math.ceil(base * (1.0 + rho) ** (i - tau))) for i in range(1, tau + 1)})
    theta_star = 0.5 * (z_a - z_b)

    stages = []
    for n in sizes[:-1]:
        root = epsilon * math.sqrt(n)
        stages.append(Stage(n=n, a=min(theta_star, root - z_b), b=max(theta_star, z_a - root)))
    stages.append(Stage(n=sizes[-1], a=theta_star, b=theta_star))
    return KnownVarPlan(
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        gamma=gamma,
        sigma=sigma,
        zeta=zeta,
        rho=rho,
        tau=tau,
        theta_star=theta_star,
        stages=tuple(stages),
    )


def decision_masks(t, a, b):
    """The decision rule: accept at or below a, reject strictly above b, continue between.

    Gives the two comparisons of a statistic t against thresholds a <= b,
    (t <= a, t > b), elementwise on numpy arrays and as plain bools on
    floats; at most one holds, and where neither does sampling continues.
    """
    return t <= a, t > b


def decision_code(t, a, b):
    """The ``Decision`` value (0 continue, 1 accept, 2 reject) of a
    statistic t against thresholds a <= b, from ``decision_masks``: an
    integer array on numpy arrays and a plain int on floats."""
    accept, reject = decision_masks(t, a, b)
    return accept + 2 * reject


def _overflow(theta: float, ell: int, n: int) -> DomainError:
    # oc_bounds evaluates the mirror plan at -theta: only |theta| is the caller's
    message = f"the stage {ell} term (n = {n}) overflows double precision"
    return DomainError(f"|theta| = {abs(theta)!r} is too large: {message}")


def oc_upper_phi(theta: float, plan: KnownVarPlan) -> float:
    """Rejection envelope phi(theta) for the plan's own thresholds.

    First stage contributes Phi(sqrt(n_1) theta - b_1); every later stage
    contributes the measure of a cone pair (continue band at l-1 crossed by
    the reject line at l).
    """
    theta = real("theta", theta)
    _check_plan(plan, KnownVarPlan)
    stages = plan.stages
    x = math.sqrt(stages[0].n) * theta - stages[0].b
    if not math.isfinite(x):
        raise _overflow(theta, 1, stages[0].n)
    total = std_normal_cdf(x)
    for ell, (prev, cur) in enumerate(zip(stages[:-1], stages[1:]), 2):
        ratio = cur.n / prev.n
        k = math.sqrt(ratio - 1.0)
        root = math.sqrt(cur.n) * theta
        h = cur.b - root
        g_b = -root + math.sqrt(ratio) * prev.b
        g_a = -root + math.sqrt(ratio) * prev.a
        if not (math.isfinite(h) and math.isfinite(g_b) and math.isfinite(g_a)):
            raise _overflow(theta, ell, cur.n)
        shared = _cone_shared(h, k)
        total += _cone_measure(h, g_b, k, *shared) - _cone_measure(h, g_a, k, *shared)
    return total
