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

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SeqnormError, real
from .geometry import (  # noqa: F401  (hyperbola_cone_prob: perfbench's binding test)
    HyperbolaFamily,
    _cone_measure,
    _cone_shared,
    hyperbola_cone_prob,
    hyperbola_family_prob_many,
)
from .plan_known import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_TAIL_MASS,
    Plan,
    Stage,
    _check_interval_settings,
    _overflow,
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
    studentized = True

    def __post_init__(self):
        """The ``Plan`` contract, and a first stage with a sample deviation."""
        super().__post_init__()
        if self.stages[0].n < 2:
            raise DomainError("unknown-variance plans need stage sizes >= 2")

    def _sd(self, squares, n, out):
        """The sample deviation sqrt(squares / (n - 1)), written into out; a
        negative sum of squares counts as zero."""
        if np.any(np.less(n, 2)):
            raise DomainError("unknown-variance plans need stage sizes >= 2")
        sd = np.maximum(squares, 0.0, out=out)
        sd /= n - 1
        return np.sqrt(sd, out=out)

    def stage_cdf(self, x: float, n: int, theta: float) -> float:
        """Pr{statistic at size n <= x}: noncentral t, n - 1 dof, ncp sqrt(n) theta."""
        return noncentral_t_cdf(x, n - 1, math.sqrt(n) * theta)

    @staticmethod
    def envelopes(
        theta: float,
        plans: list["UnknownVarPlan"],
        tail_mass: float = DEFAULT_TAIL_MASS,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> list[tuple[float, float]]:
        """Intervals [lower, upper] certified to bracket each plan's rejection envelope.

        The first-stage term is a single noncentral-t tail and enters both
        ends exactly, and is the whole envelope of a single-stage plan.  Each
        later term is bracketed by partition cells; the chi-square tail
        truncation budget is split evenly over a plan's terms, so the total
        truncation slack absorbed into its interval is at most tail_mass.
        The partitions of every term of every plan are refined in lock-step,
        so the corners a round lacks go through one hyperbola_family_prob_many
        call; each term's cells are the ones stage_term_cells gives.
        """
        theta = real("theta", theta)
        tail_mass, cell_budget = _check_interval_settings(tail_mass, cell_budget)

        specs = [
            (j, ell, tail_mass / (plan.num_stages - 1))
            for j, plan in enumerate(plans)
            for ell in range(2, plan.num_stages + 1)
        ]
        terms = [_StageTerm(theta, plans[j], ell, tail_budget) for j, ell, tail_budget in specs]
        term_cells = _term_cells(terms, cell_budget)

        brackets = []
        for plan in plans:
            first = plan.stages[0]
            if not math.isfinite(math.sqrt(first.n) * theta):
                raise _overflow(theta, 1, first.n)
            p1 = 1.0 - plan.stage_cdf(first.b, first.n, theta)
            brackets.append([p1, p1])
        for (j, ell, tail_budget), term, cells in zip(specs, terms, term_cells):
            cell_lo = math.fsum(cells[:, 4])
            cell_hi = math.fsum(cells[:, 5])
            if term.negate:
                nct = plans[j].sample_tail(ell - 1, theta)
                term_lo = max(0.0, nct + cell_lo - tail_budget)
                term_hi = min(nct, nct + cell_hi)
            else:
                term_lo = max(0.0, cell_lo)
                term_hi = cell_hi + tail_budget
            if term_lo > term_hi + 1e-12:
                raise SeqnormError(f"stage {ell} interval inverted: [{term_lo}, {term_hi}]")
            brackets[j][0] += term_lo
            brackets[j][1] += term_hi
        return [(lower, upper) for lower, upper in brackets]


def min_stage_size(alpha: float, beta: float, epsilon: float, zeta: float) -> int:
    """Smallest n with t_{n-1, zeta*alpha} + t_{n-1, zeta*beta} <= 2 eps sqrt(n-1).

    The left side shrinks and the right side grows in n, so the predicate
    is monotone; a doubling search brackets the crossover and bisection
    pins it.
    """
    alpha, beta, epsilon, zeta, _, _ = validate_design(alpha, beta, epsilon, zeta, rho=1.0, tau=1)

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
    theta* = (t_{n_s-1, zeta*alpha} - t_{n_s-1, zeta*beta}) / (2 sqrt(n_s - 1)),
    except at the top size n_s, where the two meet: a_s = b_s =
    theta* sqrt(n_s - 1) itself, since rounding may leave them an ulp apart.
    """
    alpha, beta, epsilon, zeta, rho, tau = validate_design(alpha, beta, epsilon, zeta, rho, tau)
    gamma = real("gamma", gamma)

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
    for n in sizes[:-1]:
        dof = n - 1
        root = math.sqrt(dof)
        a = min(theta_star * root, epsilon * root - student_t_critical(dof, zeta * beta))
        b = max(theta_star * root, student_t_critical(dof, zeta * alpha) - epsilon * root)
        stages.append(Stage(n=n, a=a, b=b))
    close = theta_star * math.sqrt(dof_final)
    stages.append(Stage(n=sizes[-1], a=close, b=close))
    return UnknownVarPlan(
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        gamma=gamma,
        zeta=zeta,
        rho=rho,
        tau=tau,
        theta_star=theta_star,
        stages=tuple(stages),
    )


# perfbench calls the mirror by this module-level name
mirror_unknown_plan = UnknownVarPlan.mirror


# ---------------------------------------------------------------------------
# Partition machinery
# ---------------------------------------------------------------------------


def _halves(y_lo, y_hi, z_lo, z_hi, along_y):
    """The two halves of the rectangle (y_lo, y_hi, z_lo, z_hi), cut across y or z."""
    if along_y:
        y_mid = 0.5 * (y_lo + y_hi)
        return [(y_lo, y_mid, z_lo, z_hi), (y_mid, y_hi, z_lo, z_hi)]
    z_mid = 0.5 * (z_lo + z_hi)
    return [(y_lo, y_hi, z_lo, z_mid), (y_lo, y_hi, z_mid, z_hi)]


def _partition_many(
    roots: list[tuple[float, float, float, float]],
    budget: int,
    evaluate_round: Callable[[list[tuple[int, list]]], list[list[tuple[float, float]]]],
) -> list[np.ndarray]:
    """Cells tiling each root = (y_lo, y_hi, z_lo, z_hi), all partitions refined in lock-step.

    A root is halved along y and, if z has extent, along z.  Then each round
    the widest-gap cell of every partition still refining, the lowest-index
    one among equals, is bisected along its side longer in units of the
    root's sides: the low half keeps its row and the high half is appended,
    until budget cells exist, so larger budgets extend one path.  A partition
    whose widest cell has no extent stops.  evaluate_round(pending) gets, in
    one call per round, the (root index, rectangles) pair of every partition
    still refining, and returns each pair's (p_lower, p_upper) list in the
    same order.  Each root's cells are rows (y_lo, y_hi, z_lo, z_hi, p_lower,
    p_upper).
    """
    roots = np.array(roots, dtype=float).reshape(-1, 4)
    if (roots[:, ::2] > roots[:, 1::2]).any():
        raise DomainError("cell bounds inverted")
    spans = (roots[:, 1::2] - roots[:, ::2]).tolist()
    # rows and their gaps p_upper - p_lower, doubled when full
    cells = [np.empty((4, 6)) for _ in spans]
    gaps = [np.empty(4) for _ in spans]
    # slots[i]: the rows partition i's latest rectangles fill, the last one its last row
    slots, pending = [], []
    for i, root in enumerate(roots.tolist()):
        rows = _halves(*root, False) if spans[i][1] > 0.0 else [tuple(root)]
        pending.append((i, [half for row in rows for half in _halves(*row, True)]))
        slots.append(range(len(pending[-1][1])))
    while pending:
        rounds = zip(pending, evaluate_round(pending))
        made = np.array([r + tuple(b) for (_, rects), bs in rounds for r, b in zip(rects, bs)])
        inverted = made[:, 4] > made[:, 5] + 1e-12
        if inverted.any():
            lower, upper = made[inverted.argmax(), 4:]
            raise SeqnormError(f"cell bound inversion: lower={lower} > upper={upper}")
        made = zip(made, (made[:, 5] - made[:, 4]).tolist())
        advanced = []
        for i, _ in pending:
            if slots[i][-1] >= len(gaps[i]):
                cells[i] = np.concatenate((cells[i], cells[i]))
                gaps[i] = np.concatenate((gaps[i], gaps[i]))
            for slot in slots[i]:
                cells[i][slot], gaps[i][slot] = next(made)
            n = slots[i][-1] + 1
            if n >= budget:
                continue
            best = int(gaps[i][:n].argmax())
            y_lo, y_hi, z_lo, z_hi = cells[i][best, :4].tolist()
            ny = (y_hi - y_lo) / spans[i][0] if spans[i][0] > 0.0 else 0.0
            nz = (z_hi - z_lo) / spans[i][1] if spans[i][1] > 0.0 else 0.0
            if ny > 0.0 or nz > 0.0:
                slots[i] = (best, n)
                advanced.append((i, _halves(y_lo, y_hi, z_lo, z_hi, ny >= nz)))
        pending = advanced
    return [rows[: last[-1] + 1] for rows, last in zip(cells, slots)]


class _StageTerm:
    """The stage-ell envelope term (ell >= 2, 1-based): its (y, z) root and corner bounds.

    The root holds the central 1 - tail_budget/2 of Y and of Z (Z = 0 when it
    has no dof).  A rectangle of it bounds Pr{scale sqrt(V^2 + y + z) <= U -
    off <= k V + omega sqrt(y)} differences between two omega values using
    monotonicity: the radicand grows with y + z (shrinking the region) and
    the line intercept grows with omega sqrt(y).  Every corner is a region
    of one hyperbola family (offset off, lam scale^2, slope k), built once
    per term; when scale is 0, a cone of barrier off and slope k, whose
    _cone_shared is computed once per term.  Neighbouring cells share
    corners and edges, so each corner's probability is computed once per
    term, by _fill_corners, and each edge's chi-square CDF once, by mass;
    both are then looked up.
    """

    def __init__(self, theta: float, plan: UnknownVarPlan, ell: int, tail_budget: float):
        prev = plan.stages[ell - 2]
        cur = plan.stages[ell - 1]
        self.dof_y = prev.n - 1
        self.dof_z = cur.n - prev.n - 1
        self.k = math.sqrt(cur.n / prev.n - 1.0)
        scale_prev = math.sqrt(cur.n / prev.n)
        c_prev = prev.a / math.sqrt(prev.n - 1)
        d_prev = prev.b / math.sqrt(prev.n - 1)
        d_cur = cur.b / math.sqrt(cur.n - 1)

        # a negative reject slope flips the event; multiplying by -1.0 is exact
        sign = 1.0 if d_cur >= 0.0 else -1.0
        self.scale = sign * d_cur
        self.off = -sign * math.sqrt(cur.n) * theta
        self.omega_plus = sign * scale_prev * d_prev  # event entering the difference with +
        self.omega_minus = sign * scale_prev * c_prev  # event entering with -
        self.negate = sign < 0.0  # True when the difference is nonpositive
        # a hyperbola-cone corner's arc bound takes scale^2 off^2, a cone corner off itself
        size = self.scale * self.scale * (self.off * self.off) if self.scale != 0.0 else self.off
        if not math.isfinite(size):
            raise _overflow(theta, ell, cur.n)
        self.lam = self.scale * self.scale
        self.family = HyperbolaFamily(self.off, self.lam, self.k) if self.scale != 0.0 else None
        self.cone = _cone_shared(self.off, self.k) if self.family is None else None
        self._corners: dict[tuple[float, float, float], float] = {}
        self._cdf: dict[tuple[float, int], float] = {}

        quarter = tail_budget / 4.0
        y_lo = chi_square_quantile(quarter, self.dof_y)
        y_hi = chi_square_quantile(1.0 - quarter, self.dof_y)
        if self.dof_z > 0:
            z_lo = chi_square_quantile(quarter, self.dof_z)
            z_hi = chi_square_quantile(1.0 - quarter, self.dof_z)
        else:
            z_lo = z_hi = 0.0
        self.root = (y_lo, y_hi, z_lo, z_hi)

    def corner(self, key: tuple[float, float, float]):
        """The event at a corner key: when scale is 0 its probability, the
        cone's closed form, else the (family, h, g) of a hyperbola-cone."""
        sum_yz, y, omega = key
        if self.family is None:
            return _cone_measure(self.off, self.off + omega * math.sqrt(y), self.k, *self.cone)
        # h takes scale^2 itself, not the family's lam, which may be nudged
        return self.family, self.lam * sum_yz, omega * math.sqrt(y)

    def rect_keys(self, rect) -> list[tuple[float, float, float]]:
        """The omega_plus then omega_minus (upper, lower) keys (y + z, y, omega) of rect."""
        y_lo, y_hi, z_lo, z_hi = rect
        # the cone path (scale 0) ignores y + z, so its corners share it
        near, far = (y_lo + z_lo, y_hi + z_hi) if self.scale != 0.0 else (0.0, 0.0)
        keys = []
        for omega in (self.omega_plus, self.omega_minus):
            y_wide, y_narrow = (y_hi, y_lo) if omega >= 0.0 else (y_lo, y_hi)
            keys += [(near, y_wide, omega), (far, y_narrow, omega)]
        return keys

    def _chi_square_cdf(self, x: float, dof: int) -> float:
        """chi_square_cdf(x, dof), computed once per edge of this term."""
        p = self._cdf.get((x, dof))
        if p is None:
            p = self._cdf[x, dof] = chi_square_cdf(x, dof)
        return p

    def mass(self, y_lo, y_hi, z_lo, z_hi) -> float:
        cdf = self._chi_square_cdf
        m = cdf(y_hi, self.dof_y) - cdf(y_lo, self.dof_y)
        if self.dof_z > 0:
            m *= cdf(z_hi, self.dof_z) - cdf(z_lo, self.dof_z)
        return max(0.0, m)

    def bounds(self, rects, keys) -> list[tuple[float, float]]:
        """Mass-weighted (lower, upper) bounds of rectangles whose corners are
        in the memo, keys holding each rectangle's rect_keys."""
        corners = self._corners
        out = []
        for rect, rect_keys in zip(rects, keys):
            a_hi, a_lo, b_hi, b_lo = [corners[key] for key in rect_keys]
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


def _fill_corners(batch: list[tuple[_StageTerm, list]]) -> None:
    """Compute the corners that each (term, keys) pair's memo lacks, keys
    holding the rect_keys of each of the term's rectangles.

    Cone corners (scale 0) are closed forms, computed one by one; every
    hyperbola-cone corner of the batch goes, as (family, h, g), into one
    hyperbola_family_prob_many call.  A region's probability does not
    depend on the batch it is in, so each memo holds the same bits whichever
    terms share a round.
    """
    owners, corners = [], []
    for term, keys in batch:
        missing = [
            key for key in dict.fromkeys(key for rect_keys in keys for key in rect_keys)
            if key not in term._corners
        ]
        if term.family is None:
            for key in missing:
                term._corners[key] = term.corner(key)
        else:
            owners += [(term, key) for key in missing]
            corners += [term.corner(key) for key in missing]
    if corners:
        for (term, key), p in zip(owners, hyperbola_family_prob_many(corners)):
            term._corners[key] = p


def _term_cells(terms: list[_StageTerm], cell_budget: int) -> list[np.ndarray]:
    """The cells of each term's root, all refined in lock-step by _partition_many."""

    def evaluate_round(pending):
        # each rectangle's corner keys, made once for the round's corners and bounds
        batch = [
            (terms[i], rects, [terms[i].rect_keys(rect) for rect in rects]) for i, rects in pending
        ]
        _fill_corners([(term, keys) for term, _, keys in batch])
        return [term.bounds(rects, keys) for term, rects, keys in batch]

    return _partition_many([term.root for term in terms], cell_budget, evaluate_round)


def stage_term_cells(
    theta: float, plan: UnknownVarPlan, ell: int, tail_budget: float, cell_budget: int
) -> tuple[np.ndarray, _StageTerm, tuple[float, float]]:
    """Partition cells bounding the stage-ell envelope term (ell >= 2, 1-based).

    Returns the cells, rows (y_lo, y_hi, z_lo, z_hi, p_lower, p_upper), the
    _StageTerm and its root's (y, z) side lengths (see _StageTerm for the
    root).  UnknownVarPlan.envelopes refines these same cells for every
    term of its plans at once.
    """
    term = _StageTerm(theta, plan, ell, tail_budget)
    [cells] = _term_cells([term], cell_budget)
    y_lo, y_hi, z_lo, z_hi = term.root
    return cells, term, (y_hi - y_lo, z_hi - z_lo)


def oc_upper_P(
    theta: float,
    plan: UnknownVarPlan,
    tail_mass: float = DEFAULT_TAIL_MASS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> tuple[float, float]:
    """Certified bracket of the plan's rejection envelope: envelopes' one-plan call."""
    return UnknownVarPlan.envelopes(theta, [plan], tail_mass, cell_budget)[0]
