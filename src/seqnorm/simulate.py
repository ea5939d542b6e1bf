"""Monte Carlo and grid oracles: plan execution, 2-D domain probabilities,
and the sample-decomposition identity check.

Every stochastic routine draws from a counter-based uniform stream (Philox)
pushed through the inverse normal CDF.  Replicate r owns a fixed window of
the stream, so results are bit-identical no matter how the replicate range
is chunked; chunk tallies merge in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from numpy.random import Generator, Philox

from .errors import DomainError, SeqnormError

_CHUNK = 1 << 15
_U_FLOOR = 2.0 ** -64  # inverse-CDF guard: random() can emit exactly 0


def _uniform_block(seed: int, word_start: int, rows: int, cols: int) -> np.ndarray:
    """Uniforms from the counter-based stream, shaped (rows, cols).

    word_start must be a multiple of 4 (one Philox counter step yields four
    64-bit words) so any chunking reproduces the same layout.
    """
    if not (0 <= seed < 2**128):
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    if word_start % 4 != 0:
        raise ValueError("stream window must be 4-word aligned")
    gen = Generator(Philox(key=seed, counter=word_start // 4))
    return gen.random((rows, cols))


def _normal_block(seed: int, word_start: int, rows: int, cols: int) -> np.ndarray:
    u = _uniform_block(seed, word_start, rows, cols)
    np.maximum(u, _U_FLOOR, out=u)
    return sp.ndtri(u)


def _words_per_replicate(n: int) -> int:
    return 4 * ((n + 3) // 4)


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimReport:
    replications: int
    accept_rate: float
    reject_rate: float
    mc_se: float
    asn: float
    stage_histogram: tuple[int, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "accept_rate": self.accept_rate,
            "reject_rate": self.reject_rate,
            "mc_se": self.mc_se,
            "asn": self.asn,
            "stage_histogram": list(self.stage_histogram),
            "seed": self.seed,
        }


def _stage_pass(plan, mu: float, sigma: float, replications: int, seed: int, tally) -> list:
    """tally(stats, a, b) of every replicate chunk, in chunk order.

    stats holds each replicate's statistics at every stage (replicates in
    rows, stages in columns) from normal(mu, sigma^2) samples; a and b are
    the stage thresholds.
    """
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DomainError(f"mu and sigma must be finite, got {mu} and {sigma}")
    n_max = plan.sizes[-1]
    width = _words_per_replicate(n_max)
    a = np.array([st.a for st in plan.stages])
    b = np.array([st.b for st in plan.stages])
    shift = mu - plan.gamma

    def worker(bounds):
        lo, hi = bounds
        z = _normal_block(seed, lo * width, hi - lo, width)[:, :n_max]
        return tally(plan.stage_statistics(shift + sigma * z, sigma), a, b)

    chunks = [(lo, min(lo + _CHUNK, replications)) for lo in range(0, replications, _CHUNK)]
    return [worker(c) for c in chunks]


def simulate_plan(plan, mu: float, sigma: float, replications: int, seed: int) -> SimReport:
    """Run the stagewise decision rule on synthetic normal(mu, sigma^2) data.

    The stopped process never consults statistics past the deciding stage.
    Deterministic in (plan, mu, sigma, replications, seed).
    """
    s = plan.num_stages

    def tally(stats, a, b):
        undecided = np.ones(len(stats), dtype=bool)
        hist = np.zeros(s, dtype=np.int64)
        accepted = 0
        for idx in range(s):
            t = stats[:, idx]
            acc = undecided & (t <= a[idx])
            rej = undecided & (t > b[idx])
            decided = acc | rej
            hist[idx] += int(np.count_nonzero(decided))
            accepted += int(np.count_nonzero(acc))
            undecided &= ~decided
        if np.any(undecided):
            raise SeqnormError("final stage failed to decide; plan invariant broken")
        return hist, accepted

    hist = np.zeros(s, dtype=np.int64)
    accepted = 0
    for part_hist, part_acc in _stage_pass(plan, mu, sigma, replications, seed, tally):
        hist += part_hist
        accepted += part_acc

    accept_rate = accepted / replications
    reject_rate = (replications - accepted) / replications
    asn = float(np.dot(hist, np.array(plan.sizes, dtype=float))) / replications
    p = reject_rate
    mc_se = math.sqrt(p * (1.0 - p) / replications)
    return SimReport(
        replications=replications,
        accept_rate=accept_rate,
        reject_rate=reject_rate,
        mc_se=mc_se,
        asn=asn,
        stage_histogram=tuple(int(c) for c in hist),
        seed=seed,
    )


@dataclass(frozen=True)
class TransitionSums:
    """MC estimates of the adjacent-stage boundary-crossing sums.

    reject_sum estimates the sum over stages of Pr{stage l-1 in the continue
    band, stage l above the reject line}; accept_sum is the accept-side twin.
    These are the exact quantities the OC envelopes evaluate, computed from
    all stage statistics without stopping.
    """

    replications: int
    reject_sum: float
    reject_se: float
    accept_sum: float
    accept_se: float
    seed: int


def mc_transition_sums(plan, mu: float, sigma: float, replications: int, seed: int) -> TransitionSums:
    def tally(stats, a, b):
        rej_count = np.zeros(len(stats), dtype=np.int64)
        acc_count = np.zeros(len(stats), dtype=np.int64)
        prev_continue = np.ones(len(stats), dtype=bool)
        for idx in range(plan.num_stages):
            t = stats[:, idx]
            rej_count += (prev_continue & (t > b[idx])).astype(np.int64)
            acc_count += (prev_continue & (t <= a[idx])).astype(np.int64)
            prev_continue = (t > a[idx]) & (t <= b[idx])
        return (
            int(rej_count.sum()), float(np.dot(rej_count, rej_count)),
            int(acc_count.sum()), float(np.dot(acc_count, acc_count)),
        )

    rej_total = 0
    rej_sq = 0.0
    acc_total = 0
    acc_sq = 0.0
    for r1, r2, a1, a2 in _stage_pass(plan, mu, sigma, replications, seed, tally):
        rej_total += r1
        rej_sq += r2
        acc_total += a1
        acc_sq += a2

    n = replications
    rej_mean = rej_total / n
    acc_mean = acc_total / n
    rej_var = max(0.0, rej_sq / n - rej_mean * rej_mean)
    acc_var = max(0.0, acc_sq / n - acc_mean * acc_mean)
    return TransitionSums(
        replications=n,
        reject_sum=rej_mean,
        reject_se=math.sqrt(rej_var / n),
        accept_sum=acc_mean,
        accept_se=math.sqrt(acc_var / n),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# 2-D domain oracles
# ---------------------------------------------------------------------------


def mc_domain_prob(region, draws: int, seed: int) -> tuple[float, float]:
    """Indicator average of the region over standard bivariate normal draws."""
    return mc_domain_prob_many([region], draws, seed)[0]


def mc_domain_prob_many(regions, draws: int, seed: int) -> list[tuple[float, float]]:
    """mc_domain_prob for several regions over one shared draw stream.

    Returns exactly what per-region calls with the same (draws, seed) would,
    but generates the normals once.
    """
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    regions = list(regions)

    def worker(bounds):
        lo, hi = bounds
        z = _normal_block(seed, lo * 4, hi - lo, 4)
        u, v = z[:, 0], z[:, 1]
        return [int(np.count_nonzero(r.contains(u, v))) for r in regions]

    chunks = [(lo, min(lo + _CHUNK * 8, draws)) for lo in range(0, draws, _CHUNK * 8)]
    hits = [0] * len(regions)
    for part in map(worker, chunks):
        for i, count in enumerate(part):
            hits[i] += count
    out = []
    for count in hits:
        p = count / draws
        out.append((p, math.sqrt(p * (1.0 - p) / draws)))
    return out


def grid_domain_prob(region, half_width: float = 8.0, resolution: int = 4000) -> float:
    """Midpoint-rule integration of the standard bivariate density over the region.

    Both closed-form region families are u-convex (each vertical section is
    an interval), so the inner sum collapses to a prefix-sum difference of
    the one-dimensional weights; this equals the full two-dimensional
    midpoint sum term for term.  Regions without a ``u_interval`` method are
    handled by evaluating ``contains`` on midpoint rows.
    """
    if half_width < 8.0:
        raise DomainError("half_width below 8 truncates more than 1e-15 of mass")
    if resolution < 512:
        raise DomainError("resolution below 512 is too coarse for the stated error budget")
    step = 2.0 * half_width / resolution
    mid = -half_width + step * (np.arange(resolution) + 0.5)
    w = np.exp(-0.5 * mid * mid) / math.sqrt(2.0 * math.pi) * step

    if hasattr(region, "u_interval"):
        lo, hi = region.u_interval(mid)
        cum = np.concatenate(([0.0], np.cumsum(w)))
        left = np.searchsorted(mid, lo, side="left")
        right = np.searchsorted(mid, hi, side="right")
        right = np.maximum(right, left)
        inner = cum[right] - cum[left]
        return float(np.dot(w, inner))

    total = 0.0
    block = 256
    for start in range(0, resolution, block):
        v = mid[start : start + block]
        inside = np.broadcast_to(
            region.contains(mid[:, None], v[None, :]), (resolution, v.size)
        )
        total += float(np.dot(w, inside.astype(float) @ w[start : start + block]))
    return total


# ---------------------------------------------------------------------------
# Sample-decomposition identity (independence construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    replications: int
    identity_max_rel_err: float
    means: dict
    variances: dict
    max_abs_correlation: float
    correlation_threshold: float

    @property
    def passed(self) -> bool:
        return self.max_abs_correlation <= self.correlation_threshold


def sample_decomposition_check(
    n: int,
    m: int,
    replications: int,
    seed: int,
    mu: float = 0.0,
    sigma: float = 1.0,
) -> DecompositionReport:
    """Simulate the (U, V, Y, Z) split of a normal sample and audit it.

    U is the full-sample z-score, V the scaled difference between the first-
    block and second-block means, Y and Z the block sums of squared
    deviations over sigma^2.  Checks the algebraic identity
    sum (x_i - mean_n)^2 = sigma^2 (Y + Z + V^2) on every replicate (1e-9
    relative; violation raises) and reports moments plus the largest
    pairwise correlation against a 4 / sqrt(replications) threshold.
    """
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    if replications < 2:
        raise DomainError("need at least 2 replications")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")

    width = _words_per_replicate(n)
    cols = {"U": [], "V": [], "Y": [], "Z": []}
    worst_rel = 0.0

    for lo in range(0, replications, _CHUNK):
        hi = min(lo + _CHUNK, replications)
        z = _normal_block(seed, lo * width, hi - lo, width)[:, :n]
        x = mu + sigma * z
        first = x[:, :m]
        second = x[:, m:]
        mean_n = x.mean(axis=1)
        mean_first = first.mean(axis=1)
        mean_second = second.mean(axis=1)
        u = math.sqrt(n) * (mean_n - mu) / sigma
        v = math.sqrt(m * (n - m) / n) * (mean_first - mean_second) / sigma
        y = ((first - mean_first[:, None]) ** 2).sum(axis=1) / sigma**2
        zz = ((second - mean_second[:, None]) ** 2).sum(axis=1) / sigma**2

        lhs = ((x - mean_n[:, None]) ** 2).sum(axis=1)
        rhs = sigma**2 * (y + zz + v * v)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        rel = np.abs(lhs - rhs) / np.where(scale > 0.0, scale, 1.0)
        worst = float(rel.max())
        if worst > 1e-9:
            offender = int(lo + np.argmax(rel))
            raise AssertionError(
                f"decomposition identity violated at replicate {offender}: "
                f"relative error {worst:.3e}"
            )
        worst_rel = max(worst_rel, worst)
        cols["U"].append(u)
        cols["V"].append(v)
        cols["Y"].append(y)
        cols["Z"].append(zz)

    series = {key: np.concatenate(parts) for key, parts in cols.items()}
    means = {key: float(val.mean()) for key, val in series.items()}
    variances = {key: float(val.var()) for key, val in series.items()}
    names = ["U", "V", "Y", "Z"]
    max_corr = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            c = float(np.corrcoef(series[names[i]], series[names[j]])[0, 1])
            max_corr = max(max_corr, abs(c))
    return DecompositionReport(
        replications=replications,
        identity_max_rel_err=worst_rel,
        means=means,
        variances=variances,
        max_abs_correlation=max_corr,
        correlation_threshold=4.0 / math.sqrt(replications),
    )
