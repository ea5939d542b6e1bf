"""Plan execution on synthetic normal data: the stopped decision rule and
the adjacent-stage boundary-crossing sums the OC envelopes bound.

Samples come from a counter-based uniform stream (Philox) pushed through
the inverse normal CDF.  Replicate r owns a fixed window of the stream, so
results are bit-identical no matter how the replicate range is chunked;
chunk tallies merge in index order.
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
