"""Plan execution on synthetic normal data: the stopped decision rule and
the adjacent-stage boundary-crossing sums the OC envelopes bound.

Each replicate's stage statistics come from the plan's own
``stage_statistics`` and its decisions from ``decision_code``, the rule a
session applies, so a simulated replicate reaches the stage and decision a
session fed the same samples reaches.  sigma is the data's standard
deviation; a known-variance plan still standardizes by its own sigma, so a
different sigma simulates a misspecified one.

Samples come from a counter-based uniform stream (Philox) pushed through
the inverse normal CDF.  Replicate r owns a fixed window of the stream, so
results are bit-identical no matter how the replicate range is chunked;
chunk tallies merge in index order.  A chunk holds at most 2**24 stream
words, so plans whose final stage exceeds 2**24 samples are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from numpy.random import Generator, Philox

from .errors import DomainError, SeqnormError
from .plan_known import Decision, decision_code

_CHUNK = 1 << 15  # replicates per chunk
_CHUNK_WORDS = 1 << 24  # stream words per chunk: 128 MiB per float64 chunk array
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
    """tally(codes) of every replicate chunk, in chunk order.

    codes holds each replicate's decision code at every stage (stages in
    rows, replicates in columns) from normal(mu, sigma^2) samples.
    """
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DomainError(f"mu and sigma must be finite, got {mu} and {sigma}")
    n_max = plan.sizes[-1]
    width = _words_per_replicate(n_max)
    rows = min(_CHUNK, _CHUNK_WORDS // width)
    if rows == 0:
        raise DomainError(
            f"final stage size {n_max} exceeds the simulation limit of {_CHUNK_WORDS} samples"
        )
    a = np.array([[st.a] for st in plan.stages])
    b = np.array([[st.b] for st in plan.stages])
    shift = mu - plan.gamma

    def worker(bounds):
        lo, hi = bounds
        z = _normal_block(seed, lo * width, hi - lo, width)[:, :n_max]
        return tally(decision_code(plan.stage_statistics(shift + sigma * z), a, b))

    chunks = [(lo, min(lo + rows, replications)) for lo in range(0, replications, rows)]
    return [worker(c) for c in chunks]


def _stop_tally(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """How many replicates stop at each stage, and how many of those accept.

    A replicate stops at the first stage it reaches that does not continue.
    """
    reached = np.ones_like(codes, dtype=bool)
    for idx in range(1, len(codes)):
        reached[idx] = reached[idx - 1] & (codes[idx - 1] == Decision.CONTINUE)
    stops = reached & (codes != Decision.CONTINUE)
    if np.count_nonzero(stops) != codes.shape[1]:
        raise SeqnormError("final stage failed to decide; plan invariant broken")
    accepted = np.count_nonzero(stops & (codes == Decision.ACCEPT))
    return np.count_nonzero(stops, axis=1), int(accepted)


def simulate_plan(plan, mu: float, sigma: float, replications: int, seed: int) -> SimReport:
    """Run the stagewise decision rule on synthetic normal(mu, sigma^2) data.

    Each replicate stops at its first deciding stage.  Deterministic in
    (plan, mu, sigma, replications, seed).
    """
    hist = np.zeros(plan.num_stages, dtype=np.int64)
    accepted = 0
    for part_hist, part_acc in _stage_pass(plan, mu, sigma, replications, seed, _stop_tally):
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


def _transition_tally(codes: np.ndarray) -> tuple[int, float, int, float]:
    """Sums and sums of squares of each replicate's reject and accept transitions.

    A transition at stage l is a decision there after stage l-1 continued;
    the first stage counts as following a continue.
    """
    prev_continue = np.ones_like(codes, dtype=bool)
    prev_continue[1:] = codes[:-1] == Decision.CONTINUE
    rej_count = np.count_nonzero(prev_continue & (codes == Decision.REJECT), axis=0)
    acc_count = np.count_nonzero(prev_continue & (codes == Decision.ACCEPT), axis=0)
    return (
        int(rej_count.sum()), float(np.dot(rej_count, rej_count)),
        int(acc_count.sum()), float(np.dot(acc_count, acc_count)),
    )


def mc_transition_sums(plan, mu: float, sigma: float, replications: int, seed: int) -> TransitionSums:
    rej_total = 0
    rej_sq = 0.0
    acc_total = 0
    acc_sq = 0.0
    for r1, r2, a1, a2 in _stage_pass(plan, mu, sigma, replications, seed, _transition_tally):
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
