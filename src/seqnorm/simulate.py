"""Plan execution on synthetic normal data: the stopped decision rule and
the adjacent-stage boundary-crossing sums the OC envelopes bound.

Each replicate's stage statistics come from the plan's own
``stage_statistics`` and its decisions from ``decision_code``: the method
and the rule a session applies, so a simulated replicate reaches the stage
and decision a session reaches on samples with the same stage sums and
sums of squares.  sigma is the data's standard deviation; a known-variance
plan still standardizes by its own sigma, so a different sigma simulates a
misspecified one.

A stage statistic depends on the samples only through their sum and, for a
studentized plan, their sum of squared deviations, so a replicate draws
those per stage block, not its samples.  The block of dn = n_l - n_{l-1}
samples gets its sum, dn * (mu - gamma) + sigma * sqrt(dn) * Z, and a
studentized plan also gets its within-block sum of squared deviations,
sigma^2 * chi^2(dn - 1): the sum of dn - 1 squared normals (Helmert's
decomposition) below ``_CHI2_INVERSE_DF`` degrees of freedom, and one
inverse-CDF draw 2 * gammaincinv((dn - 1) / 2, u) from there on.  Blocks
pool into stage sums and sums of squares by ``_stage_sums``, on sums taken
about gamma so the pooled means do not cancel; n * gamma is added back
before the statistic.  A replicate of a known-variance plan costs one draw
per stage, whatever its stage sizes.  Data whose stage sums or sums of
squares could overflow a double are refused.

Draws come from a counter-based uniform stream (Philox); a normal is one
stream word pushed through the inverse normal CDF.  Replicate r owns a
fixed 4-word-aligned window of sum_l (1 + k_l) words, k_l being the words
block l spends on its sum of squares, so results are bit-identical no
matter how the replicate range is chunked; chunk tallies merge in index
order.  Plans whose final stage exceeds 2**24 samples are refused; that is
simulate's stated range, not a memory limit.
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
_MAX_SIZE = 1 << 24  # largest final stage simulated
_U_FLOOR = 2.0 ** -64  # inverse-CDF guard: random() can emit exactly 0
# degrees of freedom from which a block's chi-square is one gammaincinv draw
# (about 1 us) and not a sum of squared ndtri normals (about 18 ns each)
_CHI2_INVERSE_DF = 40
# no normal drawn exceeds this in size: the inverse normal CDF at _U_FLOOR
_Z_MAX = float(-sp.ndtri(_U_FLOOR))


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


def _blocks(plan) -> tuple[list[tuple[int, int]], int]:
    """Each stage block's size dn and sum-of-squares words k, and the
    replicate's window width.

    k is 0 for a plan that is not studentized, dn - 1 for a chi-square
    summed from normals and 1 for one drawn by inverse CDF.
    """
    blocks = []
    prev = 0
    for n in plan.sizes:
        dn = n - prev
        k = 0 if not plan.studentized else dn - 1 if dn - 1 < _CHI2_INVERSE_DF else 1
        blocks.append((dn, k))
        prev = n
    width = sum(1 + k for _, k in blocks)
    return blocks, 4 * ((width + 3) // 4)


def _block_draws(plan, shift: float, sigma: float, seed: int, lo: int, hi: int):
    """Block sums of replicates lo..hi-1 and, for a studentized plan, their
    within-block sums of squared deviations (None otherwise).

    Stages in rows, replicates in columns; the samples are normal(shift,
    sigma^2), shift being the data's mean minus the plan's gamma.
    """
    blocks, width = _blocks(plan)
    u = _uniform_block(seed, lo * width, hi - lo, width)
    np.maximum(u, _U_FLOOR, out=u)
    z = sp.ndtri(u)
    sums = np.empty((len(blocks), hi - lo))
    squares = np.empty_like(sums) if plan.studentized else None
    col = 0
    for i, (dn, k) in enumerate(blocks):
        sums[i] = dn * shift + sigma * math.sqrt(dn) * z[:, col]
        if squares is not None:
            if dn - 1 < _CHI2_INVERSE_DF:
                helmert = z[:, col + 1 : col + 1 + k]
                chi2 = np.einsum("ij,ij->i", helmert, helmert)
            else:
                chi2 = 2.0 * sp.gammaincinv(0.5 * (dn - 1), u[:, col + 1])
            squares[i] = sigma * sigma * chi2
        col += 1 + k
    return sums, squares


def _stage_sums(sizes, block_sums: np.ndarray, block_squares):
    """Cumulative sums and sums of squared deviations at every stage.

    Block l joins the n_{l-1} samples before it by the two-sample identity
    SS_l = SS_{l-1} + W_l + (n_{l-1} dn / n_l) (mean_{l-1} - mean_block)^2,
    W_l being the block's own sum of squared deviations.  The squares are
    None when block_squares is.
    """
    sums = np.cumsum(block_sums, axis=0)
    if block_squares is None:
        return sums, None
    squares = np.empty_like(block_squares)
    squares[0] = block_squares[0]
    for i in range(1, len(sizes)):
        prev, n = sizes[i - 1], sizes[i]
        dn = n - prev
        gap = sums[i - 1] / prev - block_sums[i] / dn
        squares[i] = squares[i - 1] + block_squares[i] + (prev * dn / n) * (gap * gap)
    return sums, squares


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
    rows, replicates in columns) on normal(mu, sigma^2) data.
    """
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DomainError(f"mu and sigma must be finite, got {mu} and {sigma}")
    n_max = plan.sizes[-1]
    if n_max > _MAX_SIZE:
        raise DomainError(
            f"final stage size {n_max} exceeds the simulation limit of {_MAX_SIZE} samples"
        )
    shift = mu - plan.gamma
    # a block sum is at most dn * spread in size, so a stage sum stays within
    # n_max (spread + |gamma|); a block's sum of squares stays within
    # dn * spread^2 and its pooling term within 4 dn spread^2
    spread = abs(shift) + sigma * _Z_MAX
    if not math.isfinite(n_max * (spread + abs(plan.gamma))) or (
        plan.studentized and not math.isfinite(5.0 * n_max * spread * spread)
    ):
        raise DomainError(
            f"mu={mu} and sigma={sigma} are too large: "
            "stage sums or sums of squares would overflow"
        )
    rows = min(_CHUNK, _CHUNK_WORDS // _blocks(plan)[1])
    a = np.array([[st.a] for st in plan.stages])
    b = np.array([[st.b] for st in plan.stages])
    n = np.array(plan.sizes, dtype=float)[:, None]
    centre = n * plan.gamma  # the draws are sums of samples minus gamma

    def worker(bounds):
        lo, hi = bounds
        sums, squares = _stage_sums(plan.sizes, *_block_draws(plan, shift, sigma, seed, lo, hi))
        return tally(decision_code(plan.stage_statistics(sums + centre, squares, n), a, b))

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


def _sim_report(plan, replications: int, seed: int, parts) -> SimReport:
    """The report of _stop_tally's chunk parts, merged in chunk order."""
    hist = np.zeros(plan.num_stages, dtype=np.int64)
    accepted = 0
    for part_hist, part_acc in parts:
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


def simulate_plan(plan, mu: float, sigma: float, replications: int, seed: int) -> SimReport:
    """Run the stagewise decision rule on synthetic normal(mu, sigma^2) data.

    Each replicate stops at its first deciding stage.  Deterministic in
    (plan, mu, sigma, replications, seed).
    """
    parts = _stage_pass(plan, mu, sigma, replications, seed, _stop_tally)
    return _sim_report(plan, replications, seed, parts)


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
