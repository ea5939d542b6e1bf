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
sigma^2 * chi^2(dn - 1) by Helmert's decomposition.  A block of df = dn - 1
= 0 draws nothing.  A block whose ceil(df / 2) is at most 2 * ``_TRIES`` +
1, which is df <= 10, draws its chi-square directly from that many words,
with no rejection: m = floor(df / 2) uniforms give chi^2(2 m) = -2 log(u_1
... u_m), and an odd df adds one squared normal, so df = 1 is one squared
normal.  From df = 11 on it is twice a Gamma(df / 2) variable drawn by
Marsaglia and Tsang's method (ACM TOMS 26(3), 2000) in at most ``_TRIES``
tries, each a (normal, uniform) word pair; a block whose tries all reject
takes one inverse-CDF draw 2 * gammaincinv(df / 2, u) from a word of its
own.  The tries and the fallback read disjoint words and each has the Gamma
law, so their mixture has it too, and a block costs O(1) work whatever its
size: about 3e-5 of blocks fall back at df = 11 and 2e-6 at df = 40.  A
replicate costs 1 + min(ceil(df / 2), 2 * ``_TRIES`` + 1) words per stage,
so at most 2 * ``_TRIES`` + 2 whatever its stage sizes.  Blocks pool into
stage sums and sums of squares by ``_pool``, on sums taken about gamma so
the pooled means do not cancel; n * gamma is added back before the
statistic.  Data whose stage sums or sums of squares could overflow a
double are refused.

A chunk draws its replicates' windows in one stream call, then walks the
stages in order.  ``simulate_plan`` reads, pools and decides stage l only
for the replicates still sampling there, and counts those that stop there
as it goes, so a replicate that stops at stage 1 costs one block's work;
``mc_transition_sums`` reads every stage, so its walk keeps every
replicate.  A replicate's statistics depend only on its own words, so
either walk gives them the same bits.

Draws come from a counter-based uniform stream (Philox); a normal is one
stream word pushed through the inverse normal CDF.  Replicate r owns a
fixed 4-word-aligned window of sum_l (1 + k_l) words, k_l being the words
block l spends on its sum of squares, so results are bit-identical no
matter how the replicate range is chunked; chunk tallies merge in index
order.  Plans whose final stage exceeds 2**24 samples are refused; that is
simulate's stated range, not a memory limit.

Chunks run at the same time: the caller's thread and one more thread per
further CPU in the process's affinity set (``_cpus``), but no more threads
than replications // ``_CHUNK`` + 1, so a short call is not cut into chunks
too small to pay for their threads.  A chunk spends its time in the stream
fill and numpy and scipy ufuncs, which release the interpreter lock.  With
w threads a chunk holds min(``_CHUNK``, ``_CHUNK_WORDS`` // (width * w),
ceil(replications / w)) replicates, so the stream words in flight stay
within 2**24 and the replicates split evenly; on one CPU a chunk keeps the
one-thread shape.  Threads take chunks in index order and parts merge in
index order, so reports are bit-identical whatever the CPU count.  Once a
chunk fails, or the caller is interrupted, no further chunk starts; the
first failing chunk in index order decides the exception raised.  Every
chunk runs under the caller's ``np.errstate``, and warnings raised in a
thread reach the caller's warnings filters.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np
import scipy.special as sp
from numpy.random import Generator, Philox

from .errors import DomainError, SeqnormError
from .plan_known import Decision, decision_code

_CHUNK = 1 << 15  # most replicates per chunk
_CHUNK_WORDS = 1 << 24  # stream words of the chunks in flight: 128 MiB of float64
_MAX_SIZE = 1 << 24  # largest final stage simulated
_U_FLOOR = 2.0 ** -64  # inverse-CDF guard: random() can emit exactly 0
_TRIES = 2  # Marsaglia-Tsang tries per chi-square before the inverse-CDF fallback
# no normal drawn exceeds this in size: the inverse normal CDF at _U_FLOOR
_Z_MAX = float(-sp.ndtri(_U_FLOOR))


def _cpus() -> int:
    """How many CPUs this process may run on: chunks run on up to that many threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    k is 0 for a plan that is not studentized.  Otherwise the block's
    chi-square has df = dn - 1 and k = min(ceil(df / 2), 2 * _TRIES + 1) =
    min(dn // 2, 2 * _TRIES + 1): a direct draw's words
    (``_direct_chi_square``) while they are at most a Marsaglia-Tsang
    block's, and ``_chi_square``'s words beyond, so no block costs more
    words than a Marsaglia-Tsang one.  The window holds every block's sum
    word, then every block's k words, in stage order.
    """
    blocks = []
    prev = 0
    for n in plan.sizes:
        dn = n - prev
        blocks.append((dn, min(dn // 2, 2 * _TRIES + 1) if plan.studentized else 0))
        prev = n
    width = sum(1 + k for _, k in blocks)
    return blocks, 4 * ((width + 3) // 4)


def _direct_chi_square(df: int, window: np.ndarray) -> np.ndarray:
    """chi^2(df) draws, df >= 1, one per row of a window of ceil(df / 2)
    floored uniforms, with no rejection.

    The first m = floor(df / 2) words give chi^2(2 m) = -2 log(u_1 ... u_m),
    twice a sum of m unit exponentials, and an odd df adds the square of the
    last word's normal; at df = 1 (m = 0) that square is the draw.  The
    product is taken left to right and logged once: its at most 2 * _TRIES +
    1 factors are each at least _U_FLOOR, so it stays at or above 2**-320
    and cannot underflow.
    """
    m = df // 2
    chi2 = 0.0
    if m:
        prod = window[:, 0]
        for j in range(1, m):
            prod = prod * window[:, j]
        chi2 = -2.0 * np.log(prod)
    if df % 2:
        z = sp.ndtri(window[:, m])
        chi2 = chi2 + z * z
    return chi2


def _chi_square(df: int, window: np.ndarray) -> np.ndarray:
    """chi^2(df) draws, df >= 11 in the simulator (any df >= 2 works), one
    per row of a window of 2 * _TRIES + 1 floored uniforms: a (normal,
    acceptance) word pair per Marsaglia-Tsang try, then the fallback word.

    With d = df / 2 - 1/3 and c = 1 / sqrt(9 d), try t turns its normal
    word into z and accepts Gamma(df / 2) = d v, v = (1 + c z)^3, when
    v > 0 and log u < z^2 / 2 + d (1 - v + log v).  That exponent is
    evaluated as z^2 / 2 + d (3 log1p(c z) - c z (3 + c z (3 + c z))),
    whose terms are of the size of c z, not of 1, so it stays accurate at
    large d.  The first try that accepts gives the draw; a row none accepts
    takes 2 gammaincinv(df / 2, u) of its fallback word.  The first try
    reads the window's columns in place; a later try computes its normal
    only on the rows that reach it.
    """
    d = 0.5 * df - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def attempt(normals, uniforms):
        z = sp.ndtri(normals)
        w = c * z
        inside = w > -1.0
        np.copyto(w, 0.0, where=~inside)
        exponent = 0.5 * z * z + d * (3.0 * np.log1p(w) - w * (3.0 + w * (3.0 + w)))
        v = 1.0 + w
        return inside & (np.log(uniforms) < exponent), (2.0 * d) * (v * v * v)

    take, chi2 = attempt(window[:, 0], window[:, 1])
    rows = np.flatnonzero(~take)
    for t in range(1, _TRIES):
        take, draw = attempt(window[rows, 2 * t], window[rows, 2 * t + 1])
        chi2[rows[take]] = draw[take]
        rows = rows[~take]
    chi2[rows] = 2.0 * sp.gammaincinv(0.5 * df, window[rows, 2 * _TRIES])
    return chi2


def _block_draw(
    words, live, i: int, col: int, dn: int, k: int, shift: float, sigma: float, studentized: bool
):
    """Block i's sums for the rows live of a floored window, and for a
    studentized plan their within-block sums of squared deviations (None
    otherwise).

    The samples are normal(shift, sigma^2), shift being the data's mean
    minus the plan's gamma.  The block's sum word is column i and its k
    sum-of-squares words start at column col; only those columns of the
    live rows are read.
    """
    sums = dn * shift + sigma * math.sqrt(dn) * sp.ndtri(words[live, i])
    if not studentized:
        return sums, None
    if k == 0:
        chi2 = np.zeros(len(sums))
    elif k == dn // 2:  # a direct draw: _blocks gave it its ceil(df / 2) words
        chi2 = _direct_chi_square(dn - 1, words[live, col : col + k])
    else:
        chi2 = _chi_square(dn - 1, words[live, col : col + k])
    return sums, sigma * sigma * chi2


def _pool(sums, squares, block_sums, block_squares, prev: int, dn: int):
    """The sums and sums of squared deviations of n_l = prev + dn samples,
    from those of the prev samples before block l and the block's own.

    The sums add; the squares pool by the two-sample identity
    SS_l = SS_{l-1} + W_l + (n_{l-1} dn / n_l) (mean_{l-1} - mean_block)^2,
    W_l being the block's own sum of squared deviations.  The squares are
    None when block_squares is; prev = 0 gives the block's own.
    """
    if prev == 0:
        return block_sums, block_squares
    if block_squares is None:
        return sums + block_sums, None
    gap = sums / prev - block_sums / dn
    return sums + block_sums, squares + block_squares + (prev * dn / (prev + dn)) * (gap * gap)


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
        return {**asdict(self), "stage_histogram": list(self.stage_histogram)}


def _stage_pass(plan, mu: float, sigma: float, replications: int, seed: int, tally=None) -> list:
    """Each replicate chunk's part, in chunk order, on normal(mu, sigma^2)
    data.

    Without tally a replicate's stages after its first decision are neither
    drawn nor decided, and a chunk's part is how many of its replicates stop
    at each stage and how many of those accept, counted as the walk goes; a
    replicate still sampling after the final stage is an error.  With tally
    every stage of every replicate is drawn and decided, and a chunk's part
    is tally(codes), codes holding each replicate's decision code at every
    stage (stages in rows, replicates in columns).
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
    # dn * spread^2 and its pooling term within 4 dn spread^2.  That takes
    # every block's chi-square as at most dn * _Z_MAX^2.  A direct draw of
    # floored words is at most 2 m 64 log 2 + [df odd] _Z_MAX^2, which is
    # below (2 m + 1) _Z_MAX^2 <= dn * _Z_MAX^2 since 128 log 2 = 88.7 is
    # below 2 * 82.4; df = 1 is one squared normal.  An accepted
    # Marsaglia-Tsang draw 2 d (1 + c z)^3 is at most
    # 2 d (1 + _Z_MAX / (3 sqrt(d)))^3, which is tightest at df = 11 (131
    # against 12 * 82.4); and the fallback's word is at most 1 - 2**-53,
    # whose chi-square quantile is below df + 12.2 sqrt(df) + 73.5 (Laurent
    # and Massart's tail bound).
    spread = abs(shift) + sigma * _Z_MAX
    if not math.isfinite(n_max * (spread + abs(plan.gamma))) or (
        plan.studentized and not math.isfinite(5.0 * n_max * spread * spread)
    ):
        raise DomainError(
            f"mu={mu} and sigma={sigma} are too large: "
            "stage sums or sums of squares would overflow"
        )
    blocks, width = _blocks(plan)
    # each thread holds one chunk's words at a time
    workers = min(_cpus(), _CHUNK_WORDS // width, replications // _CHUNK + 1)
    rows = min(_CHUNK, _CHUNK_WORDS // (width * workers), -(-replications // workers))
    bounds = [(lo, min(lo + rows, replications)) for lo in range(0, replications, rows)]

    def worker(lo, hi):
        words = _uniform_block(seed, lo * width, hi - lo, width)
        np.maximum(words, _U_FLOOR, out=words)
        codes = None if tally is None else np.zeros((len(blocks), hi - lo), dtype=np.int8)
        stops, accepted = np.zeros(len(blocks), dtype=np.int64), 0
        # the replicates still sampling: a slice while all are, since
        # gathering by an index array costs a copy of every column read
        live = slice(None)
        sums = squares = None
        prev, col = 0, len(blocks)
        for i, ((dn, k), st) in enumerate(zip(blocks, plan.stages)):
            sums, squares = _pool(
                sums, squares,
                *_block_draw(words, live, i, col, dn, k, shift, sigma, plan.studentized),
                prev, dn,
            )
            prev += dn
            col += k
            code = decision_code(
                plan.stage_statistics(sums + prev * plan.gamma, squares, float(prev)), st.a, st.b
            )
            if codes is not None:
                codes[i] = code
                continue
            going = np.flatnonzero(code == Decision.CONTINUE)
            stops[i] = len(code) - len(going)
            accepted += int(np.count_nonzero(code == Decision.ACCEPT))
            if len(going) == 0:
                break
            if i + 1 == len(blocks):
                raise SeqnormError("final stage failed to decide; plan invariant broken")
            if len(going) < len(code):
                live = going if isinstance(live, slice) else live[going]
                sums = sums[going]
                squares = None if squares is None else squares[going]
        return (stops, accepted) if tally is None else tally(codes)

    # numpy 1.x keeps np.errstate per thread, so each thread enters the caller's
    errstate = dict(np.geterr(), call=np.geterrcall())
    parts, failures = [None] * len(bounds), []
    order, lock = iter(range(len(bounds))), threading.Lock()

    def drain():
        with np.errstate(**errstate):
            while True:
                with lock:
                    k = None if failures else next(order, None)
                if k is None:
                    return
                try:
                    parts[k] = worker(*bounds[k])
                except Exception as exc:
                    failures.append((k, exc))

    helpers = [threading.Thread(target=drain) for _ in range(min(workers, len(bounds)) - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
    finally:
        # stops every helper before its next chunk, also when the caller is interrupted
        failures.append((len(bounds), None))
        for helper in helpers:
            helper.join()
    k, exc = min(failures, key=lambda failure: failure[0])
    if exc is not None:
        raise exc
    return parts


def _sim_report(plan, replications: int, seed: int, parts) -> SimReport:
    """The report of the stop counts of each chunk, merged in chunk order."""
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
    parts = _stage_pass(plan, mu, sigma, replications, seed)
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
    parts = _stage_pass(plan, mu, sigma, replications, seed, _transition_tally)
    for r1, r2, a1, a2 in parts:
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
