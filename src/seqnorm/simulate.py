"""Plan execution on synthetic normal data: the stopped decision rule and
the adjacent-stage boundary-crossing sums the OC envelopes bound.

Each replicate's stage statistics come from the plan's statistic kernel,
``_statistics_into``, which the plan's ``stage_statistics`` calls too, and
its decisions from ``decision_masks``, the rule ``decision_code`` is built
from: the formula and the rule a session applies, so a simulated replicate
reaches the stage and decision a session reaches on samples with the same
stage sums and sums of squares.  sigma is the data's standard deviation;
a known-variance plan still standardizes by its own sigma, so a different
sigma simulates a misspecified one.

A stage statistic depends on the samples only through their sum and, for a
studentized plan, their sum of squared deviations, so a replicate draws
those per stage block, not its samples.  The block of dn = n_l - n_{l-1}
samples gets its sum, dn * (mu - gamma) + sigma * sqrt(dn) * Z, and a
studentized plan also gets its within-block sum of squared deviations,
sigma^2 * chi^2(dn - 1) by Helmert's decomposition; a block of one sample
draws no chi-square.  Z comes from numpy's ``Generator.standard_normal``
(a ziggurat) and the chi-square from ``Generator.chisquare`` (twice a
gamma variable, drawn by Marsaglia and Tsang's method from df 3 on), both
exact samplers whose cost does not grow with dn.  Blocks pool into stage
sums and sums of squares by ``_pool``, on sums taken about gamma so the
pooled means do not cancel; n * gamma is added back before the statistic.

Replicates are simulated in blocks of ``_BLOCK`` consecutive replicates,
the unit of both randomness and work.  Each (replicate block, stage, draw
kind) has its own counter-based stream: Philox keyed by the seed, from the
counter whose 64-bit words are (block, stage, kind, 0), high to low.  A
block walks the stages in order.  ``simulate_plan`` draws stage l only for
the block's replicates still sampling there: kind 0 gives their sums and
kind 1 their chi-squares, handed out in replicate order, and the
replicates that stop at stage l are counted as the walk goes, so one that
stops at stage 1 costs one stage's draws.  ``mc_transition_sums`` decides
every replicate at every stage: the replicates still sampling get the
draws ``simulate_plan`` gives them, and those that have stopped draw from
kinds 2 and 3, so the two walks agree on every stop.

A block decides a stage in place, in a workspace its walk makes, so no two
threads share one: a statistic and a deviation buffer of one entry per
replicate, whose leading entries each stage uses.  ``_pool`` adds the
stage's draws into the running sums and sums of squares, the statistic
kernel writes the statistics (and a studentized plan's deviations) into
the buffers, and the stopped walk counts accepts and rejects from the two
comparisons of ``decision_masks``, then gathers the rows still sampling.

A replicate's draws depend on the seed, its block, and the replicates
before it in its block, never on those after it, so the first r
replicates of ``simulate_plan(r + 1)`` are those of ``simulate_plan(r)``.
numpy does not promise that a ``Generator`` method draws the same stream
across versions (NEP 19), so reports are reproducible for one numpy
version; the golden transcript pins the one it was recorded with.

Data whose stage sums or sums of squares could overflow a double are
refused.  The bound takes every normal drawn as at most ``_Z_MAX`` = r +
53 log(2) / r = 13.71 in size, r = 3.6541528853610088 being where numpy's
normal ziggurat (``random_standard_normal``) starts its tail: a tail draw
is r + x with x = -log1p(-u) / r for a double u <= 1 - 2**-53.  The tail
also rejects x unless x^2 < 2 y, y = -log1p(-u') for another such double,
so no draw exceeds r + sqrt(106 log 2) = 12.23 and the bound has slack.
Plans whose final stage exceeds 2**24 samples are refused; that is
simulate's stated range, not a memory limit.

Blocks run at the same time: the caller's thread and one more thread per
further CPU in the process's affinity set (``_cpus``), but no more threads
than blocks, so fewer than ``_BLOCK`` replicates run on the caller's
thread alone.  A block spends its time in numpy's samplers and ufuncs,
which release the interpreter lock.  Threads take block indices in order,
as they come, so memory does not grow with the replication count, and each
block's integer counts fold into the totals as it finishes: the totals,
and so the reports, are bit-identical whatever the CPU count.  Once a block fails, or the caller is interrupted, no
further block starts; the first failing block in index order decides the
exception raised.  Every block runs under the caller's ``np.errstate``,
and warnings raised in a thread reach the caller's warnings filters.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, count, real
from .plan_known import Decision, decision_code, decision_masks

_BLOCK = 1 << 15  # replicates per block: the unit of randomness and of work
_MAX_SIZE = 1 << 24  # largest final stage simulated
# numpy's normal ziggurat returns r + x from its tail, x = -log1p(-u) / r for a
# double u <= 1 - 2**-53, so no normal drawn exceeds r + 53 log(2) / r in size
_ZIGGURAT_R = 3.6541528853610088
_Z_MAX = _ZIGGURAT_R + 53.0 * math.log(2.0) / _ZIGGURAT_R


def _cpus() -> int:
    """How many CPUs this process may run on: blocks run on up to that many threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream(seed: int, counter: int) -> Generator:
    """The counter-based stream (Philox) keyed by seed, from counter on."""
    if not (0 <= count("seed", seed) < 2**128):
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    return Generator(Philox(key=seed, counter=counter))


def _block_draw(
    seed: int, block: int, stage: int, stopped: bool, rows: int,
    dn: int, shift: float, sigma: float, studentized: bool,
):
    """Stage block sums of rows replicates of a replicate block and, for a
    studentized plan, their within-block sums of squared deviations (None
    otherwise).

    The samples are normal(shift, sigma^2), shift being the data's mean
    minus the plan's gamma, and a stage block holds dn of them.  The sums
    come from the stream of draw kind 0 (2 for replicates that have
    stopped) and the chi-squares from that of kind 1 (3), each at counter
    (block, stage, kind, 0) in 64-bit words, high to low; a block of one
    sample draws no chi-square.
    """
    kind = 2 if stopped else 0
    counter = block << 192 | stage << 128 | kind << 64
    sums = _stream(seed, counter).standard_normal(rows)
    sums *= sigma * math.sqrt(dn)
    sums += dn * shift
    if not studentized:
        return sums, None
    if dn == 1:
        return sums, np.zeros(rows)
    squares = _stream(seed, counter + (1 << 64)).chisquare(dn - 1, rows)
    squares *= sigma * sigma
    return sums, squares


def _scatter(sampling, live, stopped):
    """One array of a replicate block's rows from those of its rows still
    sampling and of its rows that have stopped, each in row order."""
    if live is None:
        return None
    out = np.empty(len(sampling))
    out[sampling] = live
    out[~sampling] = stopped
    return out


def _pool(sums, squares, block_sums, block_squares, prev: int, dn: int):
    """The sums and sums of squared deviations of n_l = prev + dn samples,
    from those of the prev samples before block l and the block's own.

    The sums add; the squares pool by the two-sample identity
    SS_l = SS_{l-1} + W_l + (n_{l-1} dn / n_l) (mean_{l-1} - mean_block)^2,
    W_l being the block's own sum of squared deviations.  The squares are
    None when block_squares is; prev = 0 gives the block's own.

    It works in place, in the order the identity evaluates: sums and
    block_squares become the pooled sums and squares, and squares and
    block_sums scratch, so no argument may be read after the call.
    """
    if prev == 0:
        return block_sums, block_squares
    if block_squares is None:
        sums += block_sums
        return sums, None
    block_squares += squares
    gap = np.divide(sums, prev, out=squares)
    sums += block_sums
    block_sums /= dn
    gap -= block_sums
    gap *= gap
    gap *= prev * dn / (prev + dn)
    block_squares += gap
    return sums, block_squares


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


def _stage_pass(plan, mu: float, sigma: float, replications: int, seed: int, tally=None):
    """The parts of every replicate block, folded into one, on
    normal(mu, sigma^2) data.

    Without tally a replicate's stages after its first decision are neither
    drawn nor decided, and a block's part is how many of its replicates stop
    at each stage and how many of those accept, counted as the walk goes; the
    final stage decides every replicate still sampling.  With tally
    every stage of every replicate is drawn and decided, and a block's part
    is tally(codes), codes holding each replicate's decision code at every
    stage (stages in rows, replicates in columns).  Parts fold by adding
    them item by item, so a part's items must be integers or integer
    arrays: the totals are then exact, whatever the order blocks finish in.
    """
    replications = count("replications", replications)
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    mu, sigma = real("mu", mu, finite=False), real("sigma", sigma, finite=False)
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
    # every block's chi-square as at most dn * _Z_MAX^2 = 187.9 dn.  numpy
    # draws chi^2(1) = 2 X by a rejection step that accepts only X <= E + Y,
    # E an exponential of at most 7.70 + 53 log 2 = 44.4 and Y at most
    # 52 log 2 = 36.0, so below 161; chi^2(2) is twice such an exponential;
    # and from df 3 on, a Marsaglia-Tsang draw 2 d (1 + z / (3 sqrt(d)))^3,
    # d = df / 2 - 1/3 and |z| <= _Z_MAX, which is largest against dn at
    # df 3 (334 against 752).
    spread = abs(shift) + sigma * _Z_MAX
    if not math.isfinite(n_max * (spread + abs(plan.gamma))) or (
        plan.studentized and not math.isfinite(5.0 * n_max * spread * spread)
    ):
        raise DomainError(
            f"mu={mu} and sigma={sigma} are too large: "
            "stage sums or sums of squares would overflow"
        )

    def walk(block):
        rows = min(_BLOCK, replications - block * _BLOCK)
        # the block's workspace: each stage writes into the first len(sums) entries
        stat, sd = np.empty(rows), np.empty(rows)
        codes = None if tally is None else np.zeros((plan.num_stages, rows), dtype=np.int8)
        stops, accepted = np.zeros(plan.num_stages, dtype=np.int64), 0
        # the stopped walk keeps only the rows still sampling; the all-stages
        # walk keeps every row and marks those still sampling
        sampling, live = np.ones(rows, dtype=bool), rows
        sums = squares = None
        prev = 0
        for i, st in enumerate(plan.stages):
            dn = st.n - prev
            drawn = _block_draw(seed, block, i, False, live, dn, shift, sigma, plan.studentized)
            if codes is not None and live < rows:
                stopped = _block_draw(
                    seed, block, i, True, rows - live, dn, shift, sigma, plan.studentized
                )
                drawn = [_scatter(sampling, *pair) for pair in zip(drawn, stopped)]
            sums, squares = _pool(sums, squares, *drawn, prev, dn)
            prev = st.n
            m = len(sums)
            t = np.add(sums, prev * plan.gamma, out=stat[:m])
            t = plan._statistics_into(t, squares, float(prev), sd[:m])
            if codes is not None:
                codes[i] = decision_code(t, st.a, st.b)
                sampling &= codes[i] == Decision.CONTINUE
                live = int(np.count_nonzero(sampling))
                continue
            accepts, rejects = decision_masks(t, st.a, st.b)
            accepting = int(np.count_nonzero(accepts))
            stopping = accepting + int(np.count_nonzero(rejects))
            accepted += accepting
            stops[i] = stopping
            live = m - stopping
            if live == 0:
                break
            if stopping:
                # gathering by index is several times faster than by a boolean mask
                going = np.flatnonzero(~(accepts | rejects))
                sums = sums[going]
                squares = None if squares is None else squares[going]
        return (stops, accepted) if tally is None else tally(codes)

    blocks = -(-replications // _BLOCK)
    # numpy 1.x keeps np.errstate per thread, so each thread enters the caller's
    errstate = dict(np.geterr(), call=np.geterrcall())
    total, failures = [], []
    order, lock = iter(range(blocks)), threading.Lock()

    def drain():
        with np.errstate(**errstate):
            while True:
                with lock:
                    k = None if failures else next(order, None)
                if k is None:
                    return
                try:
                    part = walk(k)
                except Exception as exc:
                    failures.append((k, exc))
                    continue
                with lock:
                    total[:] = [t + p for t, p in zip(total, part)] if total else part

    helpers = [threading.Thread(target=drain) for _ in range(min(_cpus(), blocks) - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
    finally:
        # stops every helper before its next block, also when the caller is interrupted
        failures.append((blocks, None))
        for helper in helpers:
            helper.join()
    k, exc = min(failures, key=lambda failure: failure[0])
    if exc is not None:
        raise exc
    return tuple(total)


def _sim_report(plan, replications: int, seed: int, totals) -> SimReport:
    """The report of the stop counts and accepted count of every replicate."""
    hist, accepted = totals
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
    return _sim_report(plan, replications, seed, _stage_pass(plan, mu, sigma, replications, seed))


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


def _transition_tally(codes: np.ndarray) -> tuple[int, int, int, int]:
    """Sums and sums of squares of each replicate's reject and accept transitions.

    A transition at stage l is a decision there after stage l-1 continued;
    the first stage counts as following a continue.
    """
    prev_continue = np.ones_like(codes, dtype=bool)
    prev_continue[1:] = codes[:-1] == Decision.CONTINUE
    rej_count = np.count_nonzero(prev_continue & (codes == Decision.REJECT), axis=0)
    acc_count = np.count_nonzero(prev_continue & (codes == Decision.ACCEPT), axis=0)
    return (
        int(rej_count.sum()), int(np.dot(rej_count, rej_count)),
        int(acc_count.sum()), int(np.dot(acc_count, acc_count)),
    )


def mc_transition_sums(plan, mu: float, sigma: float, replications: int, seed: int) -> TransitionSums:
    rej_total, rej_sq, acc_total, acc_sq = _stage_pass(
        plan, mu, sigma, replications, seed, _transition_tally
    )
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
