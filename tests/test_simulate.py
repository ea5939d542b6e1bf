"""Plan simulation and the test oracles: determinism, chunk invariance,
agreement with the per-sample reference simulator, domain probabilities,
decomposition check."""

import math
import signal
import sys
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import seqnorm.simulate as sim
from seqnorm.errors import DomainError, SeqnormError
from seqnorm.geometry import ConeRegion, HyperbolaConeRegion
from seqnorm.plan_known import Decision, Stage, build_known_plan, decision_code
from seqnorm.plan_unknown import build_unknown_plan
from seqnorm.runner import feed, new_session
from seqnorm.simulate import mc_transition_sums, simulate_plan
from seqnorm.special import std_normal_cdf

from oracles import (
    block_draws,
    grid_domain_prob,
    grid_points,
    mc_domain_prob_many,
    reference_simulate_plan,
    replicate_samples,
    sample_decomposition_check,
    scripted_generator,
    section,
    stop_tally,
)

PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)
# sizes (63, 94, 140): its blocks' chi-square has 62, 30 and 45 degrees of
# freedom
STRADDLE = build_unknown_plan(0.05, 0.05, 0.15, 0.0, zeta=0.8, rho=0.5, tau=3)
# sizes (2, 3, 6, 12, 24): its blocks' chi-square has 1, 0, 2, 5 and 11
# degrees of freedom, so numpy draws it by the rejection step below shape 1,
# not at all, as an exponential, and by Marsaglia and Tsang's method twice
MIXED = build_unknown_plan(0.05, 0.05, 0.4, 0.0, zeta=0.7, rho=1.0, tau=5)
# sizes (6, 9, 13, 19), gamma 1.3 and sigma 0.7: a known-variance plan whose
# statistic is neither centred at 0 nor scaled by 1
SHIFTED = build_known_plan(0.05, 0.10, 0.4, 1.3, 0.7, zeta=0.6, rho=0.5, tau=4)


class TestSimulatePlan:
    def test_far_field_accept(self):
        rep = simulate_plan(PLAN, mu=-50.0, sigma=1.0, replications=10**5, seed=3)
        assert rep.accept_rate >= 1.0 - 1e-6

    def test_deterministic(self):
        a = simulate_plan(PLAN, mu=-0.5, sigma=1.0, replications=50_000, seed=12)
        b = simulate_plan(PLAN, mu=-0.5, sigma=1.0, replications=50_000, seed=12)
        assert a == b

    def test_report_accounting(self):
        rep = simulate_plan(PLAN, mu=0.1, sigma=1.0, replications=30_000, seed=9)
        assert rep.accept_rate + rep.reject_rate == pytest.approx(1.0, abs=0)
        assert sum(rep.stage_histogram) == rep.replications
        expected_asn = sum(
            n * c for n, c in zip(PLAN.sizes, rep.stage_histogram)
        ) / rep.replications
        assert rep.asn == pytest.approx(expected_asn, abs=0)

    def test_a_report_extends_the_report_of_one_replicate_fewer(self, monkeypatch):
        """Adding replicate r, in blocks of 137, leaves the others' stops as
        they were: the histogram gains one stop and the accepted count at
        most one, also where r starts a block."""
        monkeypatch.setattr(sim, "_BLOCK", 137)
        before = simulate_plan(STRADDLE, mu=0.05, sigma=1.2, replications=130, seed=5)
        for r in range(131, 420):
            now = simulate_plan(STRADDLE, mu=0.05, sigma=1.2, replications=r, seed=5)
            gained = np.array(now.stage_histogram) - np.array(before.stage_histogram)
            assert sorted(gained.tolist()) == [0] * (STRADDLE.num_stages - 1) + [1], r
            accepted = round(now.accept_rate * r) - round(before.accept_rate * (r - 1))
            assert accepted in (0, 1), r
            before = now

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_threads_take_whole_blocks(self, cpus, monkeypatch):
        """A block is _BLOCK replicates, the last one the rest, drawn on one
        thread; a call takes at most one thread per CPU and per block, and
        fewer than _BLOCK replicates run on the caller's thread alone."""
        block_draw = sim._block_draw
        first_draws, threads = {}, {}

        def record(seed, block, stage, stopped, rows, *rest):
            if stage == 0:
                first_draws[block] = rows
            threads.setdefault(block, set()).add(threading.get_ident())
            return block_draw(seed, block, stage, stopped, rows, *rest)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_block_draw", record)
        simulate_plan(STRADDLE, mu=0.0, sigma=1.0, replications=100_000, seed=1)
        assert first_draws == {0: 32768, 1: 32768, 2: 32768, 3: 100_000 - 3 * 32768}
        assert all(len(ids) == 1 for ids in threads.values())
        assert len(set.union(*threads.values())) <= min(cpus, 4)
        first_draws.clear()
        threads.clear()
        simulate_plan(STRADDLE, mu=0.0, sigma=1.0, replications=20_000, seed=1)
        assert first_draws == {0: 20_000} and threads == {0: {threading.get_ident()}}

    def test_degenerate_sums_of_squares_pin_the_statistic_to_the_mean_sign(self):
        plan = REPLAY_PLANS["unknown"]
        sums = np.array([[1.0, -2.0, 0.0, 3.0]] * plan.num_stages)
        squares = np.array([[0.0, 0.0, 0.0, -1e-300]] * plan.num_stages)
        n = np.array(plan.sizes, dtype=float)[:, None]
        got = plan.stage_statistics(sums, squares, n)
        assert got.tolist() == [[math.inf, -math.inf, 0.0, math.inf]] * plan.num_stages
        assert plan.stage_statistics(-2.0, 0.0, plan.sizes[0]) == -math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["known", "unknown"]),
        n=st.integers(2, 400),
        rows=st.lists(st.tuples(
            st.one_of(
                st.floats(-1e6, 1e6),
                st.sampled_from([0.0, -0.0, 1.79e308, -1.79e308, 1e-300]),
            ),
            st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 1e-300, 1.7e308])),
        ), min_size=1, max_size=20),
    )
    def test_kernel_in_a_buffer_is_the_session_statistic(self, kind, n, rows):
        """The kernel the stage walk calls, writing a whole buffer, gives each
        row the bits a session's scalar statistic has; rows include zero sums
        of squares (+-inf or 0), sums whose statistic overflows to +-inf, and,
        for the unknown plan, a zero sum with zero squares (0 / 0, which
        gives 0)."""
        plan = SHIFTED if kind == "known" else STRADDLE
        if plan.studentized:  # STRADDLE's gamma is 0, so a zero sum is n gamma
            rows = rows + [(0.0, 0.0)]
        totals = np.array([total for total, _ in rows])
        squares = np.array([ss for _, ss in rows])
        got = plan._statistics_into(totals.copy(), squares, float(n), np.empty(len(rows)))
        # as TestSession._statistic computes it
        want = [float(plan.stage_statistics(total, ss, n)) for total, ss in rows]
        assert [repr(float(t)) for t in got] == [repr(t) for t in want]
        if plan.studentized:
            assert repr(want[-1]) == "0.0"

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=0.0, replications=10, seed=1)
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=0, seed=1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_final_stage_that_does_not_close_is_an_error(self, cpus, monkeypatch):
        # such a plan is refused when it is made, by hand too; the plan as
        # built stops every replicate by its final stage.  250 replicates a
        # block make four blocks, which two threads share
        last = PLAN.stages[-1]
        with pytest.raises(DomainError, match="^the final stage must decide: a=-1.0 != b=1.0$"):
            replace(PLAN, stages=PLAN.stages[:-1] + (Stage(n=last.n, a=-1.0, b=1.0),))
        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_BLOCK", 250)
        report = simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=1000, seed=1)
        assert sum(report.stage_histogram) == 1000 and report.stage_histogram[-1] > 0

    def test_matches_known_single_stage_probability(self):
        single = SINGLE
        assert single.num_stages == 1
        theta = -0.5
        rep = simulate_plan(single, mu=theta, sigma=1.0, replications=4 * 10**5, seed=31)
        exact = std_normal_cdf(math.sqrt(single.sizes[0]) * theta - single.stages[0].b)
        assert abs(rep.reject_rate - exact) <= 4 * max(rep.mc_se, 1e-9)


SCALE_PLANS = {
    # name: (plan, smallest and largest admissible limit exponent)
    "known": (build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3), 1000, 1023),
    # the plan of `design --kind unknown ... --zeta 0.87 --cell-budget 8`: 1e150
    # (about 2**498) simulates and 1e160 (about 2**531) must not
    "unknown": (build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.87, rho=0.5, tau=4), 498, 530),
}


@pytest.mark.parametrize("name", sorted(SCALE_PLANS))
def test_data_too_large_for_finite_sums_is_refused(name):
    """mu = sigma = 2**k simulates without a RuntimeWarning up to the largest
    k whose stage sums and sums of squares stay finite, and every larger k is
    a DomainError.  Bisection in the next binade finds the largest admitted
    scale: it still runs without a warning, and the next double is refused.
    On a gamma = 0 unknown-variance plan a power-of-two scale changes no bit
    of a t-statistic, so every admitted report equals the unscaled one."""
    plan, low, high = SCALE_PLANS[name]

    def run(scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return simulate_plan(plan, mu=scale, sigma=scale, replications=300, seed=8)

    base = run(1.0)
    admitted = []
    for k in range(1024):
        try:
            report = run(2.0**k)
        except DomainError as exc:
            assert "too large" in str(exc)
            continue
        admitted.append(k)
        if plan.studentized:
            assert report == base
    top = admitted[-1]
    assert admitted == list(range(top + 1))
    assert low <= top <= high
    # bisect the last admitted binade for the largest admitted double
    lo, hi = 2.0**top, 2.0 ** (top + 1)
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        try:
            run(mid)
            lo = mid
        except DomainError:
            hi = mid
    assert sum(run(lo).stage_histogram) == 300
    with pytest.raises(DomainError, match="too large"):
        run(hi)


@pytest.mark.parametrize("plan, mu, sigma", [
    pytest.param(STRADDLE, 0.1, 1.3, id="straddle"),
    # data whose sigma is not the plan's: the statistic divides by 0.7
    pytest.param(SHIFTED, 1.35, 1.1, id="known-shifted"),
])
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20 * 15), st.sampled_from([1, 2, 3, 8]))
def test_simulation_is_unchanged_under_any_chunk(plan, mu, sigma, reps, cpus):
    """Reports and transition sums equal the one-CPU run's, in runs of 1 to
    20 blocks of 15 replicates, however many threads share the blocks, each
    block deciding its stages in a workspace of its own; a short switch
    interval makes a lost update of the shared totals likely to show."""
    args = (plan, mu, sigma, reps, 17)
    with mock.patch.object(sim, "_BLOCK", 15):
        with mock.patch.object(sim, "_cpus", lambda: 1):
            base, sums = simulate_plan(*args), mc_transition_sums(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(sim, "_cpus", lambda: cpus):
                assert simulate_plan(*args) == base
                assert mc_transition_sums(*args) == sums
        finally:
            sys.setswitchinterval(interval)


def test_first_failing_block_in_index_order_decides(monkeypatch):
    """Blocks 1, 2 and 3 fail, each sooner than the one before, while block
    0 runs longest and succeeds: block 1's exception is raised."""
    block_draw = sim._block_draw

    def fail_later_blocks(seed, block, stage, *rest):
        if stage == 0:
            time.sleep(0.05 * (4 - block))
            if block:
                raise ValueError(f"block {block}")
        return block_draw(seed, block, stage, *rest)

    # four blocks of 100 on four threads: all start at once
    monkeypatch.setattr(sim, "_cpus", lambda: 4)
    monkeypatch.setattr(sim, "_BLOCK", 100)
    monkeypatch.setattr(sim, "_block_draw", fail_later_blocks)
    with pytest.raises(ValueError, match="^block 1$"):
        simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=400, seed=1)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_blocks_are_taken_as_they_come(cpus, monkeypatch):
    """10**13 replicates are 10**11 blocks of 100: none is laid out before a
    thread takes it, so a failure at block 2 is raised at once, with no
    MemoryError, after blocks 0 and 1 ran."""
    block_draw = sim._block_draw
    started = []

    def fail_at_block_2(seed, block, stage, *rest):
        if stage == 0:
            started.append(block)
            if block == 2:
                raise ValueError("block 2")
        return block_draw(seed, block, stage, *rest)

    monkeypatch.setattr(sim, "_cpus", lambda: cpus)
    monkeypatch.setattr(sim, "_BLOCK", 100)
    monkeypatch.setattr(sim, "_block_draw", fail_at_block_2)
    for run in (simulate_plan, mc_transition_sums):
        started.clear()
        with pytest.raises(ValueError, match="^block 2$"):
            run(PLAN, 0.0, 1.0, 10**13, 1)
        assert {0, 1, 2} <= set(started)
        if cpus == 1:
            assert started == [0, 1, 2]


@pytest.mark.parametrize("case", ["first", "later", "interrupt"])
def test_no_block_starts_after_a_failure_or_an_interrupt(case, monkeypatch):
    """Of 40 blocks on two threads, block 0 starts.  Block 0 fails
    after 0.1 s ("first"), or sends the caller's thread SIGINT then, as
    Ctrl-C does, and fails a second later ("interrupt"), while block 1
    fails after a second; or block 1 fails at once while block 0 takes
    half a second and succeeds ("later").  Either way no block after
    block 1 starts (block 1 may not start at all when the second thread
    starts late)."""
    started = []
    block_draw = sim._block_draw

    class Failed(Exception):
        pass

    def record(seed, block, stage, *rest):
        if stage:
            return block_draw(seed, block, stage, *rest)
        started.append(block)
        if case == "later":
            if block == 0:
                time.sleep(0.5)
                return block_draw(seed, block, stage, *rest)
            raise Failed
        if block == 0:
            time.sleep(0.1)
            if case == "interrupt":
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        if block != 0 or case == "interrupt":
            time.sleep(1.0)
        raise Failed

    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_BLOCK", 100)
    monkeypatch.setattr(sim, "_block_draw", record)
    with pytest.raises(KeyboardInterrupt if case == "interrupt" else Failed):
        simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=4000, seed=1)
    assert 0 in started and set(started) <= {0, 1}


def test_warnings_and_errstate_of_the_caller_hold_in_every_block(monkeypatch):
    """A block draw that logs 0 in each of four blocks: on two CPUs as on
    one, the caller's warnings filters and np.errstate see every warning."""
    plan = REPLAY_PLANS["unknown"]
    block_draw = sim._block_draw

    def log_zero(*args):
        np.log(np.zeros(1))
        return block_draw(*args)

    monkeypatch.setattr(sim, "_BLOCK", 100)
    monkeypatch.setattr(sim, "_block_draw", log_zero)

    def run(cpus):
        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        return simulate_plan(plan, mu=0.0, sigma=1.0, replications=400, seed=1)

    def caught(cpus):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(cpus)
        return sorted(str(w.message) for w in caught)

    one = caught(1)
    assert "divide by zero encountered in log" in one and caught(2) == one
    for cpus in (1, 2):
        with pytest.raises(RuntimeWarning, match="^divide by zero encountered in log$"):
            run(cpus)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
            run(cpus)


REFERENCE_CASES = {
    # name: (plan, mu, sigma)
    "known": (build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3), -0.1, 1.0),
    "known-misspecified": (
        build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3), -0.3, 1.7,
    ),
    "unknown": (build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.8777, rho=1.0, tau=3), 0.1, 2.0),
    "unknown-straddle": (STRADDLE, 0.02, 1.0),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_matches_the_per_sample_reference(name):
    """Stage sums drawn per block and per sample have one law: reject rates
    agree within 4 se and the stage histograms pass a chi-square
    homogeneity test at the 1e-3 level."""
    plan, mu, sigma = REFERENCE_CASES[name]
    reps = 100_000
    got = simulate_plan(plan, mu, sigma, reps, seed=41)
    ref = reference_simulate_plan(plan, mu, sigma, reps, seed=42)
    assert abs(got.reject_rate - ref.reject_rate) <= 4 * math.hypot(got.mc_se, ref.mc_se)
    h1 = np.array(got.stage_histogram, dtype=float)
    h2 = np.array(ref.stage_histogram, dtype=float)
    seen = (h1 + h2) > 0
    assert np.count_nonzero(seen) >= 2  # the histograms have a shape to compare
    stat = float(np.sum((h1 - h2)[seen] ** 2 / (h1 + h2)[seen]))
    assert sp.chdtrc(np.count_nonzero(seen) - 1, stat) >= 1e-3, (got, ref)


@pytest.mark.parametrize("df", [*range(1, 12), 39, 40, 146, 2**24 - 1])
def test_block_squares_have_the_chi_square_law(df):
    """W / sigma^2 of a block of dn samples is chi-square with dn - 1
    degrees of freedom, through numpy's rejection step at df 1, an
    exponential at df 2 and Marsaglia-Tsang draws from df 3 to 2**24 - 1,
    and the block sum is normal(dn shift, dn sigma^2)."""
    base = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.8, rho=1.0, tau=3)
    dn = df + 1
    # a block of dn samples, then one of a single sample, which draws no square
    plan = replace(base, stages=(Stage(n=dn, a=-1.0, b=1.0), Stage(n=dn + 1, a=0.0, b=0.0)))
    reps, shift, sigma = 200_000, 0.3, 1.7
    sums, squares = block_draws(plan, shift, sigma, 11, 0, reps)
    assert squares[1].tolist() == [0.0] * reps
    w = squares[0] / sigma**2
    assert abs(w.mean() - df) <= 4 * math.sqrt(2 * df / reps)
    assert abs(w.var() - 2 * df) <= 4 * math.sqrt((8 * df * df + 48 * df) / reps)
    # Kolmogorov distance to the chi-square CDF, 1e-3 level
    cdf = sp.chdtr(df, np.sort(w))
    steps = np.arange(1, reps + 1) / reps
    distance = max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / reps))))
    assert distance <= 1.95 / math.sqrt(reps)
    unit = (sums[0] - dn * shift) / (sigma * math.sqrt(dn))
    assert abs(unit.mean()) <= 4 / math.sqrt(reps)
    assert abs(unit.var() - 1.0) <= 4 * math.sqrt(2.0 / reps)


_TOP = 1.0 - 2.0**-53  # the largest double numpy's bit generators emit
# a 64-bit word that sends numpy's normal ziggurat to its positive tail: layer
# 0 (the low 8 bits), magnitude bits 9..60 all set, and bit 17, the tail's
# sign, clear
_NORMAL_TAIL = ((1 << 52) - 1) << 9 & ~(1 << 17)
# a word that sends numpy's exponential ziggurat to its tail: layer 0 (bits
# 3..10) and every magnitude bit above set
_EXPONENTIAL_TAIL = ((1 << 53) - 1) << 11


def largest_accepted(draw, lo=0.5, hi=_TOP):
    """The largest double u in [lo, hi) for which draw(u) is not None, by
    bisection: draw(lo) must be accepted and draw(hi) not."""
    assert draw(lo) is not None and draw(hi) is None
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if draw(mid) is not None else (lo, mid)
    return lo


def largest_normal_tail_u():
    """The largest double of a normal tail draw that numpy's ziggurat
    accepts when its acceptance double is _TOP, the most lenient: a
    rejected first pair is followed by (0, 0.5), which gives r exactly."""

    def draw(u):
        z = scripted_generator([_NORMAL_TAIL], [u, _TOP, 0.0, 0.5]).standard_normal()
        return None if z == sim._ZIGGURAT_R else z

    return largest_accepted(draw)


def test_no_normal_numpy_draws_exceeds_z_max():
    """numpy's ziggurat starts its tail at _ZIGGURAT_R: the tail draw is r +
    x, x = -log1p(-u) / r, so u = 1 - 2**-53 gives _Z_MAX, which the
    tail's test x^2 < -2 log1p(-u') rejects whatever its second double u'.
    The largest draw accepted is r + sqrt(106 log 2), up to the grid of
    doubles, and so within _Z_MAX."""
    r = sim._ZIGGURAT_R
    x = -math.log1p(-_TOP) / r
    assert r + x == sim._Z_MAX == pytest.approx(13.71, abs=5e-3)
    assert x * x > -2.0 * math.log1p(-_TOP)
    z = scripted_generator([_NORMAL_TAIL], [largest_normal_tail_u(), _TOP]).standard_normal()
    assert r + math.sqrt(106 * math.log(2)) - 1e-3 < z <= r + math.sqrt(106 * math.log(2))
    assert z < sim._Z_MAX
    # the same word with the tail's sign bit set draws the negative twin
    negative = _NORMAL_TAIL | 1 << 17
    assert scripted_generator([negative], [0.75, _TOP]).standard_normal() < -r


@pytest.mark.parametrize("df", [*range(1, 12), 40, 2**24 - 1])
@pytest.mark.parametrize("extreme", ["smallest", "largest"])
def test_extreme_streams_keep_the_chi_square_within_the_overflow_bound(df, extreme):
    """_stage_pass refuses data by taking every block's chi-square as at
    most dn * _Z_MAX^2.  numpy's largest draws stay within that, and
    without a warning: at df 1 the rejection step's largest accepted
    proposal against the largest exponential, at df 2 that exponential,
    and from df 3 on a Marsaglia-Tsang try on the largest normal, accepted
    by a uniform of 0.  A stream of zero words and doubles draws at least 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if extreme == "smallest":
            chi2 = scripted_generator().chisquare(df)
        elif df == 1:
            # a rejected proposal is followed by (0.25, exponential), accepted
            def draw(u):
                g = scripted_generator([_EXPONENTIAL_TAIL] * 2, [u, _TOP, 0.25, _TOP])
                x = g.chisquare(1)
                return None if x == 2 * 0.25**2 else x

            chi2 = draw(largest_accepted(draw))
        elif df == 2:
            chi2 = scripted_generator([_EXPONENTIAL_TAIL], [_TOP]).chisquare(2)
            assert chi2 == 2.0 * (7.69711747013105 - math.log1p(-_TOP))
        else:
            u = largest_normal_tail_u()
            chi2 = scripted_generator([_NORMAL_TAIL], [u, _TOP, 0.0]).chisquare(df)
            d = 0.5 * df - 1.0 / 3.0
            z = scripted_generator([_NORMAL_TAIL], [u, _TOP]).standard_normal()
            assert chi2 == pytest.approx(2.0 * d * (1.0 + z / (3.0 * math.sqrt(d))) ** 3, rel=1e-12)
    assert 0.0 <= chi2 <= (df + 1) * sim._Z_MAX**2


def test_largest_accepted_draw_is_within_the_overflow_bound():
    """A Marsaglia-Tsang try gives at most 2 d (1 + _Z_MAX / (3 sqrt(d)))^3,
    which stays within dn * _Z_MAX^2 from df 3, where numpy starts drawing
    by that method, to 10**4 and at 2**24 - 1; its ratio to that bound falls
    as df grows."""
    dfs = np.concatenate([np.arange(3, 10**4), [2.0**24 - 1]])
    d = 0.5 * dfs - 1.0 / 3.0
    largest = 2.0 * d * (1.0 + sim._Z_MAX / (3.0 * np.sqrt(d))) ** 3
    assert np.all(largest <= (dfs + 1) * sim._Z_MAX**2)


REPLAY_PLANS = {
    "known": build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3),
    "known-shifted": SHIFTED,
    "unknown": build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.8, rho=1.0, tau=3),
    "unknown-straddle": STRADDLE,
    "unknown-mixed": MIXED,
}


@pytest.mark.parametrize("theta, sigma_ratio", [(-0.5, 2.0), (0.7, 2.0), (0.2, 0.5)])
@pytest.mark.parametrize("name", sorted(REPLAY_PLANS))
def test_replicates_reach_the_session_decision(name, theta, sigma_ratio):
    """Replicate r's outcome is what adding it changes in the report; a
    session fed samples with its block sums and sums of squares must reach
    the same stage and decision, also when the data's sigma is not the
    plan's."""
    plan = REPLAY_PLANS[name]
    plan_sigma = getattr(plan, "sigma", 1.0)
    sigma = sigma_ratio * plan_sigma
    mu = plan.gamma + theta * plan_sigma
    seed = 5
    hist = np.zeros(plan.num_stages, dtype=np.int64)
    accepted = 0
    for r in range(200):
        rep = simulate_plan(plan, mu, sigma, r + 1, seed)
        stage = int(np.flatnonzero(np.array(rep.stage_histogram) - hist)[0]) + 1
        now_accepted = round(rep.accept_rate * (r + 1))
        session = feed(new_session(plan, allow_uncertified=True),
                       replicate_samples(plan, mu, sigma, r, seed))
        last = session.history[-1]
        assert (stage, now_accepted > accepted) == (last.stage, last.decision == Decision.ACCEPT), r
        hist = np.array(rep.stage_histogram)
        accepted = now_accepted


SINGLE = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=0.01, tau=2)
WALK_PLANS = {**REPLAY_PLANS, "plan": PLAN, "single": SINGLE}


@pytest.mark.parametrize("block", [sim._BLOCK, 137])
@pytest.mark.parametrize(
    "theta, sigma_ratio", [(-50.0, 1.0), (-0.5, 2.0), (0.0, 1.0), (0.3, 0.5), (0.7, 2.0)]
)
@pytest.mark.parametrize("name", sorted(WALK_PLANS))
def test_stopped_walk_reports_what_the_all_stages_walk_does(
    name, theta, sigma_ratio, block, monkeypatch
):
    """simulate_plan draws and decides a replicate's stages only while it
    samples; its report is the stop tally of the walk that decides every
    replicate at every stage, also where every replicate stops at once."""
    monkeypatch.setattr(sim, "_BLOCK", block)
    plan = WALK_PLANS[name]
    plan_sigma = getattr(plan, "sigma", 1.0)
    mu, sigma = plan.gamma + theta * plan_sigma, sigma_ratio * plan_sigma
    reps, seed = 2000, 3
    walked = sim._stage_pass(plan, mu, sigma, reps, seed, stop_tally)
    rep = simulate_plan(plan, mu, sigma, reps, seed)
    assert rep == sim._sim_report(plan, reps, seed, walked)
    if theta == -50.0:
        assert rep.stage_histogram == (reps,) + (0,) * (plan.num_stages - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(WALK_PLANS)),
    st.floats(-1.0, 1.0),
    st.floats(0.25, 4.0),
    st.integers(1, 400),
    st.integers(0, 2**64 - 1),
)
def test_walk_counts_equal_the_stop_tally_of_every_stage(name, theta, sigma_ratio, block, seed):
    """The stop counts, kept as the stopped walk goes, are the stop tally of
    the codes of the walk that decides every replicate at every stage,
    whatever the block size."""
    plan = WALK_PLANS[name]
    plan_sigma = getattr(plan, "sigma", 1.0)
    mu, sigma = plan.gamma + theta * plan_sigma, sigma_ratio * plan_sigma
    with mock.patch.object(sim, "_BLOCK", block):
        stops, accepted = sim._stage_pass(plan, mu, sigma, 300, seed)
        tallied, tallied_accepted = sim._stage_pass(plan, mu, sigma, 300, seed, stop_tally)
    assert (stops.tolist(), accepted) == (tallied.tolist(), tallied_accepted)


@pytest.mark.parametrize("stop", [True, False])
def test_open_final_stage_fails_in_either_walk(stop):
    # neither walk can meet an open final stage: the plan is refused when it
    # is made.  Both stop every replicate by the final stage of the plan as
    # built (stop_tally raises on a replicate still sampling after it)
    last = PLAN.stages[-1]
    with pytest.raises(DomainError, match="^the final stage must decide: "):
        replace(PLAN, stages=PLAN.stages[:-1] + (Stage(n=last.n, a=0.0, b=1e-300),))
    stops, _ = sim._stage_pass(PLAN, 0.0, 1.0, 1000, 1, None if stop else stop_tally)
    assert stops.sum() == 1000 and stops[-1] > 0


# recorded from the all-stages walk of the block draws; the unknown-variance
# bench oracle compares these sums with the certified envelopes
TRANSITION_SUMS = {
    ("plan", 4): "TransitionSums(replications=20000, reject_sum=0.3823, "
    "reject_se=0.0036410624136369867, accept_sum=0.6883, accept_se=0.003653375904557318, seed=4)",
    ("plan", 19): "TransitionSums(replications=20000, reject_sum=0.37135, "
    "reject_se=0.0036114344622324244, accept_sum=0.6967, accept_se=0.0036256662146424896, seed=19)",
    ("straddle", 4): "TransitionSums(replications=20000, reject_sum=0.70655, "
    "reject_se=0.0035618611532455898, accept_sum=0.36575, accept_se=0.0036282016034118064, seed=4)",
    ("straddle", 19): "TransitionSums(replications=20000, reject_sum=0.7057, "
    "reject_se=0.003596439280733098, accept_sum=0.3688, accept_se=0.003625510722643087, seed=19)",
}


@pytest.mark.parametrize("name, seed", sorted(TRANSITION_SUMS))
def test_transition_sums_keep_their_values(name, seed):
    plan, mu, sigma = {"plan": (PLAN, -0.1, 1.0), "straddle": (STRADDLE, 0.05, 1.2)}[name]
    got = mc_transition_sums(plan, mu, sigma, 20_000, seed)
    assert repr(got) == TRANSITION_SUMS[name, seed]


@pytest.mark.parametrize("theta", [-50.0, -0.5, 0.2])
def test_only_replicates_still_sampling_draw_a_block(theta, monkeypatch):
    """Each stage block is drawn, with its sums of squares, for the
    replicates that reach its stage and no others; the transition walk
    draws every block of every replicate, those of the replicates that have
    stopped from streams of their own.  REPLAY_PLANS["unknown"] draws
    chi-squares of 3, 3 and 7 degrees of freedom; MIXED also one of 1, none
    and one of 11."""
    calls = []
    block_draw = sim._block_draw

    def record(seed, block, stage, stopped, rows, *rest):
        sums, squares = block_draw(seed, block, stage, stopped, rows, *rest)
        assert len(sums) == len(squares) == rows
        calls.append((stage, stopped, rows))
        return sums, squares

    monkeypatch.setattr(sim, "_block_draw", record)
    # fewer replicates than _BLOCK: one block, so the calls come in stage order
    reps = 5000
    for plan in (REPLAY_PLANS["unknown"], MIXED):
        calls.clear()
        rep = simulate_plan(plan, theta, 1.0, reps, 2)
        reaching = [sum(rep.stage_histogram[i:]) for i in range(plan.num_stages)]
        stages = [i for i, count in enumerate(reaching) if count]
        assert calls == [(i, False, reaching[i]) for i in stages]
        if theta == -50.0:
            assert stages == [0]
        else:
            # the last block is drawn for some replicates, not all
            assert 0 < reaching[-1] < reps
        calls.clear()
        mc_transition_sums(plan, theta, 1.0, reps, 2)
        assert [(i, rows) for i, stopped, rows in calls if not stopped] == list(enumerate(reaching))
        assert [(i, rows) for i, stopped, rows in calls if stopped] == [
            (i, reps - reaching[i]) for i in range(plan.num_stages) if reaching[i] < reps
        ]


def reference_stop_tally(stats, a, b):
    """The per-stage loop simulate_plan's tally replaced; the reference."""
    s = stats.shape[1]
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


def reference_transition_tally(stats, a, b):
    """The per-stage loop mc_transition_sums's tally replaced; the reference."""
    rej_count = np.zeros(len(stats), dtype=np.int64)
    acc_count = np.zeros(len(stats), dtype=np.int64)
    prev_continue = np.ones(len(stats), dtype=bool)
    for idx in range(stats.shape[1]):
        t = stats[:, idx]
        rej_count += (prev_continue & (t > b[idx])).astype(np.int64)
        acc_count += (prev_continue & (t <= a[idx])).astype(np.int64)
        prev_continue = (t > a[idx]) & (t <= b[idx])
    return (
        int(rej_count.sum()), float(np.dot(rej_count, rej_count)),
        int(acc_count.sum()), float(np.dot(acc_count, acc_count)),
    )


@st.composite
def statistic_matrices(draw):
    """Thresholds a <= b per stage, and statistics that often sit exactly
    at a threshold or one float step from it."""
    stages = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 25))
    reals = st.floats(-4.0, 4.0)
    a, b = [], []
    for _ in range(stages):
        lo, hi = sorted(draw(st.lists(reals, min_size=2, max_size=2)))
        if draw(st.booleans()):
            hi = lo  # a closing stage
        a.append(lo)
        b.append(hi)
    near = [
        [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        for pair in zip(a, b) for x in pair
    ]
    # an integer entry picks a value at or next to one of its stage's thresholds
    entries = st.one_of(st.integers(0, 5), reals, st.sampled_from([-math.inf, math.inf]))
    flat = draw(st.lists(entries, min_size=rows * stages, max_size=rows * stages))
    stats = np.array([
        near[2 * (i % stages) + x // 3][x % 3] if isinstance(x, int) else x
        for i, x in enumerate(flat)
    ]).reshape(rows, stages)
    return stats, np.array(a), np.array(b)


@settings(max_examples=200, deadline=None)
@given(statistic_matrices())
def test_tallies_equal_the_per_stage_loops(case):
    stats, a, b = case
    codes = decision_code(stats.T, a[:, None], b[:, None])
    assert sim._transition_tally(codes) == reference_transition_tally(stats, a, b)
    try:
        expected = reference_stop_tally(stats, a, b)
    except SeqnormError:
        with pytest.raises(SeqnormError, match="final stage failed to decide"):
            stop_tally(codes)
        return
    hist, accepted = stop_tally(codes)
    assert hist.tolist() == expected[0].tolist()
    assert accepted == expected[1]


class TestTransitionSums:
    def test_deterministic(self):
        a = mc_transition_sums(PLAN, mu=-0.5, sigma=1.0, replications=30_000, seed=2)
        b = mc_transition_sums(PLAN, mu=-0.5, sigma=1.0, replications=30_000, seed=2)
        assert a == b

    def test_sums_bound_stopped_rates(self):
        rep = simulate_plan(PLAN, mu=-0.5, sigma=1.0, replications=2 * 10**5, seed=8)
        ts = mc_transition_sums(PLAN, mu=-0.5, sigma=1.0, replications=2 * 10**5, seed=8)
        # the stopped process can only reject on a transition path
        assert rep.reject_rate <= ts.reject_sum + 4 * ts.reject_se
        assert rep.accept_rate <= ts.accept_sum + 4 * ts.accept_se


def grid_by_rows(sec, resolution):
    """The midpoint sum of grid_domain_prob, one indicator row block at a time."""
    mid, w = grid_points(8.0, resolution)
    total = 0.0
    block = 256
    for start in range(0, resolution, block):
        lo, hi = sec(mid[start : start + block])
        inside = (lo[None, :] <= mid[:, None]) & (mid[:, None] <= hi[None, :])
        total += float(np.dot(w, inside.astype(float) @ w[start : start + block]))
    return total


def disk(v):
    inside = np.abs(v) <= 1.0
    half = np.sqrt(np.maximum(1.0 - v * v, 0.0))
    return np.where(inside, -half, 1.0), np.where(inside, half, 0.0)


class TestDomainOracles:
    def test_mc_full_plane_proxy(self):
        region = ConeRegion(-50.0, 50.0, 1.0)
        [(est, se)] = mc_domain_prob_many([region], 10**5, seed=1)
        assert est == 1.0

    def test_mc_empty_branch_region(self):
        region = HyperbolaConeRegion(offset=0.5, lam=2.0, h=0.8, g=-0.5, k=0.4)
        [(est, se)] = mc_domain_prob_many([region], 10**5, seed=1)
        assert est == 0.0

    def test_mc_wedge(self):
        [(est, se)] = mc_domain_prob_many([ConeRegion(0.0, 0.0, 1.0)], 10**7, seed=6)
        assert abs(est - 0.125) <= 4 * se

    def test_grid_disk_closed_form(self):
        got = grid_domain_prob(disk, resolution=64_000)
        assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-5)
        # the prefix-sum shortcut equals the row-by-row indicator sum
        assert grid_by_rows(disk, 1024) == pytest.approx(
            grid_domain_prob(disk, resolution=1024), abs=1e-12
        )

    def test_grid_half_plane(self):
        # a vertical boundary rounds identically in every row, so only high
        # resolution (or edge alignment) controls the truncation error
        for c in (-1.0, 0.37, 2.0):

            def half(v, c=c):
                return np.full_like(v, -np.inf), np.full_like(v, c)

            got = grid_domain_prob(half, resolution=2_000_000)
            assert got == pytest.approx(std_normal_cdf(c), abs=1e-5)

    def test_grid_parameters_validated(self):
        cone = section(ConeRegion(0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            grid_domain_prob(cone, half_width=4.0)
        with pytest.raises(DomainError):
            grid_domain_prob(cone, resolution=100)

    def test_mc_agrees_with_grid_directly(self):
        for region in (ConeRegion(-0.6, 0.4, 1.3),
                       HyperbolaConeRegion(offset=-0.4, lam=0.6, h=0.3, g=1.1, k=1.2)):
            [(est, se)] = mc_domain_prob_many([region], 10**6, seed=77)
            ref = grid_domain_prob(section(region), resolution=60_000)
            assert abs(est - ref) <= 4 * se

    def test_grid_interval_path_equals_predicate_path(self):
        cone = section(ConeRegion(-0.4, 0.7, 1.3))
        fast = grid_domain_prob(cone, resolution=1024)
        assert grid_by_rows(cone, 1024) == pytest.approx(fast, abs=1e-12)


class TestDecomposition:
    def test_identity_and_moments(self):
        report = sample_decomposition_check(10, 4, replications=10**4, seed=13,
                                            mu=0.7, sigma=1.3)
        assert report.identity_max_rel_err <= 1e-9
        assert report.pooling_max_rel_err <= 1e-9
        se_y = math.sqrt(2.0 * (4 - 1)) / math.sqrt(report.replications)
        assert abs(report.means["Y"] - (4 - 1)) <= 4 * se_y
        se_z = math.sqrt(2.0 * (10 - 4 - 1)) / math.sqrt(report.replications)
        assert abs(report.means["Z"] - (10 - 4 - 1)) <= 4 * se_z
        # variance of a standard normal sample variance estimate ~ 2/n
        assert abs(report.variances["U"] - 1.0) <= 4 * math.sqrt(2.0 / report.replications)
        assert abs(report.variances["V"] - 1.0) <= 4 * math.sqrt(2.0 / report.replications)
        assert report.passed

    def test_correlations_below_threshold(self):
        report = sample_decomposition_check(12, 5, replications=10**4, seed=29)
        assert report.max_abs_correlation <= report.correlation_threshold

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_decomposition_check(5, 5, replications=100, seed=1)
        with pytest.raises(DomainError):
            sample_decomposition_check(5, 0, replications=100, seed=1)


SEEDED_DRAWS = {
    "simulate_plan": lambda seed: simulate_plan(PLAN, 0.0, 1.0, 10, seed),
    "mc_transition_sums": lambda seed: mc_transition_sums(PLAN, 0.0, 1.0, 10, seed),
    "mc_domain_prob_many": lambda seed: mc_domain_prob_many(
        [ConeRegion(0.0, 0.0, 1.0)], 10, seed
    ),
    "sample_decomposition_check": lambda seed: sample_decomposition_check(5, 2, 10, seed),
}


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize("name", sorted(SEEDED_DRAWS))
def test_seed_outside_philox_key_range(name, seed):
    with pytest.raises(DomainError) as info:
        SEEDED_DRAWS[name](seed)
    assert str(info.value) == f"seed must lie in [0, 2**128), got {seed}"
