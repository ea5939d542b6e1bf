"""Plan simulation and the test oracles: determinism, chunk invariance,
agreement with the per-sample reference simulator, domain probabilities,
decomposition check."""

import math
import signal
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
    section,
    stop_tally,
)

PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)
# sizes (63, 94, 140): its blocks' chi-square has 62, 30 and 45 degrees of
# freedom
STRADDLE = build_unknown_plan(0.05, 0.05, 0.15, 0.0, zeta=0.8, rho=0.5, tau=3)
# sizes (2, 3, 6, 12, 24): its blocks' chi-square has 1, 0, 2, 5 and 11
# degrees of freedom, so it draws a squared normal, nothing, two direct draws
# and a Marsaglia-Tsang one
MIXED = build_unknown_plan(0.05, 0.05, 0.4, 0.0, zeta=0.7, rho=1.0, tau=5)


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

    def test_chunking_invariance(self, monkeypatch):
        base = simulate_plan(PLAN, mu=-0.3, sigma=1.0, replications=10_000, seed=5)
        monkeypatch.setattr(sim, "_CHUNK", 137)
        rechunked = simulate_plan(PLAN, mu=-0.3, sigma=1.0, replications=10_000, seed=5)
        assert base == rechunked

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_chunks_hold_at_most_2_to_24_samples(self, cpus, monkeypatch):
        # n_max 1537 costs one word per stage block: a chunk is at most
        # _CHUNK rows of a 4-word window, however large the final stage
        plan = build_known_plan(0.05, 0.05, 0.05, 0.0, 1.0, zeta=0.5, rho=1.0, tau=3)
        assert plan.sizes[-1] == 1537
        shapes, threads = [], set()

        class Recorded(Exception):
            pass

        def record(seed, word_start, rows, cols):
            shapes.append((rows, cols))
            threads.add(threading.get_ident())
            raise Recorded

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_uniform_block", record)
        runs = []
        for run_plan, reps, chunk in (
            (plan, 40_000, sim._CHUNK),
            (STRADDLE, 40_000, sim._CHUNK),
            # with more replicates per chunk than 2**24 words hold, the word bound rules
            (STRADDLE, 10**7, 1 << 20),
        ):
            monkeypatch.setattr(sim, "_CHUNK", chunk)
            shapes.clear()
            with pytest.raises(Recorded):
                simulate_plan(run_plan, mu=0.0, sigma=1.0, replications=reps, seed=1)
            runs.append(shapes[0])
            # each of at most cpus threads holds one chunk's words at a time
            assert all(rows <= chunk and rows * cols * cpus <= 2**24 for rows, cols in shapes)
        assert len(threads) <= cpus
        if cpus == 1:
            # STRADDLE's window: 1 + 5 words per stage, padded to 20
            assert runs == [(32768, 4), (32768, 20), (838860, 20)]
            assert 838860 * 20 <= 2**24 < 838861 * 20
        else:
            # 40,000 replicates take at most 40,000 // _CHUNK + 1 = 2 threads
            # and split evenly; 10**7 take every CPU, within the word bound
            assert runs == [(20_000, 4), (20_000, 20), (2**24 // (20 * cpus), 20)]
        # fewer replicates than _CHUNK are one chunk on the caller's thread
        shapes.clear()
        threads.clear()
        with pytest.raises(Recorded):
            simulate_plan(STRADDLE, mu=0.0, sigma=1.0, replications=20_000, seed=1)
        assert shapes == [(20_000, 20)] and threads == {threading.get_ident()}

    def test_degenerate_sums_of_squares_pin_the_statistic_to_the_mean_sign(self):
        plan = REPLAY_PLANS["unknown"]
        sums = np.array([[1.0, -2.0, 0.0, 3.0]] * plan.num_stages)
        squares = np.array([[0.0, 0.0, 0.0, -1e-300]] * plan.num_stages)
        n = np.array(plan.sizes, dtype=float)[:, None]
        got = plan.stage_statistics(sums, squares, n)
        assert got.tolist() == [[math.inf, -math.inf, 0.0, math.inf]] * plan.num_stages
        assert plan.stage_statistics(-2.0, 0.0, plan.sizes[0]) == -math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=0.0, replications=10, seed=1)
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=0, seed=1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_final_stage_that_does_not_close_is_an_error(self, cpus, monkeypatch):
        # plan files cannot carry such a stage; a hand-built plan can.  250
        # replicates a chunk make four chunks, which two threads share
        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_CHUNK", 250)
        last = PLAN.stages[-1]
        open_plan = replace(PLAN, stages=PLAN.stages[:-1] + (Stage(n=last.n, a=-1.0, b=1.0),))
        with pytest.raises(SeqnormError) as info:
            simulate_plan(open_plan, mu=0.0, sigma=1.0, replications=1000, seed=1)
        assert str(info.value) == "final stage failed to decide; plan invariant broken"

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


with mock.patch.object(sim, "_cpus", lambda: 1):
    CHUNK_BASE = simulate_plan(STRADDLE, mu=0.1, sigma=1.3, replications=300, seed=17)
    CHUNK_SUMS = mc_transition_sums(STRADDLE, mu=0.1, sigma=1.3, replications=300, seed=17)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.sampled_from([1, 2, 3, 8]))
def test_simulation_is_unchanged_under_any_chunk(chunk, cpus):
    """Reports and transition sums equal the one-CPU run's, whatever the
    chunk size and however many threads share the chunks."""
    with mock.patch.object(sim, "_CHUNK", chunk), mock.patch.object(sim, "_cpus", lambda: cpus):
        assert simulate_plan(STRADDLE, mu=0.1, sigma=1.3, replications=300, seed=17) == CHUNK_BASE
        assert mc_transition_sums(STRADDLE, mu=0.1, sigma=1.3, replications=300, seed=17) == CHUNK_SUMS


def chunk_of(word_start):
    """The index of the 100-replicate chunk of PLAN whose window starts at word_start."""
    return word_start // (100 * sim._blocks(PLAN)[1])


def test_first_failing_chunk_in_index_order_decides(monkeypatch):
    """Chunks 1, 2 and 3 fail, each sooner than the one before, while chunk
    0 runs longest and succeeds: chunk 1's exception is raised."""
    block = sim._uniform_block

    def fail_later_chunks(seed, word_start, rows, cols):
        k = chunk_of(word_start)
        time.sleep(0.05 * (4 - k))
        if k:
            raise ValueError(f"chunk {k}")
        return block(seed, word_start, rows, cols)

    # four chunks of 100 on four threads: all start at once
    monkeypatch.setattr(sim, "_cpus", lambda: 4)
    monkeypatch.setattr(sim, "_CHUNK", 100)
    monkeypatch.setattr(sim, "_uniform_block", fail_later_chunks)
    with pytest.raises(ValueError, match="^chunk 1$"):
        simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=400, seed=1)


@pytest.mark.parametrize("case", ["first", "later", "interrupt"])
def test_no_chunk_starts_after_a_failure_or_an_interrupt(case, monkeypatch):
    """Of 40 chunks on two threads, chunk 0 starts.  Chunk 0 fails
    after 0.1 s ("first"), or sends the caller's thread SIGINT then, as
    Ctrl-C does, and fails a second later ("interrupt"), while chunk 1
    fails after a second; or chunk 1 fails at once while chunk 0 takes
    half a second and succeeds ("later").  Either way no chunk after
    chunk 1 starts (chunk 1 may not start at all when the second thread
    starts late)."""
    started = []

    class Failed(Exception):
        pass

    def record(seed, word_start, rows, cols):
        k = chunk_of(word_start)
        started.append(k)
        if case == "later":
            if k == 0:
                time.sleep(0.5)
                return np.full((rows, cols), 0.5)
            raise Failed
        if k == 0:
            time.sleep(0.1)
            if case == "interrupt":
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        if k != 0 or case == "interrupt":
            time.sleep(1.0)
        raise Failed

    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_CHUNK", 100)
    monkeypatch.setattr(sim, "_uniform_block", record)
    with pytest.raises(KeyboardInterrupt if case == "interrupt" else Failed):
        simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=4000, seed=1)
    assert 0 in started and set(started) <= {0, 1}


def test_warnings_and_errstate_of_the_caller_hold_in_every_chunk(monkeypatch):
    """With the word floor lost and every word 0, the first stage's direct
    chi-square draw logs 0 in each of four chunks: on two CPUs as on one,
    the caller's warnings filters and np.errstate see every warning."""
    plan = REPLAY_PLANS["unknown"]  # blocks of 3, 3 and 7 degrees of freedom
    monkeypatch.setattr(sim, "_CHUNK", 100)
    monkeypatch.setattr(sim, "_U_FLOOR", 0.0)
    monkeypatch.setattr(sim, "_uniform_block", lambda seed, start, rows, cols: np.zeros((rows, cols)))

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
    degrees of freedom, from direct draws of ceil(df / 2) words up to df 10
    (one squared normal at df 1) to Marsaglia-Tsang draws from df 11 to
    2**24 - 1, and the block sum is normal(dn shift, dn sigma^2)."""
    base = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.8, rho=1.0, tau=3)
    dn = df + 1
    # a block of dn samples, then one of a single sample, which draws no square
    plan = replace(base, stages=(Stage(n=dn, a=-1.0, b=1.0), Stage(n=dn + 1, a=0.0, b=0.0)))
    k = min((df + 1) // 2, 2 * sim._TRIES + 1)
    assert sim._blocks(plan) == ([(dn, k), (1, 0)], 4 * ((k + 5) // 4))
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


_TOP = 1.0 - 2.0**-53  # the largest word the stream emits


@pytest.mark.parametrize("df", [2, 3, 40, 2**24 - 1])
def test_chi_square_takes_the_first_accepting_try_or_the_fallback(df):
    """Hand-made windows: a try whose normal word is 0.999 (z = 3.09) and
    whose acceptance word is 1 - 2**-53 rejects at every df, and one with
    acceptance word _U_FLOOR and normal word 0.7 accepts, giving 2 d v."""
    d = 0.5 * df - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    v = 1.0 + c * float(sp.ndtri(0.7))
    accepted = 2.0 * d * (v * v * v)
    fallback = 2.0 * float(sp.gammaincinv(0.5 * df, 0.3))
    reject, accept = [0.999, _TOP], [0.7, sim._U_FLOOR]
    windows = {
        "first": accept + reject,
        "second": reject + accept,
        "neither": reject + reject,
    }
    expected = {"first": accepted, "second": accepted, "neither": fallback}
    assert sim._TRIES == 2
    for name, words in windows.items():
        got = sim._chi_square(df, np.array([words + [0.3]]))
        assert repr(float(got[0])) == repr(expected[name]), name
    # rows of every kind in one window draw what each draws alone
    mixed = np.array([windows[name] + [0.3] for name in ("neither", "first", "second", "neither")])
    got = sim._chi_square(df, mixed).tolist()
    assert got == [expected[name] for name in ("neither", "first", "second", "neither")]


def test_direct_draw_is_minus_twice_the_log_of_the_product_and_a_square():
    """Hand-made windows: an odd df draws -2 log(u1 u2) + ndtri(u3)^2, an even
    one -2 log of its words' left-to-right product, df 1 the square alone
    (the bits of the squared normal a block of two drew before), and a block
    reads its words from column col on."""
    u = np.array([
        [0.3, 0.8, 0.6, 0.05, 0.99],
        [sim._U_FLOOR, _TOP, 0.5, sim._U_FLOOR, sim._U_FLOOR],
        [_TOP, 0.123456789, sim._U_FLOOR, _TOP, 0.7],
    ])
    u1, u2, u3, u4, u5 = u.T
    odd = -2.0 * np.log(u1 * u2) + sp.ndtri(u3) ** 2
    assert sim._direct_chi_square(5, u[:, :3]).tolist() == odd.tolist()
    assert sim._direct_chi_square(4, u[:, :2]).tolist() == (-2.0 * np.log(u1 * u2)).tolist()
    even = -2.0 * np.log((((u1 * u2) * u3) * u4) * u5)
    assert sim._direct_chi_square(10, u).tolist() == even.tolist()
    assert sim._direct_chi_square(2, u[:, 3:4]).tolist() == (-2.0 * np.log(u4)).tolist()
    assert sim._direct_chi_square(1, u[:, 2:3]).tolist() == (sp.ndtri(u3) ** 2).tolist()
    # a block of six samples: sum word at column 0, its three words at 2..4
    sums, squares = sim._block_draw(u, slice(None), 0, 2, 6, 3, 0.25, 1.5, True)
    assert squares.tolist() == (1.5 * 1.5 * (-2.0 * np.log(u3 * u4) + sp.ndtri(u5) ** 2)).tolist()
    assert sums.tolist() == (6 * 0.25 + 1.5 * math.sqrt(6) * sp.ndtri(u1)).tolist()


@pytest.mark.parametrize("df", [*range(1, 12), 40, 2**24 - 1])
@pytest.mark.parametrize("word", [sim._U_FLOOR, _TOP])
def test_extreme_windows_keep_the_chi_square_within_the_overflow_bound(df, word):
    """_stage_pass refuses data by taking every block's chi-square as at
    most dn * _Z_MAX^2; windows of the smallest or of the largest word,
    which drive a draw to its extremes, stay within that, and without a
    warning: the direct draw's ceil(df / 2) words up to df 10 and a
    Marsaglia-Tsang window from df 2 on."""
    draws = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (df + 1) // 2 <= 2 * sim._TRIES + 1:
            draws.append(sim._direct_chi_square(df, np.full((1, (df + 1) // 2), word)))
        if df >= 2:
            draws.append(sim._chi_square(df, np.full((1, 2 * sim._TRIES + 1), word)))
    for chi2 in draws:
        assert 0.0 <= chi2[0] <= (df + 1) * sim._Z_MAX**2


def test_largest_accepted_draw_is_within_the_overflow_bound():
    """An accepted try gives at most 2 d (1 + _Z_MAX / (3 sqrt(d)))^3,
    which stays within dn * _Z_MAX^2 from df 2 to 10**4 and at 2**24 - 1;
    its ratio to that bound falls as df grows."""
    dfs = np.concatenate([np.arange(2, 10**4), [2.0**24 - 1]])
    d = 0.5 * dfs - 1.0 / 3.0
    largest = 2.0 * d * (1.0 + sim._Z_MAX / (3.0 * np.sqrt(d))) ** 3
    assert np.all(largest <= (dfs + 1) * sim._Z_MAX**2)


REPLAY_PLANS = {
    "known": build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3),
    "known-shifted": build_known_plan(0.05, 0.10, 0.4, 1.3, 0.7, zeta=0.6, rho=0.5, tau=4),
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


@pytest.mark.parametrize("chunk", [sim._CHUNK, 137])
@pytest.mark.parametrize(
    "theta, sigma_ratio", [(-50.0, 1.0), (-0.5, 2.0), (0.0, 1.0), (0.3, 0.5), (0.7, 2.0)]
)
@pytest.mark.parametrize("name", sorted(WALK_PLANS))
def test_stopped_walk_reports_what_the_all_stages_walk_does(
    name, theta, sigma_ratio, chunk, monkeypatch
):
    """simulate_plan draws and decides a replicate's stages only while it
    samples; its report is the stop tally of the walk that decides every
    replicate at every stage, also where every replicate stops at once."""
    monkeypatch.setattr(sim, "_CHUNK", chunk)
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
    st.integers(1, 700),
    st.integers(0, 2**64 - 1),
)
def test_walk_counts_equal_the_stop_tally_of_every_stage(name, theta, sigma_ratio, chunk, seed):
    """Each chunk's stop counts, kept as the stopped walk goes, are the
    stop tally of the codes of the walk that decides every replicate at
    every stage."""
    plan = WALK_PLANS[name]
    plan_sigma = getattr(plan, "sigma", 1.0)
    mu, sigma = plan.gamma + theta * plan_sigma, sigma_ratio * plan_sigma
    with mock.patch.object(sim, "_CHUNK", chunk):
        counted = sim._stage_pass(plan, mu, sigma, 900, seed)
        walked = sim._stage_pass(plan, mu, sigma, 900, seed, stop_tally)
    # chunks of at most _CHUNK rows, fewer where several threads split them
    assert len(counted) == len(walked) >= -(-900 // chunk)
    for (stops, accepted), (tallied, tallied_accepted) in zip(counted, walked):
        assert (stops.tolist(), accepted) == (tallied.tolist(), tallied_accepted)


@pytest.mark.parametrize("stop", [True, False])
def test_open_final_stage_fails_in_either_walk(stop):
    last = PLAN.stages[-1]
    open_plan = replace(PLAN, stages=PLAN.stages[:-1] + (Stage(n=last.n, a=-1.0, b=1.0),))
    with pytest.raises(SeqnormError, match="final stage failed to decide"):
        sim._stage_pass(open_plan, 0.0, 1.0, 1000, 1, None if stop else stop_tally)


# recorded from the pass that drew and decided every stage of every
# replicate, before the walk learnt to stop; the unknown-variance bench
# oracle compares these sums with the certified envelopes
TRANSITION_SUMS = {
    ("plan", 4): "TransitionSums(replications=20000, reject_sum=0.37475, "
    "reject_se=0.003626378617160651, accept_sum=0.6922, accept_se=0.0036121957311308584, seed=4)",
    ("plan", 19): "TransitionSums(replications=20000, reject_sum=0.3767, "
    "reject_se=0.003639348224613853, accept_sum=0.68805, accept_se=0.0035988692495004596, seed=19)",
    ("straddle", 4): "TransitionSums(replications=20000, reject_sum=0.7096, "
    "reject_se=0.0035669864031139787, accept_sum=0.36265, accept_se=0.0036127204258010336, seed=4)",
    ("straddle", 19): "TransitionSums(replications=20000, reject_sum=0.71625, "
    "reject_se=0.003559044376655059, accept_sum=0.3591, accept_se=0.0036079578018596617, seed=19)",
}


@pytest.mark.parametrize("name, seed", sorted(TRANSITION_SUMS))
def test_transition_sums_keep_their_values(name, seed):
    plan, mu, sigma = {"plan": (PLAN, -0.1, 1.0), "straddle": (STRADDLE, 0.05, 1.2)}[name]
    got = mc_transition_sums(plan, mu, sigma, 20_000, seed)
    assert repr(got) == TRANSITION_SUMS[name, seed]


@pytest.mark.parametrize("theta", [-50.0, -0.5, 0.2])
def test_only_replicates_still_sampling_draw_a_block(theta, monkeypatch):
    """Each stage block is drawn, and its sum of squares computed, for the
    replicates that reach its stage and no others; the transition walk draws
    every block of every replicate.  REPLAY_PLANS["unknown"] draws each
    chi-square directly; MIXED also draws a squared normal, nothing, and a
    Marsaglia-Tsang block, whose ``_chi_square`` rows are checked too."""
    drawn, square_rows, chi_rows = [], [], []
    block_draw, chi_square = sim._block_draw, sim._chi_square

    def recording_block(words, live, i, *rest):
        sums, squares = block_draw(words, live, i, *rest)
        drawn.append(i)
        square_rows.append(len(squares))
        return sums, squares

    def recording_chi_square(df, window):
        chi_rows.append(len(window))
        return chi_square(df, window)

    monkeypatch.setattr(sim, "_block_draw", recording_block)
    monkeypatch.setattr(sim, "_chi_square", recording_chi_square)
    # fewer replicates than _CHUNK: one chunk, so the records come in stage order
    reps = 5000
    for plan, dfs in ((REPLAY_PLANS["unknown"], [3, 3, 7]), (MIXED, [1, 0, 2, 5, 11])):
        assert [dn - 1 for dn, _ in sim._blocks(plan)[0]] == dfs
        tried = [i for i, df in enumerate(dfs) if (df + 1) // 2 > 2 * sim._TRIES + 1]
        for record in (drawn, square_rows, chi_rows):
            record.clear()
        rep = simulate_plan(plan, theta, 1.0, reps, 2)
        reaching = [sum(rep.stage_histogram[i:]) for i in range(plan.num_stages)]
        stages = [i for i, count in enumerate(reaching) if count]
        assert drawn == stages
        assert square_rows == reaching[: len(stages)]
        assert chi_rows == [reaching[i] for i in tried if i in stages]
        if theta == -50.0:
            assert drawn == [0]
        else:
            # the Marsaglia-Tsang block is drawn for some replicates, not all
            assert all(0 < rows < reps for rows in chi_rows) and len(chi_rows) == len(tried)
        for record in (drawn, square_rows, chi_rows):
            record.clear()
        mc_transition_sums(plan, theta, 1.0, reps, 2)
        assert drawn == list(range(plan.num_stages))
        assert square_rows == [reps] * plan.num_stages
        assert chi_rows == [reps] * len(tried)


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
