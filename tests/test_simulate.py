"""Plan simulation and the test oracles: determinism, chunk invariance,
domain probabilities, decomposition check."""

import math
from dataclasses import replace

import numpy as np
import pytest
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
    grid_domain_prob,
    grid_points,
    mc_domain_prob_many,
    sample_decomposition_check,
    section,
)

PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)


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

    def test_chunks_hold_at_most_2_to_24_samples(self, monkeypatch):
        # n_max 1537: a chunk of 32768 replicates would hold 50 million samples
        plan = build_known_plan(0.05, 0.05, 0.05, 0.0, 1.0, zeta=0.5, rho=1.0, tau=3)
        assert plan.sizes[-1] == 1537
        shapes = []

        class Recorded(Exception):
            pass

        def record(seed, word_start, rows, cols):
            shapes.append((rows, cols))
            raise Recorded

        monkeypatch.setattr(sim, "_normal_block", record)
        with pytest.raises(Recorded):
            simulate_plan(plan, mu=0.0, sigma=1.0, replications=40_000, seed=1)
        assert shapes == [(10894, 1540)]  # 2**24 // 1540 replicates of 1540 words

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=0.0, replications=10, seed=1)
        with pytest.raises(DomainError):
            simulate_plan(PLAN, mu=0.0, sigma=1.0, replications=0, seed=1)

    def test_final_stage_that_does_not_close_is_an_error(self):
        # plan files cannot carry such a stage; a hand-built plan can
        last = PLAN.stages[-1]
        open_plan = replace(PLAN, stages=PLAN.stages[:-1] + (Stage(n=last.n, a=-1.0, b=1.0),))
        with pytest.raises(SeqnormError, match="final stage failed to decide"):
            simulate_plan(open_plan, mu=0.0, sigma=1.0, replications=1000, seed=1)

    def test_matches_known_single_stage_probability(self):
        single = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=0.01, tau=2)
        assert single.num_stages == 1
        theta = -0.5
        rep = simulate_plan(single, mu=theta, sigma=1.0, replications=4 * 10**5, seed=31)
        exact = std_normal_cdf(math.sqrt(single.sizes[0]) * theta - single.stages[0].b)
        assert abs(rep.reject_rate - exact) <= 4 * max(rep.mc_se, 1e-9)


def replicate_samples(plan, mu, sigma, r, seed):
    """Replicate r's samples, as simulate_plan draws them from its stream window."""
    n_max = plan.sizes[-1]
    width = sim._words_per_replicate(n_max)
    z = sim._normal_block(seed, r * width, 1, width)[0, :n_max]
    return list(mu + sigma * z)


REPLAY_PLANS = {
    "known": build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=0.455, rho=1.0, tau=3),
    "known-shifted": build_known_plan(0.05, 0.10, 0.4, 1.3, 0.7, zeta=0.6, rho=0.5, tau=4),
    "unknown": build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.8, rho=1.0, tau=3),
}


@pytest.mark.parametrize("theta, sigma_ratio", [(-0.5, 2.0), (0.7, 2.0), (0.2, 0.5)])
@pytest.mark.parametrize("name", sorted(REPLAY_PLANS))
def test_replicates_reach_the_session_decision(name, theta, sigma_ratio):
    """Replicate r's outcome is what adding it changes in the report; a
    session fed its samples must reach the same stage and decision, also
    when the data's sigma is not the plan's."""
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
            sim._stop_tally(codes)
        return
    hist, accepted = sim._stop_tally(codes)
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
