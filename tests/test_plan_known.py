"""Known-variance plan construction, decisions, and bound evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqnorm.errors import DomainError, InsufficientDataError
from seqnorm.plan_known import (
    Decision,
    Stage,
    build_known_plan,
    decide_stage,
    oc_upper_phi,
)
from seqnorm.plan_unknown import build_unknown_plan
from seqnorm.runner import _json_equal, plan_to_dict
from seqnorm.special import std_normal_cdf, std_normal_critical


def reference_sizes(alpha, beta, epsilon, zeta, rho, tau):
    """Recompute the stage ladder with an independent bisection for z."""

    def z_of(d):
        lo, hi = -20.0, 20.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if 1.0 - std_normal_cdf(mid) > d:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    base = (z_of(zeta * alpha) + z_of(zeta * beta)) ** 2 / (4 * epsilon**2)
    return sorted({max(1, math.ceil(base * (1 + rho) ** (i - tau))) for i in range(1, tau + 1)})


class TestBuild:
    def test_pinned_three_stage_example(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=1.0, tau=3)
        assert plan.sizes == (3, 6, 11)
        assert plan.sizes == tuple(reference_sizes(0.05, 0.05, 0.5, 1.0, 1.0, 3))

    def test_symmetric_center(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=1.0, tau=3)
        assert plan.theta_star == 0.0

    def test_duplicate_sizes_collapse(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=0.01, tau=2)
        assert plan.sizes == (11,)
        assert plan.num_stages == 1 < plan.tau

    def test_final_stage_always_decides(self):
        for zeta in (1.0, 0.5, 1 / 3, 0.11):
            plan = build_known_plan(0.04, 0.08, 0.4, 0.0, 1.0, zeta=zeta, rho=0.7, tau=4)
            last = plan.stages[-1]
            assert last.a == last.b == pytest.approx(plan.theta_star, abs=1e-12)

    def test_thresholds_recompute_bit_for_bit(self):
        plan = build_known_plan(0.03, 0.07, 0.6, 1.5, 2.0, zeta=0.4, rho=0.5, tau=4)
        z_a = std_normal_critical(plan.zeta * plan.alpha)
        z_b = std_normal_critical(plan.zeta * plan.beta)
        for stage in plan.stages:
            root = plan.epsilon * math.sqrt(stage.n)
            assert stage.a == min(plan.theta_star, root - z_b)
            assert stage.b == max(plan.theta_star, z_a - root)

    def test_sizes_strictly_increase_and_thresholds_ordered(self):
        plan = build_known_plan(0.05, 0.01, 0.3, 0.0, 1.0, zeta=0.2, rho=0.6, tau=5)
        assert all(b > a for a, b in zip(plan.sizes, plan.sizes[1:]))
        assert all(s.a <= s.b for s in plan.stages)

    def test_domain_validation(self):
        good = dict(alpha=0.05, beta=0.05, epsilon=0.5, gamma=0.0, sigma=1.0,
                    zeta=1.0, rho=1.0, tau=3)
        for key, bad in (
            ("alpha", 0.0), ("beta", 1.0), ("epsilon", -1.0), ("sigma", 0.0),
            ("zeta", 0.0), ("zeta", 1.5), ("rho", 0.0), ("tau", 0),
            ("tau", 1001), ("tau", math.nan), ("tau", math.inf),
        ):
            kwargs = dict(good)
            kwargs[key] = bad
            with pytest.raises(DomainError):
                build_known_plan(**kwargs)
        with pytest.raises(DomainError):
            build_known_plan(0.5, 0.5, 0.5, 0.0, 1.0, zeta=2.5, rho=1.0, tau=3)

    def test_mirror_swaps_thresholds(self):
        plan = build_known_plan(0.03, 0.09, 0.5, 0.0, 1.0, zeta=0.3, rho=1.0, tau=3)
        mirrored = plan.mirror()
        assert mirrored.sizes == plan.sizes
        for s, m in zip(plan.stages, mirrored.stages):
            assert m.a == pytest.approx(-s.b, abs=1e-12)
            assert m.b == pytest.approx(-s.a, abs=1e-12)


def build(kind, alpha, beta, epsilon, gamma, sigma, zeta, rho, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clipped unknown sizes
        if kind == "known":
            return build_known_plan(alpha, beta, epsilon, gamma, sigma, zeta, rho, tau)
        return build_unknown_plan(alpha, beta, epsilon, gamma, zeta, rho, tau)


probabilities = st.floats(0.005, 0.4)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["known", "unknown"]),
    alpha=probabilities,
    beta=st.none() | probabilities,
    epsilon=st.floats(0.3, 3.0),
    gamma=st.floats(-5.0, 5.0),
    sigma=st.floats(0.1, 5.0),
    zeta=st.floats(0.05, 1.0),
    rho=st.floats(0.1, 8.0),
    tau=st.integers(1, 8),
    certified=st.booleans(),
)
@example("known", 0.05, None, 0.5, 0.0, 1.0, 1 / 3, 1.0, 3, True)  # alpha == beta
@example("unknown", 0.05, None, 2.0, 0.0, 1.0, 0.9, 1.0, 5, True)  # sizes clipped to 2
def test_mirror_is_the_swapped_build(
    kind, alpha, beta, epsilon, gamma, sigma, zeta, rho, tau, certified
):
    # None draws alpha == beta, whose zero final thresholds must stay +0.0
    beta = alpha if beta is None else beta
    plan = build(kind, alpha, beta, epsilon, gamma, sigma, zeta, rho, tau)
    plan = plan.with_certified(certified)
    swapped = build(kind, beta, alpha, epsilon, gamma, sigma, zeta, rho, tau)
    mirrored = plan.mirror()
    assert repr(mirrored) == repr(swapped)
    assert _json_equal(plan_to_dict(mirrored), plan_to_dict(swapped))
    assert repr(mirrored.mirror()) == repr(plan.with_certified(False))


class TestDecide:
    STAGE = Stage(n=5, a=-0.8, b=0.9)

    def test_accept_inclusive(self):
        assert decide_stage(-0.8, self.STAGE) == Decision.ACCEPT

    def test_reject_strict(self):
        assert decide_stage(0.9, self.STAGE) == Decision.CONTINUE
        assert decide_stage(0.9 + 1e-12, self.STAGE) == Decision.REJECT

    def test_continue_between(self):
        assert decide_stage(0.0, self.STAGE) == Decision.CONTINUE

    def test_coincident_thresholds_always_decide(self):
        stage = Stage(n=9, a=0.25, b=0.25)
        for t in (-1.0, 0.25, 0.2500001, 3.0):
            assert decide_stage(t, stage) != Decision.CONTINUE


def statistic_known(samples, n, gamma, sigma):
    plan = build_known_plan(0.05, 0.05, 0.5, gamma, sigma, zeta=1 / 3, rho=1.0, tau=3)
    return plan.statistic(samples, n)


class TestStatistic:
    def test_centered_samples_give_zero(self):
        assert statistic_known([2.0] * 6, 4, gamma=2.0, sigma=3.0) == 0.0

    def test_direct_formula(self):
        # n = 4, mean = gamma + sigma
        samples = [1.0 + 2.0] * 4
        assert statistic_known(samples, 4, gamma=1.0, sigma=2.0) == pytest.approx(2.0)

    def test_matches_naive_two_pass(self):
        rng = np.random.default_rng(7)
        samples = list(rng.normal(1.3, 0.7, size=50))
        n, gamma, sigma = 37, 1.1, 0.7
        naive = math.sqrt(n) * (sum(samples[:n]) / n - gamma) / sigma
        assert statistic_known(samples, n, gamma, sigma) == pytest.approx(naive, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            statistic_known([1.0, 2.0], 3, 0.0, 1.0)


class TestEnvelope:
    def test_single_stage_reduction(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=0.01, tau=2)
        assert plan.num_stages == 1
        for theta in (-1.0, -0.5, 0.3):
            expected = std_normal_cdf(math.sqrt(plan.sizes[0]) * theta - plan.stages[0].b)
            assert oc_upper_phi(theta, plan) == pytest.approx(expected, abs=1e-12)

    def test_vanishes_far_left(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)
        assert oc_upper_phi(-50.0, plan) <= 1e-12

    def test_symmetric_design_mirrors(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)
        mirrored = plan.mirror()
        for theta in (-2.0, -0.5, -0.6):
            assert oc_upper_phi(theta, plan) == pytest.approx(
                oc_upper_phi(theta, mirrored), abs=1e-12
            )


class TestBounds:
    PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_members_call_the_envelope_functions(self):
        # the closed-form envelope is a point interval, and the certificate
        # is the plan's and the mirror plan's envelope at -epsilon
        phi = oc_upper_phi(-0.7, self.PLAN)
        assert self.PLAN.envelope(-0.7) == (phi, phi)
        assert self.PLAN.certify() == (
            oc_upper_phi(-0.5, self.PLAN),
            oc_upper_phi(-0.5, self.PLAN.mirror()),
        )

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    @pytest.mark.parametrize("beta, envelopes", [(0.05, 1), (0.10, 2)])
    def test_self_mirror_certifies_with_one_envelope(self, monkeypatch, kind, beta, envelopes):
        # an alpha = beta plan is its own mirror, so bound_b is bound_a
        if kind == "known":
            plan = build_known_plan(0.05, beta, 0.5, 0.0, 1.0, zeta=0.45, rho=1.0, tau=3)
        else:
            plan = build_unknown_plan(0.05, beta, 0.5, 0.0, zeta=0.45, rho=1.0, tau=3)
        mirror = plan.mirror()
        expected = (plan.envelope(-0.5, 1e-4, 16)[1], mirror.envelope(-0.5, 1e-4, 16)[1])
        assert (repr(mirror) == repr(plan)) == (beta == 0.05)
        calls = []
        envelope = type(plan).envelope

        def counted(self, *args):
            calls.append(self)
            return envelope(self, *args)

        monkeypatch.setattr(type(plan), "envelope", counted)
        assert list(map(repr, plan.certify(1e-4, 16))) == list(map(repr, expected))
        assert len(calls) == envelopes

    def test_far_field_lower(self):
        lo, hi = self.PLAN.oc_bounds(-50.0)
        assert lo >= 1.0 - 1e-10
        assert hi == 1.0

    def test_symmetric_mirror_relation(self):
        for theta in (0.5, 0.8, 1.5):
            lo_neg, _ = self.PLAN.oc_bounds(-theta)
            _, hi_pos = self.PLAN.oc_bounds(theta)
            assert lo_neg == pytest.approx(1.0 - hi_pos, abs=1e-9)

    def test_indifference_zone_rejected(self):
        with pytest.raises(DomainError):
            self.PLAN.oc_bounds(0.2)

    def test_nonunit_scale_conversion(self):
        # bounds are stated in theta = (mu - gamma) / sigma, so they do not
        # depend on the plan's gamma and sigma
        plan = build_known_plan(0.05, 0.05, 0.5, 10.0, 2.0, zeta=1 / 3, rho=1.0, tau=3)
        lo_scaled, hi_scaled = plan.oc_bounds(-0.5)
        lo_unit, hi_unit = self.PLAN.oc_bounds(-0.5)
        assert lo_scaled == pytest.approx(lo_unit, abs=1e-12)
        assert hi_scaled == pytest.approx(hi_unit, abs=1e-12)


class TestBoundValidityAgainstMC:
    def test_acceptance_rate_respects_bounds(self, known_plan):
        from seqnorm.simulate import simulate_plan

        reps = 10**5
        for theta in (-1.2, -0.7, 0.7, 1.2):
            rep = simulate_plan(known_plan, mu=theta, sigma=1.0, replications=reps, seed=808)
            se = math.sqrt(max(rep.accept_rate * (1 - rep.accept_rate), 1e-12) / reps)
            lo, hi = known_plan.oc_bounds(theta)
            assert rep.accept_rate >= lo - 4 * se
            assert rep.accept_rate <= hi + 4 * se


class TestSampleTail:
    PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_formula(self):
        stage = self.PLAN.stages[0]
        for theta in (-0.5, 0.0, 0.7):
            root = math.sqrt(stage.n) * theta
            expected = std_normal_cdf(stage.b - root) - std_normal_cdf(stage.a - root)
            assert self.PLAN.sample_tail(1, theta) == pytest.approx(expected)

    def test_coincident_thresholds_give_zero(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1.0, rho=3.0, tau=3)
        # find a stage (if any) with a == b; otherwise synthesize via theta far out
        assert plan.sample_tail(1, 80.0) <= 1e-12
        assert plan.sample_tail(1, -80.0) <= 1e-12

    def test_final_stage_rejected(self):
        s = self.PLAN.num_stages
        with pytest.raises(DomainError):
            self.PLAN.sample_tail(s, 0.0)
        with pytest.raises(DomainError):
            self.PLAN.sample_tail(0, 0.0)
