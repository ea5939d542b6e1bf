"""Known-variance plan construction, decisions, and bound evaluation."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqnorm.calibrate import calibrate_known, calibrate_unknown
from seqnorm import plan_known
from seqnorm.errors import DomainError
from seqnorm.plan_known import (
    Decision,
    KnownVarPlan,
    Stage,
    build_known_plan,
    decision_code,
    oc_upper_phi,
)
from seqnorm.plan_unknown import build_unknown_plan, min_stage_size
from seqnorm.runner import _json_equal, plan_to_dict
from seqnorm.special import std_normal_cdf, std_normal_critical, student_t_critical

from oracles import reference_oc_upper_phi


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


# a design value that does not compare with numbers, and the message it gets
NON_NUMERIC = [
    ("alpha", "0.05", "alpha must be a finite real, got '0.05'"),
    ("beta", None, "beta must be a finite real, got None"),
    ("epsilon", [1.0], "epsilon must be a finite real, got [1.0]"),
    ("rho", "1", "rho must be a finite real, got '1'"),
    ("zeta", None, "zeta must be a finite real, got None"),
    ("tau", "3", "tau must be an integer, got '3'"),
    ("tau", [3], "tau must be an integer, got [3]"),
]

# float() reads a bool as 0 or 1, and operator.index too; both are refused.
# Kept apart from NON_NUMERIC and listed last, so that the cases above keep
# their parameter indices
BOOLEAN = [
    ("alpha", True, "alpha must be a finite real, got True"),
    ("tau", True, "tau must be an integer, got True"),
]

# gamma and sigma, which only the builders take (build_unknown_plan no sigma)
BUILDER_NON_NUMERIC = [
    (entry, *case)
    for entry in ("build_known_plan", "build_unknown_plan")
    for case in (
        ("gamma", "0", "gamma must be a finite real, got '0'"),
        ("gamma", None, "gamma must be a finite real, got None"),
    )
] + [
    ("build_known_plan", "sigma", "1.0", "sigma must be a finite real, got '1.0'"),
    ("build_known_plan", "sigma", None, "sigma must be a finite real, got None"),
]

# min_stage_size takes no rho or tau, and calibration searches zeta
ENTRIES = {
    "build_known_plan": {"alpha", "beta", "epsilon", "zeta", "rho", "tau"},
    "build_unknown_plan": {"alpha", "beta", "epsilon", "zeta", "rho", "tau"},
    "min_stage_size": {"alpha", "beta", "epsilon", "zeta"},
    "calibrate_known": {"alpha", "beta", "epsilon", "rho", "tau"},
    "calibrate_unknown": {"alpha", "beta", "epsilon", "rho", "tau"},
}


@pytest.mark.parametrize("entry, key, bad, message", [
    (entry, *case) for entry, keys in ENTRIES.items() for case in NON_NUMERIC if case[0] in keys
] + BUILDER_NON_NUMERIC + [
    (entry, *case) for entry, keys in ENTRIES.items() for case in BOOLEAN if case[0] in keys
])
def test_non_numeric_design_value_is_a_domain_error(entry, key, bad, message):
    design = dict(alpha=0.05, beta=0.05, epsilon=0.5, zeta=0.5, rho=1.0, tau=3)
    design[key] = bad
    calls = {
        "build_known_plan": lambda d: build_known_plan(**{"gamma": 0.0, "sigma": 1.0, **d}),
        "build_unknown_plan": lambda d: build_unknown_plan(**{"gamma": 0.0, **d}),
        "min_stage_size": lambda d: min_stage_size(d["alpha"], d["beta"], d["epsilon"], d["zeta"]),
        "calibrate_known": lambda d: calibrate_known(
            d["alpha"], d["beta"], d["epsilon"], d["rho"], d["tau"]),
        "calibrate_unknown": lambda d: calibrate_unknown(
            d["alpha"], d["beta"], d["epsilon"], d["rho"], d["tau"], cell_budget=4),
    }
    with pytest.raises(DomainError) as err:
        calls[entry](design)
    assert str(err.value) == message


def build(kind, alpha, beta, epsilon, gamma, sigma, zeta, rho, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clipped unknown sizes
        if kind == "known":
            return build_known_plan(alpha, beta, epsilon, gamma, sigma, zeta, rho, tau)
        return build_unknown_plan(alpha, beta, epsilon, gamma, zeta, rho, tau)


def threshold_repr(plan):
    return repr([plan.theta_star, *[(s.a, s.b) for s in plan.stages]])


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
    # certify tells a plan that is its own mirror without building the mirror
    own = plan.alpha == plan.beta and threshold_repr(mirrored) == threshold_repr(plan)
    assert plan._is_own_mirror() == own


def decide(t, stage):
    return Decision(decision_code(t, stage.a, stage.b))


class TestDecide:
    STAGE = Stage(n=5, a=-0.8, b=0.9)

    def test_accept_inclusive(self):
        assert decide(-0.8, self.STAGE) == Decision.ACCEPT

    def test_reject_strict(self):
        assert decide(0.9, self.STAGE) == Decision.CONTINUE
        assert decide(0.9 + 1e-12, self.STAGE) == Decision.REJECT

    def test_continue_between(self):
        assert decide(0.0, self.STAGE) == Decision.CONTINUE

    def test_coincident_thresholds_always_decide(self):
        stage = Stage(n=9, a=0.25, b=0.25)
        for t in (-1.0, 0.25, 0.2500001, 3.0):
            assert decide(t, stage) != Decision.CONTINUE


def statistic_known(samples, n, gamma, sigma):
    """The plan's stage statistic of the first n samples, at scalar n."""
    plan = build_known_plan(0.05, 0.05, 0.5, gamma, sigma, zeta=1 / 3, rho=1.0, tau=3)
    return plan.stage_statistics(math.fsum(samples[:n]), None, n)


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


# the known-cli benchmark's design grid: alpha, beta, rho, tau
KNOWN_GRID = list(itertools.product(
    (0.01, 0.025, 0.05, 0.1), (0.01, 0.025, 0.05, 0.1), (0.5, 1.0), (2, 3, 4, 5)
))


def test_envelope_keeps_the_per_region_bits():
    # oc_upper_phi computes what a stage's two cones share once for both
    # kernel calls; the reference recomputes it for every cone, so a kernel
    # fed another pair's shared values differs somewhere on this grid
    differ = []
    cases = 0
    for (alpha, beta, rho, tau), epsilon, zeta in itertools.product(
        KNOWN_GRID, (0.1, 0.33, 0.6), (0.1, 0.3, 0.7, 1.0)
    ):
        plan = build_known_plan(alpha, beta, epsilon, 0.0, 1.0, zeta, rho, tau)
        for p, m in itertools.product((plan, plan.mirror()), (-3, -1, 0, 1, 3)):
            theta = m * epsilon
            cases += 1
            if repr(oc_upper_phi(theta, p)) != repr(reference_oc_upper_phi(theta, p)):
                differ.append((alpha, beta, rho, tau, epsilon, zeta, p is plan, theta))
    assert cases == 15_360
    assert differ == []


@pytest.mark.parametrize("theta, stage, n", [(-1.7e308, 1, 5), (5e307, 3, 17), (-5e307, 3, 17)])
def test_overflowing_theta_names_theta_and_stage(theta, stage, n):
    plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, 0.45499674479166663, 1.0, 3)
    assert plan.sizes == (5, 9, 17)
    message = (
        f"|theta| = {abs(theta)!r} is too large: the stage {stage} term (n = {n}) "
        "overflows double precision"
    )
    with pytest.raises(DomainError) as err:
        oc_upper_phi(theta, plan)
    assert str(err.value) == message


def _nudged(x, ulps):
    """x moved by |ulps| ulps, down when ulps < 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["known", "unknown"]),
    alpha=st.sampled_from([0.01, 0.025, 0.05, 0.1]),
    beta=st.sampled_from([0.01, 0.025, 0.05, 0.1]),
    zeta=st.sampled_from([1.0, 0.7, 0.5, 0.3]),
    rho=st.sampled_from([0.5, 1.0]),
    tau=st.integers(1, 5),
    k=st.integers(2, 300),
    ulps=st.integers(-2, 2),
)
@example(kind="known", alpha=0.05, beta=0.05, zeta=0.3, rho=1.0, tau=3, k=3, ulps=-1)
@example(kind="unknown", alpha=0.025, beta=0.1, zeta=0.5, rho=0.5, tau=4, k=104, ulps=0)
def test_final_stage_closes_by_construction(kind, alpha, beta, zeta, rho, tau, k, ulps):
    """epsilon within two ulps of (c_a + c_b) / (2 r), where the thresholds
    of stage size k meet: c is z (known) or t_{k-1} (unknown), r is sqrt(k)
    or sqrt(k - 1).  The final stage closes, a == b, and every earlier stage
    keeps the min/max formula.  Both examples give a < b by an ulp or two
    when the final stage too goes through min/max."""
    if kind == "known":
        def crit(n, delta):
            return std_normal_critical(delta)

        def root(n):
            return math.sqrt(n)

        def scale(n):  # theta* is on the statistic's scale
            return 1.0
    else:
        def crit(n, delta):
            return student_t_critical(n - 1, delta)

        def root(n):
            return math.sqrt(n - 1)

        scale = root
    c_a, c_b = crit(k, zeta * alpha), crit(k, zeta * beta)
    epsilon = _nudged((c_a + c_b) / (2.0 * root(k)), ulps)
    plan = build(kind, alpha, beta, epsilon, 0.0, 1.0, zeta, rho, tau)
    last = plan.stages[-1]
    assert last.a == last.b == plan.theta_star * scale(last.n)
    for stage in plan.stages[:-1]:
        r, scaled = root(stage.n), plan.theta_star * scale(stage.n)
        assert stage.a == min(scaled, epsilon * r - crit(stage.n, zeta * beta))
        assert stage.b == max(scaled, crit(stage.n, zeta * alpha) - epsilon * r)


def _edited(plan, sizes=None, final=None):
    """plan's stages with sizes in place of theirs, or the final stage's a moved."""
    stages = [
        Stage(n=n, a=s.a, b=s.b) for n, s in zip(sizes or plan.sizes, plan.stages)
    ]
    if final is not None:
        stages[-1] = Stage(n=stages[-1].n, a=stages[-1].a + final, b=stages[-1].b)
    return tuple(stages)


@pytest.mark.parametrize("kind", ["known", "unknown"])
@pytest.mark.parametrize("edit, message", [
    (lambda plan: (), r"^plan has no stages$"),
    (lambda plan: _edited(plan, sizes=(5, 5, 17)), r"^stage sizes must increase, got 5 then 5$"),
    (lambda plan: _edited(plan, sizes=(5, 9, 7)), r"^stage sizes must increase, got 9 then 7$"),
    (lambda plan: _edited(plan, final=-1.0),
     r"^the final stage must decide: a=-1\.0 != b=0\.0$"),
], ids=["no-stages", "equal-sizes", "decreasing-sizes", "open-final"])
def test_plan_refuses_what_breaks_its_contract(kind, edit, message):
    # the builders never make such stages; a hand-made plan is refused when
    # it is made, by the constructor and by dataclasses.replace alike
    plan = build(kind, 0.05, 0.05, 0.5, 0.0, 1.0, 0.45, 1.0, 3)
    assert plan.stages[-1].a == plan.stages[-1].b == 0.0
    stages = edit(plan)
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(plan, stages=stages)
    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    with pytest.raises(DomainError, match=message):
        type(plan)(**{**fields, "stages": stages})


@pytest.mark.parametrize("kind, edit, message", [
    ("known", lambda plan: {"sigma": -1.0}, r"^sigma must be positive and finite, got -1\.0$"),
    ("known", lambda plan: {"sigma": 0.0}, r"^sigma must be positive and finite, got 0\.0$"),
    ("known", lambda plan: {"sigma": math.nan}, r"^sigma must be positive and finite, got nan$"),
    ("known", lambda plan: {"sigma": math.inf}, r"^sigma must be positive and finite, got inf$"),
    ("unknown", lambda plan: {"stages": _edited(plan, sizes=(1, *plan.sizes[1:]))},
     r"^unknown-variance plans need stage sizes >= 2$"),
    ("known", lambda plan: {"sigma": "1"}, r"^sigma must be a finite real, got '1'$"),
], ids=["negative-sigma", "zero-sigma", "nan-sigma", "inf-sigma", "unknown-first-size-1",
        "str-sigma"])
def test_plan_refuses_what_its_statistic_cannot_serve(kind, edit, message):
    # a negative sigma flips every statistic's sign and a NaN one zeroes it;
    # one sample has no sample deviation
    plan = build(kind, 0.05, 0.05, 0.5, 0.0, 1.0, 0.45, 1.0, 3)
    change = edit(plan)
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(plan, **change)
    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    with pytest.raises(DomainError, match=message):
        type(plan)(**{**fields, **change})


# recorded under numpy 2.4.6 and scipy 1.17.1, with 16 cells and tail mass 1e-4
OC_BOUNDS = {
    ("known", -0.7): "(0.9868667245122833, 1.0)",
    ("known", -0.5): "(0.9486372718935067, 1.0)",
    ("known", 0.5): "(0.0, 0.09775522960829222)",
    ("known", 0.7): "(0.0, 0.02921226579767647)",
    ("unknown", -0.7): "(0.9873551339351535, 1.0)",
    ("unknown", -0.5): "(0.9461004233738002, 1.0)",
    ("unknown", 0.5): "(0.0, 0.12276627842605499)",
    ("unknown", 0.7): "(0.0, 0.0367418878272281)",
}


@pytest.mark.parametrize("kind, theta", list(OC_BOUNDS))
def test_oc_bounds_keep_their_bits(kind, theta):
    # both sides of the indifference zone: the plan's own envelope below it,
    # the mirror plan's above it, of an alpha != beta design
    builds = {"numpy": np.__version__, "scipy": scipy.__version__}
    if builds != {"numpy": "2.4.6", "scipy": "1.17.1"}:
        pytest.skip(f"oc bounds recorded with numpy 2.4.6, scipy 1.17.1, running {builds}")
    if kind == "known":
        plan = build_known_plan(0.05, 0.10, 0.5, 0.0, 1.0, zeta=0.45, rho=0.5, tau=4)
    else:
        plan = build_unknown_plan(0.05, 0.10, 0.5, 0.0, 0.7033882181678947, 0.5, 4)
    [bounds] = plan.oc_bounds([theta], 1e-4, 16)
    assert repr(bounds) == OC_BOUNDS[kind, theta]


class TestBounds:
    PLAN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_members_call_the_envelope_functions(self):
        # the closed-form envelope is a point interval, and the certificate
        # is the plan's and the mirror plan's envelope at -epsilon
        phi = oc_upper_phi(-0.7, self.PLAN)
        assert self.PLAN.envelopes([(-0.7, self.PLAN)]) == [(phi, phi)]
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
        [(_, own), (_, mirrored)] = [p.envelopes([(-0.5, p)], 1e-4, 16)[0] for p in (plan, mirror)]
        expected = (own, mirrored)
        assert (repr(mirror) == repr(plan)) == (beta == 0.05)
        calls = []
        if kind == "known":
            # the closed form runs on stage rows: one phi per envelope, and
            # neither an envelopes call nor a mirror plan
            phi = plan_known._phi

            def counted_phi(theta, rows):
                calls.append(rows)
                return phi(theta, rows)

            def refused(*args):
                raise AssertionError("certify went through a plan")

            monkeypatch.setattr(plan_known, "_phi", counted_phi)
            monkeypatch.setattr(KnownVarPlan, "envelopes", staticmethod(refused))
            monkeypatch.setattr(KnownVarPlan, "mirror", refused)
            assert list(map(repr, plan.certify(1e-4, 16))) == list(map(repr, expected))
            assert len(calls) == envelopes
            return
        envelopes_of_kind = type(plan).envelopes

        def counted(pairs, *args):
            calls.append(pairs)
            return envelopes_of_kind(pairs, *args)

        monkeypatch.setattr(type(plan), "envelopes", staticmethod(counted))
        assert list(map(repr, plan.certify(1e-4, 16))) == list(map(repr, expected))
        # one envelopes call, for the plan and, unless it is its own, its mirror
        assert len(calls) == 1
        assert len(calls[0]) == envelopes

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    def test_envelopes_of_mixed_pairs_are_one_pair_calls(self, kind):
        # several thetas, the plan and its mirror, and a pair given twice, in
        # one call: each bracket is the one its pair gets alone
        plan = build(kind, 0.05, 0.10, 0.5, 0.0, 1.0, 0.45, 0.5, 4)
        mirror = plan.mirror()
        pairs = [(-0.5, plan), (-0.9, mirror), (-0.5, mirror), (-2.0, plan), (-0.5, plan)]
        alone = [type(plan).envelopes([pair], 1e-4, 16)[0] for pair in pairs]
        assert list(map(repr, type(plan).envelopes(pairs, 1e-4, 16))) == list(map(repr, alone))

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    @pytest.mark.parametrize("pairs, message", [
        (1.5, "pairs must be an iterable, got 1.5"),
        (None, "pairs must be an iterable, got None"),
        ([(-0.5,)], "each pair must be (theta, plan), got tuple of length 1"),
        ([-0.5], "each pair must be (theta, plan), got float"),
        # pairs are taken in order, so the first failing pair's error wins
        ([(-0.5,), (-1e200, "plan")], "each pair must be (theta, plan), got tuple of length 1"),
        ([(-1e200, "plan"), (-0.5,)], "plan must be an instance of {}, got str"),
    ], ids=["float", "none", "short-pair", "bare-theta", "short-then-str", "str-then-short"])
    def test_envelopes_refuse_a_malformed_request(self, kind, pairs, message):
        cls = type(build(kind, 0.05, 0.10, 0.5, 0.0, 1.0, 0.45, 0.5, 4))
        with pytest.raises(DomainError) as err:
            cls.envelopes(pairs, 1e-4, 16)
        assert str(err.value) == message.format(cls.__name__)

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    def test_oc_bounds_make_one_envelopes_call(self, monkeypatch, kind):
        # a grid on both sides of the zone: one envelopes call, one mirror
        plan = build(kind, 0.05, 0.10, 0.5, 0.0, 1.0, 0.45, 0.5, 4)
        thetas = [-1.0, 0.6, -0.5, 1.5, 0.5]
        expected = [plan.oc_bounds([theta], 1e-4, 16)[0] for theta in thetas]
        calls, mirrors = [], []
        envelopes_of_kind, mirror = type(plan).envelopes, type(plan).mirror

        def counted(pairs, *args):
            calls.append(pairs)
            return envelopes_of_kind(pairs, *args)

        def counted_mirror(self):
            mirrors.append(self)
            return mirror(self)

        monkeypatch.setattr(type(plan), "envelopes", staticmethod(counted))
        monkeypatch.setattr(type(plan), "mirror", counted_mirror)
        assert list(map(repr, plan.oc_bounds(thetas, 1e-4, 16))) == list(map(repr, expected))
        assert (len(calls), len(calls[0]), len(mirrors)) == (1, 5, 1)
        plan.oc_bounds([-1.0, -0.5], 1e-4, 16)
        assert len(mirrors) == 1  # thetas below the zone need no mirror

    def test_oc_bounds_of_no_thetas(self):
        assert self.PLAN.oc_bounds([]) == []

    @pytest.mark.parametrize("thetas, message", [
        (1.5, "thetas must be an iterable, got 1.5"),
        (None, "thetas must be an iterable, got None"),
        ([-0.6, 0.1, 0.2], "theta=0.1 lies inside the indifference zone; no bound is stated there"),
        ([-0.6, "a", 0.1], "theta must be a finite real, got 'a'"),
        # a later theta's refusal waits for the envelopes of the ones before it
        ([-1e308, 0.1], "|theta| = 1e+308 is too large: the stage 1 term (n = 5) overflows "
                        "double precision"),
        ([math.nan, 0.1], "theta must be finite, got nan"),
        ([-0.6, 0.0, -1e308], "theta=0.0 lies inside the indifference zone; no bound is stated "
                              "there"),
        # text is read whole, not as a theta per character or byte
        ("ab", "thetas must be an iterable of reals, not text, got str"),
        (b"ab", "thetas must be an iterable of reals, not text, got bytes"),
        (bytearray(b"ab"), "thetas must be an iterable of reals, not text, got bytearray"),
    ], ids=["float", "none", "zone", "str", "overflow-then-zone", "nan-then-zone",
            "zone-then-overflow", "text", "bytes", "bytearray"])
    def test_oc_bounds_refuse_the_first_failing_theta(self, thetas, message):
        with pytest.raises(DomainError) as err:
            self.PLAN.oc_bounds(thetas)
        assert str(err.value) == message

    def test_far_field_lower(self):
        [(lo, hi)] = self.PLAN.oc_bounds([-50.0])
        assert lo >= 1.0 - 1e-10
        assert hi == 1.0

    def test_symmetric_mirror_relation(self):
        for theta in (0.5, 0.8, 1.5):
            [(lo_neg, _)] = self.PLAN.oc_bounds([-theta])
            [(_, hi_pos)] = self.PLAN.oc_bounds([theta])
            assert lo_neg == pytest.approx(1.0 - hi_pos, abs=1e-9)

    def test_indifference_zone_rejected(self):
        with pytest.raises(DomainError):
            self.PLAN.oc_bounds([0.2])

    def test_nonunit_scale_conversion(self):
        # bounds are stated in theta = (mu - gamma) / sigma, so they do not
        # depend on the plan's gamma and sigma
        plan = build_known_plan(0.05, 0.05, 0.5, 10.0, 2.0, zeta=1 / 3, rho=1.0, tau=3)
        [(lo_scaled, hi_scaled)] = plan.oc_bounds([-0.5])
        [(lo_unit, hi_unit)] = self.PLAN.oc_bounds([-0.5])
        assert lo_scaled == pytest.approx(lo_unit, abs=1e-12)
        assert hi_scaled == pytest.approx(hi_unit, abs=1e-12)


class TestBoundValidityAgainstMC:
    def test_acceptance_rate_respects_bounds(self, known_plan):
        from seqnorm.simulate import simulate_plan

        reps = 10**5
        for theta in (-1.2, -0.7, 0.7, 1.2):
            rep = simulate_plan(known_plan, mu=theta, sigma=1.0, replications=reps, seed=808)
            se = math.sqrt(max(rep.accept_rate * (1 - rep.accept_rate), 1e-12) / reps)
            [(lo, hi)] = known_plan.oc_bounds([theta])
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
