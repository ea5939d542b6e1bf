"""Every public entry point refuses a bad argument with a SeqnormError.

One argument at a time is set to a value drawn from the whole float range
(NaN and +-inf included), from a range of integers, or from values of the
wrong type: big integers, bools, text, None and a list.  Whatever the
value, the call either returns or raises a SeqnormError, within 5 s.
"""

import dataclasses
import math
import os
import signal
import sys
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqnorm import (
    ConeRegion,
    HyperbolaConeRegion,
    KnownVarPlan,
    SeqnormError,
    Stage,
    UnknownVarPlan,
    build_known_plan,
    build_unknown_plan,
    calibrate_known,
    calibrate_unknown,
    chi_square_cdf,
    chi_square_quantile,
    cone_prob,
    feed,
    hyperbola_cone_prob,
    mc_transition_sums,
    min_stage_size,
    new_session,
    noncentral_t_cdf,
    oc_upper_P,
    oc_upper_phi,
    plan_to_dict,
    save_plan,
    simulate_plan,
    std_normal_cdf,
    std_normal_critical,
    student_t_critical,
)
from seqnorm.runner import session_from_dict, session_to_dict

KNOWN = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, 0.5, 1.0, 3)
UNKNOWN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1 / 3, 1.0, 3)
DESIGN = dict(alpha=0.05, beta=0.05, epsilon=0.5)
BOUNDS = dict(tail_mass=1e-4, cell_budget=4)
SESSION = session_to_dict(new_session(KNOWN, allow_uncertified=True))


def _feed(sample):
    """A fresh session fed its whole first stage of one sample value."""
    session = new_session(KNOWN, allow_uncertified=True)
    return feed(session, [sample] * KNOWN.stages[0].n)


def _envelope(cls):
    """cls.envelopes of the one pair (-0.5, plan), as a function of plan."""
    return lambda plan: cls.envelopes([(-0.5, plan)], **BOUNDS)


def _envelope_of_pair(cls):
    """cls.envelopes of one pair, as a function of that pair."""
    return lambda pair: cls.envelopes([pair], **BOUNDS)


# each entry point with arguments it accepts; the test replaces one of them
ENTRIES = {
    "build_known_plan": (
        build_known_plan, dict(DESIGN, gamma=0.0, sigma=1.0, zeta=0.5, rho=1.0, tau=3)),
    "build_unknown_plan": (build_unknown_plan, dict(DESIGN, gamma=0.0, zeta=0.5, rho=1.0, tau=3)),
    "min_stage_size": (min_stage_size, dict(DESIGN, zeta=0.5)),
    "calibrate_known": (calibrate_known, dict(DESIGN, rho=1.0, tau=3, zeta_tol=1e-4)),
    "calibrate_unknown": (
        calibrate_unknown, dict(DESIGN, rho=1.0, tau=3, zeta_tol=1e-2, **BOUNDS)),
    "known.oc_bounds": (KNOWN.oc_bounds, dict(thetas=[-1.0], **BOUNDS)),
    "unknown.oc_bounds": (UNKNOWN.oc_bounds, dict(thetas=[-1.0], **BOUNDS)),
    "known.envelopes": (_envelope(KnownVarPlan), dict(plan=KNOWN)),
    "unknown.envelopes": (_envelope(UnknownVarPlan), dict(plan=UNKNOWN)),
    "known.envelopes-pair": (_envelope_of_pair(KnownVarPlan), dict(pair=(-0.5, KNOWN))),
    "unknown.envelopes-pair": (_envelope_of_pair(UnknownVarPlan), dict(pair=(-0.5, UNKNOWN))),
    "oc_upper_phi": (oc_upper_phi, dict(theta=-0.5, plan=KNOWN)),
    "oc_upper_P": (partial(oc_upper_P, **BOUNDS), dict(theta=-0.5, plan=UNKNOWN)),
    "known.certify": (KNOWN.certify, BOUNDS),
    "unknown.certify": (UNKNOWN.certify, BOUNDS),
    "known.sample_tail": (KNOWN.sample_tail, dict(ell=1, theta=-0.5)),
    "unknown.sample_tail": (UNKNOWN.sample_tail, dict(ell=1, theta=-0.5)),
    "simulate_plan": (
        simulate_plan, dict(plan=KNOWN, mu=0.0, sigma=1.0, replications=10, seed=1)),
    "mc_transition_sums": (
        mc_transition_sums, dict(plan=UNKNOWN, mu=0.0, sigma=1.0, replications=10, seed=1)),
    "new_session": (partial(new_session, allow_uncertified=True), dict(plan=KNOWN)),
    "plan_to_dict": (plan_to_dict, dict(plan=KNOWN)),
    "save_plan": (partial(save_plan, path=os.devnull), dict(plan=KNOWN)),
    "session_from_dict": (partial(session_from_dict, SESSION), dict(plan=KNOWN)),
    "feed": (_feed, dict(sample=0.1)),
    "std_normal_cdf": (std_normal_cdf, dict(x=0.5)),
    "std_normal_critical": (std_normal_critical, dict(delta=0.05)),
    "student_t_critical": (student_t_critical, dict(dof=5, delta=0.05)),
    "chi_square_cdf": (chi_square_cdf, dict(x=2.0, dof=5)),
    "chi_square_quantile": (chi_square_quantile, dict(p=0.5, dof=5)),
    "noncentral_t_cdf": (noncentral_t_cdf, dict(x=0.5, dof=5, ncp=1.0)),
    "cone_prob": (lambda **f: cone_prob(ConeRegion(**f)), dict(h=-0.5, g=0.3, k=0.8)),
    "hyperbola_cone_prob": (
        lambda **f: hyperbola_cone_prob(HyperbolaConeRegion(**f)),
        dict(offset=-0.7, lam=2.0, h=0.2, g=0.9, k=0.8)),
    "KnownVarPlan": (partial(dataclasses.replace, KNOWN), dict(sigma=1.0)),
    "Stage": (Stage, dict(n=5, a=-0.5, b=0.5)),
}

# 10**5000 is past the digits Python prints by default
WRONG_TYPE = [
    10**400, -(10**400), 10**5000, -(10**5000), True, False, "0.5", "x", None, [1.0]
]
DIGITS = sys.get_int_max_str_digits()
VALUES = st.one_of(
    st.floats(), st.integers(-(2**64), 2**64), st.sampled_from(WRONG_TYPE)
)
# a cell budget or a replication count is work the caller asks for: a big
# one is refused by no rule, and runs for as long as it says
WORK = st.one_of(
    st.floats(), st.integers(-(2**64), 64), st.sampled_from(WRONG_TYPE[1:])
)
LIMIT_S = 5.0


def _ran_too_long(signum, frame):
    raise AssertionError(f"the call ran past {LIMIT_S} s")


@pytest.mark.parametrize("entry, key", [
    (entry, key) for entry, (_, args) in ENTRIES.items() for key in args
])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_only_a_seqnorm_error_escapes(entry, key, data):
    function, args = ENTRIES[entry]
    value = data.draw(WORK if key in ("cell_budget", "replications") else VALUES, label=key)
    previous = signal.signal(signal.SIGALRM, _ran_too_long)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # warnings are not what this test checks
            function(**dict(args, **{key: value}))
    except SeqnormError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < LIMIT_S


@pytest.mark.parametrize("entry, key, value, message", [
    ("build_known_plan", "gamma", 10**400, "gamma must be a finite real, got 1" + "0" * 400),
    ("build_known_plan", "tau", 3.0, "tau must be an integer, got 3.0"),
    ("build_known_plan", "sigma", math.nan, "sigma must be positive and finite, got nan"),
    ("std_normal_cdf", "x", "a", "x must be a finite real, got 'a'"),
    ("std_normal_cdf", "x", math.inf, "x must be finite, got inf"),
    ("student_t_critical", "dof", 7.0, "dof must be an integer, got 7.0"),
    ("student_t_critical", "dof", 10**400, "dof must be at most 2**53, got 1" + "0" * 400),
    ("chi_square_cdf", "dof", math.inf, "dof must be an integer, got inf"),
    ("simulate_plan", "replications", 1.5, "replications must be an integer, got 1.5"),
    ("simulate_plan", "mu", None, "mu must be a finite real, got None"),
    ("calibrate_known", "zeta_tol", None, "zeta_tol must be a finite real, got None"),
    ("known.certify", "tail_mass", None, "tail_mass must be a finite real, got None"),
    pytest.param("known.oc_bounds", "thetas", ["a"], "theta must be a finite real, got 'a'",
                 id="known.oc_bounds-thetas-a"),
    ("known.sample_tail", "ell", 1.0, "ell must be an integer, got 1.0"),
    ("feed", "sample", "0.5", "samples must be finite reals"),
    ("feed", "sample", None, "samples must be finite reals"),
    ("cone_prob", "k", True, "k must be a finite real, got True"),
    ("hyperbola_cone_prob", "offset", math.inf, "offset must be finite, got inf"),
    ("Stage", "n", 5.5, "n must be an integer, got 5.5"),
    ("Stage", "n", "5", "n must be an integer, got '5'"),
    ("Stage", "a", "0", "a must be a finite real, got '0'"),
    pytest.param("Stage", "n", 10**5000, f"n must be an integer of at most {DIGITS} digits",
                 id="stage-n-10**5000"),
    ("build_known_plan", "alpha", np.True_, "alpha must be a finite real, got np.True_"),
    # an id that prints 10**5000 would fail as the value does
    pytest.param("build_known_plan", "tau", 10**5000,
                 f"tau must be an integer of at most {DIGITS} digits", id="tau-10**5000"),
    pytest.param("build_known_plan", "gamma", -(10**5000),
                 f"gamma must be a finite real, got a value of more than {DIGITS} digits",
                 id="gamma-minus-10**5000"),
    ("simulate_plan", "plan", "x", "plan must be an instance of Plan, got str"),
    pytest.param("unknown.envelopes", "plan", KNOWN,
                 "plan must be an instance of UnknownVarPlan, got KnownVarPlan",
                 id="unknown.envelopes-plan-known"),
    pytest.param("known.envelopes", "plan", UNKNOWN,
                 "plan must be an instance of KnownVarPlan, got UnknownVarPlan",
                 id="known.envelopes-plan-unknown"),
    pytest.param("known.envelopes-pair", "pair", 1.5, "each pair must be (theta, plan), got float",
                 id="known.envelopes-pair-float"),
    # the item's repr would hold the plan's: it is named by its type and length
    pytest.param("unknown.envelopes-pair", "pair", (-0.5, UNKNOWN, 1),
                 "each pair must be (theta, plan), got tuple of length 3",
                 id="unknown.envelopes-pair-three-items"),
])
def test_wrong_type_message(entry, key, value, message):
    function, args = ENTRIES[entry]
    with pytest.raises(SeqnormError) as info:
        function(**dict(args, **{key: value}))
    assert str(info.value) == message
