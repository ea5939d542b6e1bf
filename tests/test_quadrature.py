"""Adaptive Gauss-Kronrod quadrature: batched arcs against a panel-at-a-time
reference of the local bisection rule and against their own one-arc calls,
bit for bit, and values against mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqnorm import geometry, quadrature
from seqnorm.calibrate import calibrate_unknown
from seqnorm.errors import DomainError
from seqnorm.quadrature import (
    _INITIAL_PANELS,
    _MAX_PANELS,
    _TOL,
    _left_to_right_sums,
    _panels,
    integrate,
    integrate_many,
)

from oracles import reference_integrate, reference_panel


def smooth(c0, c1, w, p):
    return lambda x: c0 + c1 * np.sin(w * x + p) * np.exp(-0.1 * x * x)


def peaked(x0, width, height):
    return lambda x: height / (1.0 + ((x - x0) / width) ** 2)


def step(x0, height):
    return lambda x: np.where(x > x0, height, 0.0)


limits = st.floats(-10.0, 10.0, allow_nan=False)
integrands = st.one_of(
    st.builds(smooth, st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 20), st.floats(-3, 3)),
    st.builds(peaked, st.floats(-10, 10), st.floats(1e-4, 1e-1), st.floats(0.1, 100)),
    st.builds(step, st.floats(-10, 10), st.floats(-5, 5)),
)


@settings(max_examples=300, deadline=None)
@given(
    f=integrands,
    a=limits,
    b=limits,
    same=st.booleans(),
)
def test_batched_panels_match_reference_bit_for_bit(f, a, b, same):
    if same:
        b = a
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    got = integrate(counted, a, b)
    ref, rounds, _ = reference_integrate(f, a, b)
    assert got == ref
    assert repr(got) == repr(ref)  # signed zeros too
    assert calls == (0 if a == b else 1 + rounds)  # one integrand call per round


@settings(max_examples=200, deadline=None)
@given(
    f=integrands,
    edges=st.lists(limits, min_size=2, max_size=40, unique=True).map(sorted),
)
def test_each_panel_value_and_error_match_reference(f, edges):
    # the error estimates steer bisection, so they must match bit for bit too
    edges = np.array(edges)
    got = zip(*_panels(f, edges[:-1], edges[1:]))
    ref = [reference_panel(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert [tuple(map(repr, map(float, p))) for p in got] == [
        tuple(map(repr, map(float, p))) for p in ref
    ]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 16).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(-0.0)), min_size=width, max_size=width),
    min_size=1, max_size=6,
)))
def test_row_sums_add_left_to_right_from_zero(rows):
    expected = []
    for row in rows:
        total = 0.0
        for x in row:
            total += x
        expected.append(repr(total))
    assert list(map(repr, _left_to_right_sums(np.array(rows)).tolist())) == expected
    assert repr(float(_left_to_right_sums(np.array([[-0.0, -0.0]]))[0])) == "0.0"


def test_step_integrand_bisects_one_panel_per_round():
    # only the panel holding the step is above its share of tol, so each
    # round bisects that one panel, until it is narrow enough to meet tol
    f = step(0.3, 1.0)
    value, rounds, capped = reference_integrate(f, -1.0, 1.0)
    assert not capped
    assert rounds == 34
    calls = []
    got = integrate(lambda x: calls.append(x.shape) or f(x), -1.0, 1.0)
    assert repr(got) == repr(value)
    assert calls == [(_INITIAL_PANELS, 15)] + [(2, 15)] * rounds


ULP = 2.0**-52  # float spacing just above 1.0


def test_unsplittable_panels_still_return():
    # every panel ends up one ulp wide while the summed error stays far
    # above tol; such panels are never bisected, so the loop runs out of work
    f = lambda x: 1e300 * np.sin(1e20 * x)
    assert math.isfinite(integrate(f, 1.0, 1.0 + 2 * ULP))


def test_set_aside_panels_match_reference():
    # the noisy left half bisects down to one-ulp panels, which are left
    # as they are while their neighbours still qualify, as in the reference
    quiet_from = 1.0 + 64 * ULP
    f = lambda x: np.where(x < quiet_from, 1e300 * np.sin(1e20 * x), 0.0)
    got = integrate(f, 1.0, 1.0 + 128 * ULP)
    ref, _, _ = reference_integrate(f, 1.0, 1.0 + 128 * ULP)
    assert repr(got) == repr(ref)


def stacked(fs):
    """The batched integrand that applies fs[i] to the rows of arc i."""

    def f(x, arc):
        out = np.empty_like(x)
        for i in np.unique(arc):
            at = arc == i
            out[at] = fs[i](x[at])
        return out

    return f


@settings(max_examples=150, deadline=None)
@given(
    arcs=st.lists(st.tuples(integrands, limits, limits, st.booleans()), min_size=1, max_size=8),
)
def test_many_arcs_match_one_arc_reference_bit_for_bit(arcs):
    fs = [f for f, _, _, _ in arcs]
    a = [lo for _, lo, _, _ in arcs]
    b = [lo if same else hi for _, lo, hi, same in arcs]
    values, capped = integrate_many(stacked(fs), a, b)
    ref = [reference_integrate(f, lo, hi) for f, lo, hi in zip(fs, a, b)]
    assert list(map(repr, values.tolist())) == [repr(value) for value, _, _ in ref]
    assert capped.tolist() == [bool(cap) for _, _, cap in ref]
    # and each arc of the mixed batch gets its own one-arc call's value and flag
    alone = [
        integrate_many(lambda x, arc: f(x), [lo], [hi]) for f, lo, hi in zip(fs, a, b)
    ]
    assert list(map(repr, values.tolist())) == [repr(float(v[0])) for v, _ in alone]
    assert capped.tolist() == [bool(c[0]) for _, c in alone]


def test_many_arcs_with_set_aside_and_capped_arcs():
    # arcs that stop for each reason, batched: converged, capped at the
    # panel cap, out of panels wide enough to halve, empty, reversed
    quiet_from = 1.0 + 64 * ULP
    noisy = lambda x: np.where(x < quiet_from, 1e300 * np.sin(1e20 * x), 0.0)
    arcs = [
        (np.sin, 0.0, math.pi),
        (lambda x: np.sin(1e9 * x), 0.0, 1.0),  # every panel splits in every round
        (noisy, 1.0, 1.0 + 128 * ULP),  # as in test_set_aside_panels_match_reference
        (np.cos, 2.0, 2.0),
        (peaked(0.1, 1e-3, 1.0), 2.0, -1.0),
    ]
    fs, a, b = zip(*arcs)
    values, capped = integrate_many(stacked(fs), a, b)
    ref = [reference_integrate(f, lo, hi) for f, lo, hi in arcs]
    assert list(map(repr, values.tolist())) == [repr(value) for value, _, _ in ref]
    assert _INITIAL_PANELS * 2 ** ref[1][1] == _MAX_PANELS  # 8 rounds of doubling
    assert capped.tolist() == [False, True, True, False, False]
    assert capped.tolist() == [bool(cap) for _, _, cap in ref]


def test_arc_out_of_splittable_panels_is_capped():
    f = lambda x: 1e300 * np.sin(1e20 * x)
    values, capped = integrate_many(lambda x, arc: f(x), [1.0], [1.0 + 2 * ULP])
    assert math.isfinite(values[0]) and capped[0]


def test_integrand_gets_one_panel_per_row():
    # arc 0 meets tol on its initial panels; arc 2 (the peak) bisects its
    # panel at 0.1 in the first refinement round; arc 1 is empty
    calls = []

    def f(x, arc):
        calls.append((x.shape, x.flags.c_contiguous, arc.tolist(), x.min(1), x.max(1)))
        return np.where(arc[:, None] == 0, np.cos(x), peaked(0.1, 1e-3, 1.0)(x))

    integrate_many(f, [0.0, 5.0, -1.0], [1.0, 5.0, 2.0])
    (shape, contiguous, arcs, lo, hi), (shape2, contiguous2, arcs2, _, _) = calls[:2]
    assert shape == (2 * _INITIAL_PANELS, 15) and contiguous
    assert arcs == [0] * _INITIAL_PANELS + [2] * _INITIAL_PANELS
    # each row holds the nodes of one initial panel of its arc
    edges = np.concatenate([np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 9)])
    assert np.all(lo > np.delete(edges, [8, 17])) and np.all(hi < np.delete(edges, [0, 9]))
    assert len(calls) > 2 and contiguous2
    assert shape2 == (len(arcs2), 15) and set(arcs2) == {2} and len(arcs2) % 2 == 0


def compensated_sum(values, start=0):
    """The float summation of the built-in sum from Python 3.12 on (Neumaier)."""
    total = start
    c = 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_total_does_not_depend_on_the_builtin_sum(monkeypatch):
    # the module sees the compensated sum, as it would on Python 3.12+; on
    # these limits the arc bisects and the compensated total of its final
    # panels differs in its last bits (1069.1050839605425 against
    # 1069.1050839605398)
    monkeypatch.setattr(quadrature, "sum", compensated_sum, raising=False)
    f = lambda x: 1e3 * np.cos(x)
    ref, _, _ = reference_integrate(f, -7.0, 9.0)
    assert repr(integrate(f, -7.0, 9.0)) == repr(ref)


def test_accuracy_and_orientation():
    assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)
    assert integrate(np.cos, 1.0, -2.0) == -integrate(np.cos, -2.0, 1.0)
    f = peaked(0.1, 1e-3, 1.0)
    exact = 1e-3 * (math.atan((2.0 - 0.1) / 1e-3) - math.atan((-1.0 - 0.1) / 1e-3))
    assert integrate(f, -1.0, 2.0) == pytest.approx(exact, abs=1e-11)


@settings(max_examples=200, deadline=None)
@given(f=integrands, a=limits, b=limits)
def test_reversed_limits_negate_the_value(f, a, b):
    assume(a != b)  # an empty arc is +0.0 both ways
    assert repr(integrate(f, b, a)) == repr(-integrate(f, a, b))


# integrands written once for numpy arrays and for mpmath numbers (m is the module)
ACCURACY_CASES = {
    "peak": (lambda x, m: 1.0 / (1.0 + ((x - 0.1) / 1e-3) ** 2), -1.0, 2.0, [0.1]),
    "narrow-peak": (lambda x, m: 50.0 / (1.0 + ((x + 3.7) / 1e-4) ** 2), -10.0, 10.0, [-3.7]),
    "oscillating": (lambda x, m: m.sin(40.0 * x + 0.3) * m.exp(-0.1 * x * x), -6.0, 7.0, 80),
    "fast-oscillating": (lambda x, m: m.cos(300.0 * x), 3.0, 0.0, 300),
}


@pytest.mark.parametrize("tol", [_TOL])
@pytest.mark.parametrize("case", sorted(ACCURACY_CASES))
def test_values_agree_with_mpmath_within_tol(case, tol):
    f, a, b, breaks = ACCURACY_CASES[case]
    values, capped = integrate_many(lambda x, arc: f(x, np), [a], [b])
    assert not capped[0]
    with mpmath.workdps(30):
        if isinstance(breaks, int):  # equal pieces, a few per period
            points = mpmath.linspace(a, b, breaks + 1)
        else:  # split at each peak
            points = [a, *breaks, b]
        exact = mpmath.quad(lambda x: f(x, mpmath), points)
    assert abs(values[0] - float(exact)) <= tol


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_limits_rejected(a, b):
    with pytest.raises(DomainError):
        integrate(np.cos, a, b)


def test_bench_asym_calibration_round_count(monkeypatch):
    # the 8-cell asym calibration of perfbench's unknown-design workload:
    # 30 integrate_many calls of one initial round each, then 29 adaptive
    # rounds, each bisecting every panel above its share of tol in every
    # open arc (72 rounds when each round bisected one panel per arc)
    calls = {"rounds": 0, "integrate_many": 0}

    def counted_panels(*args):
        calls["rounds"] += 1
        return _panels(*args)

    def counted_many(*args, **kwargs):
        calls["integrate_many"] += 1
        return integrate_many(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_panels", counted_panels)
    monkeypatch.setattr(geometry, "integrate_many", counted_many)
    result = calibrate_unknown(
        0.05, 0.10, 0.5, 0.5, 4, zeta_tol=2e-2, tail_mass=1e-4, cell_budget=8
    )
    assert repr(result.zeta) == "0.3353125235280764"
    assert calls == {"rounds": 59, "integrate_many": 30}
