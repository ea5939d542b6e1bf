"""Adaptive Gauss-Kronrod quadrature: batched panel evaluation against a
panel-at-a-time reference, bit for bit."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqnorm import quadrature
from seqnorm.errors import DomainError
from seqnorm.quadrature import (
    _GAUSS_IDX,
    _WG,
    _WK,
    _XK,
    _left_to_right_sums,
    _panels,
    integrate,
    integrate_many,
)


def _reference_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _XK), dtype=float)
    k15 = half * float(np.dot(_WK, y))
    g7 = half * float(np.dot(_WG, y[_GAUSS_IDX]))
    return k15, abs(k15 - g7)


def reference_integrate(f, a, b, tol=1e-12, initial_panels=8, max_panels=2048):
    """One integrand call per panel; returns (value, bisections, capped)."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0, False
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    npanels = max(1, int(initial_panels))
    edges = np.linspace(a, b, npanels + 1)
    heap = []
    order = 0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _reference_panel(f, lo, hi)
        heapq.heappush(heap, (-err, order, lo, hi, val))
        order += 1
        total_err += err
    bisections = 0
    while total_err > tol and len(heap) < max_panels:
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        err = -neg_err
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (0.0, order, lo, hi, val))
            order += 1
            continue
        v1, e1 = _reference_panel(f, lo, mid)
        v2, e2 = _reference_panel(f, mid, hi)
        bisections += 1
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, order, lo, mid, v1))
        order += 1
        heapq.heappush(heap, (-e2, order, mid, hi, v2))
        order += 1
    total = 0.0
    for item in sorted(heap, key=lambda t: t[2]):
        total += item[4]
    return sign * float(total), bisections, total_err > tol


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
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    initial_panels=st.sampled_from([1, 8, 16]),
    max_panels=st.sampled_from([4, 24, 2048]),
)
def test_batched_panels_match_reference_bit_for_bit(
    f, a, b, same, tol, initial_panels, max_panels
):
    if same:
        b = a
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    got = integrate(counted, a, b, tol=tol, initial_panels=initial_panels, max_panels=max_panels)
    ref, bisections, _ = reference_integrate(
        f, a, b, tol=tol, initial_panels=initial_panels, max_panels=max_panels
    )
    assert got == ref
    assert repr(got) == repr(ref)  # signed zeros too
    assert calls == (0 if a == b else 1 + bisections)


@settings(max_examples=200, deadline=None)
@given(
    f=integrands,
    edges=st.lists(limits, min_size=2, max_size=40, unique=True).map(sorted),
)
def test_each_panel_value_and_error_match_reference(f, edges):
    # the error estimates steer bisection, so they must match bit for bit too
    edges = np.array(edges)
    got = zip(*_panels(f, edges[:-1], edges[1:]))
    ref = [_reference_panel(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
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


def test_step_integrand_bisects_until_max_panels():
    f = step(0.3, 1.0)
    value, bisections, capped = reference_integrate(f, -1.0, 1.0, max_panels=40)
    assert capped
    assert bisections == 40 - 8
    assert integrate(f, -1.0, 1.0, max_panels=40) == value


ULP = 2.0**-52  # float spacing just above 1.0


def test_unsplittable_panels_still_return():
    # every panel ends up one ulp wide while the summed error stays far
    # above tol; such panels are set aside, so the loop runs out of work
    f = lambda x: 1e300 * np.sin(1e20 * x)
    assert math.isfinite(integrate(f, 1.0, 1.0 + 2 * ULP))


@pytest.mark.parametrize("initial_panels", [1, 8])
def test_set_aside_panels_match_reference(initial_panels):
    # the noisy left half bisects down to one-ulp panels that are set aside;
    # the quiet right half is then split until max_panels, as in the reference
    quiet_from = 1.0 + 64 * ULP
    f = lambda x: np.where(x < quiet_from, 1e300 * np.sin(1e20 * x), 0.0)
    kwargs = dict(initial_panels=initial_panels, max_panels=100)
    got = integrate(f, 1.0, 1.0 + 128 * ULP, **kwargs)
    ref, _, _ = reference_integrate(f, 1.0, 1.0 + 128 * ULP, **kwargs)
    assert repr(got) == repr(ref)


def stacked(fs):
    """The batched integrand that applies fs[i] to the nodes of arc i."""

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
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    initial_panels=st.sampled_from([1, 8, 16]),
    max_panels=st.sampled_from([4, 24, 2048]),
)
def test_many_arcs_match_one_arc_reference_bit_for_bit(arcs, tol, initial_panels, max_panels):
    fs = [f for f, _, _, _ in arcs]
    a = [lo for _, lo, _, _ in arcs]
    b = [lo if same else hi for _, lo, hi, same in arcs]
    kwargs = dict(tol=tol, initial_panels=initial_panels, max_panels=max_panels)
    values, capped = integrate_many(stacked(fs), a, b, **kwargs)
    ref = [reference_integrate(f, lo, hi, **kwargs) for f, lo, hi in zip(fs, a, b)]
    assert list(map(repr, values.tolist())) == [repr(value) for value, _, _ in ref]
    assert capped.tolist() == [bool(cap) for _, _, cap in ref]


def test_many_arcs_with_set_aside_and_capped_arcs():
    # arcs that stop for each reason, batched: converged, capped at
    # max_panels, set-aside one-ulp panels, empty, reversed
    quiet_from = 1.0 + 64 * ULP
    noisy = lambda x: np.where(x < quiet_from, 1e300 * np.sin(1e20 * x), 0.0)
    arcs = [
        (np.sin, 0.0, math.pi),
        (lambda x: np.sin(1e3 * x), 0.0, 10.0),  # 1,600 periods
        (noisy, 1.0, 1.0 + 128 * ULP),  # as in test_set_aside_panels_match_reference
        (np.cos, 2.0, 2.0),
        (peaked(0.1, 1e-3, 1.0), 2.0, -1.0),
    ]
    fs, a, b = zip(*arcs)
    values, capped = integrate_many(stacked(fs), a, b, max_panels=100)
    ref = [reference_integrate(f, lo, hi, max_panels=100) for f, lo, hi in arcs]
    assert list(map(repr, values.tolist())) == [repr(value) for value, _, _ in ref]
    assert capped.tolist() == [False, True, True, False, False]
    assert capped.tolist() == [bool(cap) for _, _, cap in ref]


def test_arc_out_of_splittable_panels_is_capped():
    f = lambda x: 1e300 * np.sin(1e20 * x)
    values, capped = integrate_many(lambda x, arc: f(x), [1.0], [1.0 + 2 * ULP])
    assert math.isfinite(values[0]) and capped[0]


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
    # these limits the compensated panel total differs in its last bits
    # (1069.1050839605425 against 1069.1050839605412)
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


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_limits_rejected(a, b):
    with pytest.raises(DomainError):
        integrate(np.cos, a, b)
