"""Adaptive Gauss-Kronrod quadrature with signed orientation.

All boundary integrals in this package are written with oriented limits:
``integrate(f, a, b) == -integrate(f, b, a)``.  The closed-form case tables
rely on this so one expression covers configurations where an angle pair
swaps order.

The 15-point Kronrod rule evaluates only interior nodes, so integrands that
are singular or undefined exactly at an endpoint (a hyperbola's radicand
or denominator vanishing at a critical angle) are never sampled there.
Integrands must accept and return numpy arrays, elementwise: they are
evaluated a batch of panels at a time (all initial panels in one call, both
halves of a bisected panel in the next), and each panel's sums are still
formed row by row, so the result does not depend on the batching.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import DomainError

# 15-point Kronrod nodes on [-1, 1] and weights; the odd-index nodes form the
# embedded 7-point Gauss rule used for the error estimate.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """[(kronrod, |kronrod - gauss|)] for panels [lo[i], hi[i]], from one call of f.

    Each row is reduced with its own dot product over contiguous memory: a
    matrix-vector product, or a strided row, sums in a different order and
    would move the last bits.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _XK
    ys = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    gauss = np.ascontiguousarray(ys[:, _GAUSS_IDX])
    out = []
    for h, y, yg in zip(half.tolist(), ys, gauss):
        k15 = h * float(_WK.dot(y))
        g7 = h * float(_WG.dot(yg))
        out.append((k15, abs(k15 - g7)))
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-12,
    initial_panels: int = 8,
    max_panels: int = 2048,
) -> float:
    """Integrate f from a to b (signed) to absolute tolerance tol.

    Panels with the largest error estimates are bisected first; the loop
    stops once the summed error estimate drops below tol, max_panels panels
    exist, or every panel is too narrow to bisect.  Raises DomainError if
    the limits are not finite.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    npanels = max(1, int(initial_panels))
    edges = np.linspace(a, b, npanels + 1)
    initial = _panels(f, edges[:-1], edges[1:])
    heap = []  # (-err, order, lo, hi, value)
    aside = []  # panels narrower than float spacing: never split, still summed
    order = 0
    total_err = 0.0
    for lo, hi, (val, err) in zip(edges[:-1], edges[1:], initial):
        heapq.heappush(heap, (-err, order, lo, hi, val))
        order += 1
        total_err += err
    while heap and total_err > tol and len(heap) + len(aside) < max_panels:
        panel = heapq.heappop(heap)
        neg_err, _, lo, hi, val = panel
        err = -neg_err
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            aside.append(panel)  # its estimate stays in total_err
            continue
        (v1, e1), (v2, e2) = _panels(f, np.array([lo, mid]), np.array([mid, hi]))
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, order, lo, mid, v1))
        order += 1
        heapq.heappush(heap, (-e2, order, mid, hi, v2))
        order += 1

    # recompute the sum in deterministic (position) order for bit stability;
    # the built-in sum compensates rounding from Python 3.12 on, a plain
    # left-to-right loop gives the same bits on every interpreter
    total = 0.0
    for item in sorted(heap + aside, key=lambda t: t[2]):
        total += item[4]
    return sign * total
