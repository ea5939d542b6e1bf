"""Adaptive Gauss-Kronrod quadrature with signed orientation, over many arcs at once.

All boundary integrals in this package are written with oriented limits:
``integrate(f, a, b) == -integrate(f, b, a)``.  The closed-form case tables
rely on this so one expression covers configurations where an angle pair
swaps order.

The 15-point Kronrod rule evaluates only interior nodes, so integrands that
are singular or undefined exactly at an endpoint (a hyperbola's radicand
or denominator vanishing at a critical angle) are never sampled there.
The adaptive loop is QUADPACK's (Piessens et al., 1983): bisect the panel
with the largest error estimate until the summed estimate meets tol.

``integrate_many`` runs that loop for many arcs and evaluates their panels
together; ``integrate`` is its one-arc call.  Integrands must accept and
return numpy arrays, elementwise, so a node's value does not depend on the
batch it comes in.  A result must not depend on the batching either, so
each panel's sums are reduced row by row: the node values of a batch form
a C-contiguous (panels, 15) array, and ``np.matmul(rows[:, None, :], w)``
takes one dot product per row, which gives the bits of ``w.dot(row)``.  A
matrix-vector product (``rows @ w``) or an F-ordered or strided block sums
in another order and moves the last bits; so does a Python sum.  That
equality was verified on numpy 2.4.6 only.  On the oldest numpy that
pyproject admits (1.24) it is unverified; tests/test_quadrature.py checks
it panel by panel against ``np.dot`` wherever the suite runs.
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
    """(kronrod, |kronrod - gauss|) arrays for panels [lo[i], hi[i]], from one call of f."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _XK
    ys = np.ascontiguousarray(np.asarray(f(x.ravel()), dtype=float).reshape(x.shape))
    gauss = np.ascontiguousarray(ys[:, _GAUSS_IDX])
    k15 = half * np.matmul(ys[:, None, :], _WK)[:, 0]
    g7 = half * np.matmul(gauss[:, None, :], _WG)[:, 0]
    return k15, np.abs(k15 - g7)


def _edges(a: np.ndarray, b: np.ndarray, npanels: int) -> np.ndarray:
    """Row i holds np.linspace(a[i], b[i], npanels + 1), with its bits."""
    frac = np.arange(npanels + 1, dtype=float)
    delta = b - a
    step = delta / npanels
    edges = frac * step[:, None]
    tiny = step == 0.0
    if tiny.any():  # linspace divides before it scales when the step underflows
        edges[tiny] = frac / npanels * delta[tiny, None]
    edges += a[:, None]
    edges[:, -1] = b
    return edges


def _left_to_right_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's 0.0 + row[0] + row[1] + ..., with the bits of a Python loop.

    accumulate adds strictly in order; the trailing + 0.0 turns the -0.0 of
    an all -0.0 row into the loop's +0.0 and changes nothing else.
    """
    return np.add.accumulate(rows, axis=1)[:, -1] + 0.0


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    tol: float = 1e-12,
    initial_panels: int = 8,
    max_panels: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f over arcs a[i] to b[i] (signed), each to absolute tolerance tol.

    f(x, arc) takes nodes x and, for each node, the index i of its arc.
    Returns (values, capped): capped[i] is True when arc i stopped with its
    summed error estimate still above tol, because it reached max_panels or
    ran out of panels wide enough to bisect.

    Each arc runs its own adaptive loop, the one ``integrate`` describes,
    and gets the bits it would get alone: the arcs only share integrand
    calls (every initial panel in one, then the bisected panels of all
    unfinished arcs, one round at a time).  Raises DomainError if a limit
    is not finite.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"integration limits must be finite, got [{a[i]}, {b[i]}]")
    values = np.zeros(a.size)
    capped = np.zeros(a.size, dtype=bool)
    arcs = np.flatnonzero(a != b)
    if arcs.size == 0:
        return values, capped
    lo = np.minimum(a[arcs], b[arcs])
    hi = np.maximum(a[arcs], b[arcs])
    sign = np.where(b[arcs] < a[arcs], -1.0, 1.0)

    npanels = max(1, int(initial_panels))
    edges = _edges(lo, hi, npanels)
    owner = np.repeat(arcs, npanels)
    nodes = np.repeat(owner, len(_XK))
    val, err = _panels(lambda x: f(x, nodes), edges[:, :-1].ravel(), edges[:, 1:].ravel())
    val = val.reshape(-1, npanels)
    err = err.reshape(-1, npanels)
    total = _left_to_right_sums(val)
    total_err = _left_to_right_sums(err)
    values[arcs] = sign * total
    capped[arcs] = total_err > tol

    # arcs still above tol keep bisecting from their initial panels
    going = np.flatnonzero((total_err > tol) & (npanels < max_panels))
    open_arcs = []
    for r in going.tolist():
        heap = []  # (-err, order, lo, hi, value)
        for order, (p_lo, p_hi, v, e) in enumerate(
            zip(edges[r, :-1].tolist(), edges[r, 1:].tolist(), val[r].tolist(), err[r].tolist())
        ):
            heapq.heappush(heap, (-e, order, p_lo, p_hi, v))
        open_arcs.append(
            _OpenArc(int(arcs[r]), float(sign[r]), heap, npanels, float(total_err[r]))
        )
    while open_arcs:
        splitting = [arc for arc in open_arcs if arc.pop_splittable(tol, max_panels)]
        for arc in open_arcs:
            if arc.split is None:
                values[arc.index], capped[arc.index] = arc.result(tol)
        if not splitting:
            break
        bounds = np.array([half for arc in splitting for half in arc.halves()])
        nodes = np.repeat([arc.index for arc in splitting], 2 * len(_XK))
        val, err = _panels(lambda x: f(x, nodes), bounds[:, 0], bounds[:, 1])
        val = val.reshape(-1, 2).tolist()
        err = err.reshape(-1, 2).tolist()
        for arc, v, e in zip(splitting, val, err):
            arc.push_halves(v, e)
        open_arcs = splitting
    return values, capped


class _OpenArc:
    """One arc's adaptive loop, stepped a bisection at a time."""

    def __init__(self, index, sign, heap, order, total_err):
        self.index = index
        self.sign = sign
        self.heap = heap
        self.aside = []  # panels narrower than float spacing: never split, still summed
        self.order = order
        self.total_err = total_err
        self.split = None  # the popped panel and its midpoint, awaiting its halves

    def pop_splittable(self, tol, max_panels) -> bool:
        """Pop the widest-error panel that can be bisected; False once the loop ends."""
        heap, aside = self.heap, self.aside
        self.split = None
        while heap and self.total_err > tol and len(heap) + len(aside) < max_panels:
            panel = heapq.heappop(heap)
            lo, hi = panel[2], panel[3]
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                aside.append(panel)  # its estimate stays in total_err
                continue
            self.split = (panel, mid)
            return True
        return False

    def halves(self):
        panel, mid = self.split
        return (panel[2], mid), (mid, panel[3])

    def push_halves(self, values, errors) -> None:
        (neg_err, _, lo, hi, _), mid = self.split
        (v1, v2), (e1, e2) = values, errors
        self.total_err += (e1 + e2) - (-neg_err)
        heapq.heappush(self.heap, (-e1, self.order, lo, mid, v1))
        heapq.heappush(self.heap, (-e2, self.order + 1, mid, hi, v2))
        self.order += 2

    def result(self, tol) -> tuple[float, bool]:
        # recompute the sum in deterministic (position) order for bit stability;
        # the built-in sum compensates rounding from Python 3.12 on, a plain
        # left-to-right loop gives the same bits on every interpreter
        total = 0.0
        for item in sorted(self.heap + self.aside, key=lambda t: t[2]):
            total += item[4]
        return self.sign * total, self.total_err > tol


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
    the limits are not finite.  This is the one-arc call of integrate_many.
    """
    values, _ = integrate_many(
        lambda x, arc: f(x), [a], [b], tol=tol, initial_panels=initial_panels,
        max_panels=max_panels,
    )
    return float(values[0])
