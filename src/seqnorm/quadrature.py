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
together; ``integrate`` is its one-arc call.  It works in rounds, and a
round's integrand call costs about the same whatever its size, so each
round bisects, for every open arc, every panel the loop would bisect if the
halves' error estimates were negligible, then replays the loop on those
halves until it needs one it lacks (see ``_OpenArc``).  The replay pops,
sets aside and numbers panels as the one-at-a-time loop does, so only the
number of rounds changes: on the certificates of perfbench's unknown-design
workload, 35 rather than 90 adaptive rounds for asym and 42 rather than 82
for sym.

Integrands must accept and return numpy arrays, elementwise, so a node's
value does not depend on the batch it comes in.  A result must not depend
on the batching either, so each panel's sums are reduced row by row: the
node values of a batch form a C-contiguous (panels, 15) array, and
``np.matmul(rows[:, None, :], w)`` takes one dot product per row, which
gives the bits of ``w.dot(row)``.  A matrix-vector product (``rows @ w``)
or an F-ordered or strided block sums in another order and moves the last
bits; so does a Python sum.  That equality was verified on numpy 2.4.6
only.  On the oldest numpy that pyproject admits (1.24) it is unverified;
tests/test_quadrature.py checks it panel by panel against ``np.dot``
wherever the suite runs.
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
    calls (every initial panel in one, then, one round at a time, the
    halves of every panel that the open arcs' loops are guessed to bisect
    next).  Raises DomainError if a limit is not finite.
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
        wanted = [(arc, split) for arc in open_arcs for split in arc.speculate(tol, max_panels)]
        if wanted:
            splits = np.array([split for _, split in wanted])  # (order, lo, mid, hi) rows
            nodes = np.repeat([arc.index for arc, _ in wanted], 2 * len(_XK))
            val, err = _panels(
                lambda x: f(x, nodes), splits[:, 1:3].ravel(), splits[:, 2:4].ravel()
            )
            for (arc, split), v, e in zip(
                wanted, val.reshape(-1, 2).tolist(), err.reshape(-1, 2).tolist()
            ):
                arc.computed[split[0]] = (v, e)
        still_open = []
        for arc in open_arcs:
            if arc.replay(tol, max_panels):
                still_open.append(arc)
            else:
                values[arc.index], capped[arc.index] = arc.result(tol)
        open_arcs = still_open
    return values, capped


class _OpenArc:
    """One arc's adaptive loop, advanced a round at a time.

    A round first guesses which panels the loop will bisect: those it would
    bisect if every half had a zero error estimate (speculate).  Once their
    halves are computed, it runs the loop itself on them (replay), which
    pops, sets aside and numbers panels exactly as the one-at-a-time loop
    does, and pauses where the loop needs halves not yet computed: most
    often those of a half made in the same round.  The loop's summed
    estimate stays above the guess's, up to rounding, so a guessed panel is
    bisected in this round or a later one unless max_panels ends the loop;
    its halves wait in ``computed`` until then.
    """

    def __init__(self, index, sign, heap, order, total_err):
        self.index = index
        self.sign = sign
        self.heap = heap
        self.aside = []  # panels narrower than float spacing: never split, still summed
        self.order = order
        self.total_err = total_err
        self.computed = {}  # a panel's order -> its halves' ((v1, v2), (e1, e2))

    def speculate(self, tol, max_panels) -> list[tuple[int, float, float, float]]:
        """(order, lo, mid, hi) of each panel the guess bisects whose halves are not computed."""
        heap = self.heap
        popped = []
        wanted = []
        total_err = self.total_err
        count = len(heap) + len(self.aside)
        while heap and total_err > tol and count < max_panels:
            panel = heapq.heappop(heap)
            popped.append(panel)
            neg_err, order, lo, hi, _ = panel
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                continue
            total_err += neg_err
            count += 1
            if order not in self.computed:
                wanted.append((order, lo, mid, hi))
        for panel in popped:  # keys are unique, so the pop order does not change
            heapq.heappush(heap, panel)
        return wanted

    def replay(self, tol, max_panels) -> bool:
        """Run the loop on the computed halves; True when it pauses for halves not computed."""
        heap, aside, computed = self.heap, self.aside, self.computed
        while heap and self.total_err > tol and len(heap) + len(aside) < max_panels:
            neg_err, order, lo, hi, _ = heap[0]
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                aside.append(heapq.heappop(heap))  # its estimate stays in total_err
                continue
            halves = computed.pop(order, None)
            if halves is None:
                return True
            (v1, v2), (e1, e2) = halves
            self.total_err += (e1 + e2) - (-neg_err)
            heapq.heapreplace(heap, (-e1, self.order, lo, mid, v1))
            heapq.heappush(heap, (-e2, self.order + 1, mid, hi, v2))
            self.order += 2
        return False

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
