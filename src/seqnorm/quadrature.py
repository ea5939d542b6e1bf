"""Adaptive Gauss-Kronrod quadrature with signed orientation, over many arcs at once.

All boundary integrals in this package are written with oriented limits:
``integrate(f, a, b) == -integrate(f, b, a)``.  The closed-form case tables
rely on this so one expression covers configurations where an angle pair
swaps order.

The 15-point Kronrod rule evaluates only interior nodes, so integrands that
are singular or undefined exactly at an endpoint (a hyperbola's radicand
or denominator vanishing at a critical angle) are never sampled there.

Refinement is local.  An arc starts from 8 equal panels; while its
summed error estimate |K15 - G7| exceeds the tolerance 1e-12, each round
bisects every panel whose estimate exceeds its share of that tolerance
(the tolerance times the panel's width over the arc's), and the halves take
the panel's place.  The arc stops when its sum meets the tolerance, when no
panel qualifies (or none is wide enough to halve), or when the halves would
take it past 2048 panels.

``integrate_many`` runs that rule for many arcs and evaluates their panels
together, one integrand call per round; ``integrate`` is its one-arc call.
The integrand gets a call's nodes as a C-contiguous (panels, 15) array,
one panel per row, and the index of each row's arc, so it may read its
per-arc parameters once per row.  An arc's decisions read its own panels
only, so a batched arc gets its one-arc value, bit for bit.  That needs two
more things.  Integrands must accept and return numpy arrays, elementwise,
so a node's value does not depend on the batch it comes in.  And each
panel's sums are reduced row by row: ``np.matmul(rows[:, None, :], w)``
takes one dot product per row of the C-contiguous node values, which
gives the bits of ``w.dot(row)``.  A matrix-vector product (``rows @ w``)
or an F-ordered or strided block sums in another order and moves the last
bits.  That equality was verified on numpy 2.4.6 only.  On the oldest
numpy that pyproject admits (1.24) it is unverified; tests/test_quadrature.py
checks it panel by panel against ``np.dot`` wherever the suite runs.

Totals over an arc's panels, of values and of error estimates, add left to
right from 0.0.  They must not use the built-in ``sum``: it compensates
rounding from Python 3.12 on, which would move last bits and stop
decisions from one interpreter to another.
"""

from __future__ import annotations

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
_TOL = 1e-12  # absolute, per arc
_INITIAL_PANELS = 8
_MAX_PANELS = 2048


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """(kronrod, |kronrod - gauss|) arrays for panels [lo[i], hi[i]], from one
    call of f on their nodes, row i holding panel i's."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = half[:, None] * _XK
    x += mid[:, None]
    ys = np.ascontiguousarray(f(x), dtype=float)
    gauss = np.ascontiguousarray(ys[:, _GAUSS_IDX])
    k15 = half * np.matmul(ys[:, None, :], _WK)[:, 0]
    g7 = half * np.matmul(gauss[:, None, :], _WG)[:, 0]
    return k15, np.abs(k15 - g7)


def _edges(a: np.ndarray, b: np.ndarray, npanels: int) -> np.ndarray:
    """Row i holds np.linspace(a[i], b[i], npanels + 1), with its bits.

    Those bits place the initial panels, and with them every number of the
    pinned default certificates; an edge computed another way moves them.
    """
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


def _add_left_to_right(xs) -> float:
    """0.0 + xs[0] + xs[1] + ..., in a plain loop (the module docstring says why)."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _left_to_right_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's _add_left_to_right, with its bits.

    accumulate adds strictly in order; the trailing + 0.0 turns the -0.0 of
    an all -0.0 row into the loop's +0.0 and changes nothing else.
    """
    return np.add.accumulate(rows, axis=1)[:, -1] + 0.0


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f over arcs a[i] to b[i] (signed), each to absolute tolerance 1e-12.

    f(x, arc) takes a (panels, 15) array x of nodes, one panel per row, and
    the index arc[j] of row j's arc, and returns x's shape.  Returns
    (values, capped): capped[i] is True when arc i stopped with its summed
    error estimate still above the tolerance, because no panel qualified
    for bisection or the halves would take it past 2048 panels.

    Each arc follows the local rule of the module docstring on its own
    panels, so it gets the bits it would get alone: the arcs only share
    integrand calls (every initial panel in one, then, one round at a time,
    the halves of every panel the open arcs bisect).  Raises DomainError if
    a limit is not finite.
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

    edges = _edges(lo, hi, _INITIAL_PANELS)
    row_arcs = np.repeat(arcs, _INITIAL_PANELS)
    val, err = _panels(lambda x: f(x, row_arcs), edges[:, :-1].ravel(), edges[:, 1:].ravel())
    val = val.reshape(-1, _INITIAL_PANELS)
    err = err.reshape(-1, _INITIAL_PANELS)
    total_err = _left_to_right_sums(err)
    values[arcs] = sign * _left_to_right_sums(val)

    # an arc still above tol: (index, sign, width, its (lo, hi, value, error) panels in order)
    open_arcs = [
        (int(arcs[r]), float(sign[r]), float(hi[r] - lo[r]), list(zip(
            edges[r, :-1].tolist(), edges[r, 1:].tolist(), val[r].tolist(), err[r].tolist()
        )))
        for r in np.flatnonzero(total_err > _TOL).tolist()
    ]
    while open_arcs:
        wanted = []  # (arc, positions of the panels it bisects)
        for arc in open_arcs:
            index, arc_sign, width, panels = arc
            arc_err = _add_left_to_right(p[3] for p in panels)
            split = [
                i for i, (p_lo, p_hi, _, e) in enumerate(panels)
                if e > _TOL * (p_hi - p_lo) / width and p_lo < 0.5 * (p_lo + p_hi) < p_hi
            ] if arc_err > _TOL else []
            if split and len(panels) + len(split) <= _MAX_PANELS:
                wanted.append((arc, split))
            else:
                values[index] = arc_sign * _add_left_to_right(p[2] for p in panels)
                capped[index] = arc_err > _TOL
        if not wanted:
            break
        # a row (lo, mid, hi) for each panel to bisect, in arc and then position order
        cuts = [arc[3][i][:2] for arc, split in wanted for i in split]
        cuts = np.array([(p_lo, 0.5 * (p_lo + p_hi), p_hi) for p_lo, p_hi in cuts])
        row_arcs = np.repeat([arc[0] for arc, split in wanted for _ in split], 2)
        val, err = _panels(lambda x: f(x, row_arcs), cuts[:, :2].ravel(), cuts[:, 1:].ravel())
        halves = zip(cuts[:, 1].tolist(), val.reshape(-1, 2).tolist(), err.reshape(-1, 2).tolist())
        for arc, split in wanted:
            panels = arc[3]
            for shift, i in enumerate(split):  # each earlier split moves this panel right
                mid, (v1, v2), (e1, e2) = next(halves)
                left, right, _, _ = panels[i + shift]
                panels[i + shift:i + shift + 1] = [(left, mid, v1, e1), (mid, right, v2, e2)]
        open_arcs = [arc for arc, _ in wanted]
    return values, capped


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate f from a to b (signed) to absolute tolerance 1e-12: the
    one-arc call of integrate_many, whose (panels, 15) node array f gets.
    Raises DomainError if the limits are not finite."""
    values, _ = integrate_many(lambda x, arc: f(x), [a], [b])
    return float(values[0])
