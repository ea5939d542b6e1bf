"""Gaussian measure of planar cone and hyperbola-cone domains.

For independent standard normals (U, V), the probability of a convex domain
is reduced to one-dimensional integrals over the polar angle by decomposing
the boundary into visible pieces (reachable from the origin by a straight
segment outside the domain) and invisible pieces.  A domain containing the
origin contributes 1 - (1/2pi) * integral of exp(-B(phi)^2/2) over its
boundary; a domain excluding the origin contributes the signed difference
of the visible and invisible boundary integrals.

A straight piece at distance d from the origin integrates in closed form:
on (-pi/2, pi/2) the antiderivative of exp(-d^2 / (2 cos^2 phi)) / (2 pi) is
Owen's T(d, tan phi) (Owen, Ann. Math. Statist. 27, 1956).  Cone regions need
no quadrature; only the curved hyperbola arcs use adaptive quadrature.
``hyperbola_cone_prob_many`` integrates the arcs of a whole list of regions
in one ``integrate_many`` call, and ``hyperbola_cone_prob`` is its one-region
call; a region's value does not depend on the list it comes in.

Two closed-form region families drive the multistage test bounds:

- ``ConeRegion``          {(u, v) : h <= u <= k v + g}
- ``HyperbolaConeRegion`` {(u, v) : sqrt(lam v^2 + h) <= u - offset <= k v + g}

The cone evaluator splits into three configurations on the signs of h and
g.  The hyperbola-cone evaluator finds the points A and B where the line
touches the hyperbola; B lies at infinity along the asymptote when the line
is at least as steep as it.  A domain that crosses the u-axis places the
origin on a five-rung ladder (the tangent intercepts Q and P, the vertex C,
the line intercept R); one that does not, on a three-rung ladder (Q, P).
A's angle carries the sign of its v coordinate and an infinite B takes the
asymptote's angle, so six boundary formulas serve all sixteen leaves: the
crossing ladder's five rungs and the third rung of the other.  All
integrals are signed, which lets one printed expression cover
configurations where an angle pair swaps order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import DomainError
# integrate is unused here; perfbench's binding test rebinds it
from .quadrature import integrate, integrate_many  # noqa: F401
from .special import _clamp_unit

_TWO_PI = 2.0 * math.pi
_INV_TWO_PI = 1.0 / _TWO_PI
_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# Region families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeRegion:
    """Wedge {h <= u <= k v + g} bounded left by a vertical barrier."""

    h: float
    g: float
    k: float

    def __post_init__(self):
        for name in ("h", "g", "k"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.k <= 0.0:
            raise DomainError(f"k must be > 0, got {self.k}")


@dataclass(frozen=True)
class HyperbolaConeRegion:
    """Domain {sqrt(lam v^2 + h) <= u - offset <= k v + g}."""

    offset: float
    lam: float
    h: float
    g: float
    k: float

    def __post_init__(self):
        for name in ("offset", "lam", "h", "g", "k"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.lam <= 0.0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        if self.h < 0.0:
            raise DomainError(f"h must be >= 0, got {self.h}")
        if 0.0 < self.h < sys.float_info.min:
            # sqrt(h) and h times the polar direction terms lose their digits
            raise DomainError(f"h must be 0 or a normal float, got {self.h}")
        if self.k <= 0.0:
            raise DomainError(f"k must be > 0, got {self.k}")


# ---------------------------------------------------------------------------
# Boundary integrals
# ---------------------------------------------------------------------------


def _barrier_integral(level: float, lo: float, hi: float) -> float:
    """Signed integral of exp(-level^2 / (2 cos^2 phi)) / (2 pi) from lo to hi.

    The integrand has period pi and one period integrates to Phi(-|level|), so
    F(phi) = m Phi(-|level|) + T(level, tan(phi - m pi)) with m = round(phi / pi).
    """
    period = float(ndtr(-abs(level)))

    def antiderivative(phi: float) -> float:
        m = round(phi / math.pi)
        # phi - m pi can round past +-pi/2 when phi is an odd multiple of a
        # quarter turn; the clamp keeps tan on the side m was chosen for
        x = min(max(phi - m * math.pi, -_HALF_PI), _HALF_PI)
        return m * period + float(owens_t(level, math.tan(x)))

    return antiderivative(hi) - antiderivative(lo)


def _hyperbola_polar_sq_radius(phi: np.ndarray, offset, lam, h) -> np.ndarray:
    """Squared radius of the near root of the hyperbola's polar quadratic.

    The polar points of {(u - offset)^2 - lam v^2 = h} solve
    (cos^2 - lam sin^2) r^2 - 2 offset cos(phi) r + eta = 0 with
    eta = offset^2 - h.  The near root eta / (offset cos + sqrt(rad)) is the
    one the case tables integrate; the far root enters the tables through a
    half-turn shift of the angle.  At eta = 0 the ratio is 0/0 and the root
    continues to 0 where the denominator stays away from zero and to
    2 offset cos(phi) / (cos^2 - lam sin^2) where it vanishes.  offset, lam
    and h are floats or arrays shaped like phi, one hyperbola per node.
    """
    eta = offset * offset - h
    c = np.cos(phi)
    s = np.sin(phi)
    rad = h * c * c + lam * eta * s * s
    scale = abs(h) + lam * abs(eta) + 1e-300
    bad = rad < -1e-10 * scale  # angle outside the branch's admissible interval
    if np.any(bad):
        rad = np.where(bad, np.inf, rad)  # forces the integrand to 0
    rad = np.maximum(rad, 0.0)
    sq = np.sqrt(rad)
    num = offset * c
    # two algebraically equal forms of the near root; each cancels on the
    # opposite sign of offset*cos(phi), so pick per element
    den = num + sq
    aq = c * c - lam * s * s
    den_ok = den != 0.0
    aq_ok = aq != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at_zero = np.where(eta == 0.0, 0.0, np.inf)
        ratio = np.where(den_ok, eta / np.where(den_ok, den, 1.0), at_zero)
        stable = np.where(aq_ok, (num - sq) / np.where(aq_ok, aq, 1.0), np.inf)
    r = np.where(num >= 0.0, ratio, stable)
    return r * r


def _upsilon(phi: np.ndarray, offset, lam, h) -> np.ndarray:
    """The arc integrand exp(-r(phi)^2 / 2) / (2 pi) of the hyperbola (offset, lam, h)."""
    r2 = _hyperbola_polar_sq_radius(phi, offset, lam, h)
    with np.errstate(over="ignore", under="ignore"):
        return _INV_TWO_PI * np.exp(-0.5 * r2)


def _upsilon_lenient(offset: float, lam: float, h: float) -> Callable[[np.ndarray], np.ndarray]:
    return partial(_upsilon, offset=offset, lam=lam, h=h)


# ---------------------------------------------------------------------------
# Cone evaluator
# ---------------------------------------------------------------------------


def cone_prob(region: ConeRegion) -> float:
    """Pr{h <= U <= k V + g} by the three-configuration boundary split."""
    h, g, k = region.h, region.g, region.k
    phi_k = math.atan(k)
    kh = k * h
    if kh != 0.0:
        phi_r = math.atan((h - g) / kh)
    elif h == 0.0:
        # barrier through the origin: the corner recedes to infinity and its
        # angle tends to a quarter turn; +pi/2 is the limit consistent with
        # both branch formulas that can receive h = 0 (at g = 0 the angle
        # cancels out entirely)
        phi_r = _HALF_PI
    else:
        # k h underflowed: the ratio's limit
        phi_r = 0.0 if h == g else math.copysign(_HALF_PI, (h - g) * h)

    d = abs(g) / math.sqrt(1.0 + k * k)

    if max(g, h) < 0.0:
        value = _barrier_integral(d, _HALF_PI, math.pi + phi_k + phi_r) - _barrier_integral(
            h, _HALF_PI, math.pi + phi_r
        )
    elif h <= 0.0 <= g:
        value = (
            1.0
            - _barrier_integral(h, _HALF_PI, math.pi + phi_r)
            - _barrier_integral(d, phi_k + phi_r, 1.5 * math.pi)
        )
    else:
        value = _barrier_integral(h, phi_r, _HALF_PI) - _barrier_integral(
            d, phi_k + phi_r, _HALF_PI
        )
    return _clamp_unit(value)


# ---------------------------------------------------------------------------
# Hyperbola-cone evaluator
# ---------------------------------------------------------------------------


def _abs_polar_angle(u: float, v: float) -> float:
    norm = math.hypot(u, v)
    if norm == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, u / norm)))


@dataclass(frozen=True)
class _BranchData:
    leaf: str  # "zero", "np1".."np5", "pp1".."pp3", "n1".."n5", "p1".."p3"
    lam: float  # possibly nudged off the degenerate surface
    crossing: bool = False  # the domain crosses the u-axis (A lies below it)
    rung: int = 0  # the origin's rung on the u-axis ladder
    phi_a: float = 0.0  # signed like A's v coordinate
    phi_b: float = 0.0  # the upper asymptote's angle when B is at infinity
    phi_m: float = 0.0
    line_a: float = 0.0  # A's and B's angles from the line's normal
    line_b: float = 0.0


def _branch_geometry(region: HyperbolaConeRegion) -> _BranchData:
    off = region.offset
    lam = region.lam
    h = region.h
    g = region.g
    k = region.k
    k2 = k * k
    if not math.isfinite(k2):
        raise DomainError(f"region too large for double precision: {region}")

    if abs(k2 - lam) <= 1e-9 * max(k2, lam):
        warnings.warn(
            "hyperbola shape coincides with the squared line slope; nudging "
            "the shape parameter off the degenerate surface",
            RuntimeWarning,
            stacklevel=3,
        )
        lam = k2 * (1.0 + 1e-8) if lam >= k2 else k2 * (1.0 - 1e-8)

    sqrt_h = math.sqrt(h)
    delta = h * (k2 - lam) + lam * g * g
    if not math.isfinite(delta):
        raise DomainError(f"region too large for double precision: {region}")
    sqd = math.sqrt(max(delta, 0.0))

    # the line touches the hyperbola at A and, when it is flatter than the
    # asymptote, again at B; otherwise B recedes to infinity along the asymptote
    bounded = k2 < lam
    if not bounded:
        crossing = g * k > sqd
    elif g > sqrt_h:
        crossing = True
    elif g > 0.0 and delta >= 0.0:
        crossing = False
    else:
        return _BranchData(leaf="zero", lam=lam)

    denom = lam - k2
    z_a = (lam * g - k * sqd) / denom
    phi_a = _abs_polar_angle(off + z_a, (g * k - sqd) / denom)
    if crossing:
        phi_a = -phi_a
    phi_k = math.atan(k)
    if bounded:
        z_b = (lam * g + k * sqd) / denom
        phi_b = _abs_polar_angle(off + z_b, (g * k + sqd) / denom)
        line_b = phi_k + phi_b
        u_q = off + (h / z_b if z_b != 0.0 else 0.0)
    else:
        phi_b = math.atan(1.0 / math.sqrt(lam))
        line_b = _HALF_PI
        u_q = off
    eta = off * off - h
    lam_eta = lam * abs(eta)
    if eta == 0.0:
        phi_m = _HALF_PI
    elif h == 0.0:
        phi_m = 0.0
    elif lam_eta < sys.float_info.min:
        raise DomainError(f"lam * |offset^2 - h| underflows: {region}")
    else:
        phi_m = math.atan(math.sqrt(h / lam_eta))

    # the origin's rung among special points on the u-axis: Q and P are the
    # tangent intercepts from B and A (Q is the center M when B is at
    # infinity), C is the vertex and R the line intercept
    u_p = off + (h / z_a if z_a != 0.0 else 0.0)
    ladder = (u_q, u_p, off + sqrt_h, off + g) if crossing else (u_q, u_p)
    rung = next((i for i, u in enumerate(ladder, 1) if u >= 0.0), len(ladder) + 1)

    family = ("n" if crossing else "p") + ("p" if bounded else "")
    return _BranchData(
        leaf=f"{family}{rung}",
        lam=lam,
        crossing=crossing,
        rung=rung,
        phi_a=phi_a,
        phi_b=phi_b,
        phi_m=phi_m,
        line_a=phi_k + phi_a,
        line_b=line_b,
    )


def classify_branch(region: HyperbolaConeRegion) -> str:
    """Name of the closed-form leaf the region dispatches to ("zero" if empty)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _branch_geometry(region).leaf


def _arcs(data: _BranchData) -> tuple[tuple[float, float], ...]:
    """The (from, to) angles of the hyperbola arcs in the region's boundary formula."""
    a = data.phi_a
    b = data.phi_b
    m = data.phi_m
    pi = math.pi
    rung = data.rung
    if rung == 3 and not data.crossing:
        return ((b, a),)
    if rung == 1:
        return ((pi + a, pi + b),)
    if rung == 2:
        return ((pi + a, pi + m), (b, m))
    if rung == 3:
        return ((pi - m, pi + m), (b, m), (-a, m))
    return ((b, _TWO_PI + a),)


def hyperbola_cone_prob_many(regions: Sequence[HyperbolaConeRegion]) -> list[float]:
    """Pr{(U, V) in region} for each region, via the six closed-form boundary formulas.

    The branch geometry, the straight pieces and the assembly run region by
    region in ``math``, whose last bits numpy's ufuncs do not always share;
    only the curved arcs of all regions go through one ``integrate_many``
    call.  Each value has the bits of a one-region call.
    """
    data = [_branch_geometry(region) for region in regions]
    arcs = [() if d.leaf == "zero" else _arcs(d) for d in data]
    owner = [i for i, region_arcs in enumerate(arcs) for _ in region_arcs]
    if owner:
        lo, hi = np.array([arc for region_arcs in arcs for arc in region_arcs]).T
        offset = np.array([regions[i].offset for i in owner])
        lam = np.array([data[i].lam for i in owner])
        h = np.array([regions[i].h for i in owner])
        values, _ = integrate_many(
            lambda phi, arc: _upsilon(phi, offset[arc], lam[arc], h[arc]), lo, hi
        )
        values = iter(values.tolist())

    out = []
    for region, d, region_arcs in zip(regions, data, arcs):
        if d.leaf == "zero":
            out.append(0.0)
            continue
        ups = [next(values) for _ in region_arcs]
        line = partial(
            _barrier_integral, abs(region.offset + region.g) / math.sqrt(1.0 + region.k * region.k)
        )
        line_a = d.line_a
        line_b = d.line_b
        rung = d.rung
        if rung == 3 and not d.crossing:
            value = line(line_b, line_a) - ups[0]
        elif rung == 1:
            value = ups[0] - line(line_a, line_b)
        elif rung == 2:
            value = ups[0] - ups[1] - line(line_a, line_b)
        elif rung == 3:
            value = ups[0] - ups[1] - ups[2] - line(line_a, line_b)
        elif rung == 4:
            value = 1.0 - line(line_a, line_b) - ups[0]
        else:
            value = line(line_b, line_a + _TWO_PI) - ups[0]
        out.append(_clamp_unit(value))
    return out


def hyperbola_cone_prob(region: HyperbolaConeRegion) -> float:
    """Pr{(U, V) in region}: the one-region call of hyperbola_cone_prob_many."""
    return hyperbola_cone_prob_many([region])[0]
