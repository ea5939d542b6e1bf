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

Two closed-form region families drive the multistage test bounds:

- ``ConeRegion``          {(u, v) : h <= u <= k v + g}
- ``HyperbolaConeRegion`` {(u, v) : sqrt(lam v^2 + h) <= u - offset <= k v + g}

The cone evaluator splits into three configurations on the signs of h and
g.  The hyperbola-cone evaluator first classifies the parameters into four
feasible families (or an empty zero branch) and then, within each family,
dispatches on the position of the origin relative to the tangent-line
intercepts, the vertex, and the line intercept, for 16 leaf formulas in
total.  All integrals are signed, which lets one printed expression cover
configurations where an angle pair swaps order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import DomainError
from .quadrature import integrate
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


def _hyperbola_polar_sq_radius(
    phi: np.ndarray, offset: float, lam: float, h: float
) -> np.ndarray:
    """Squared radius of the near root of the hyperbola's polar quadratic.

    The polar points of {(u - offset)^2 - lam v^2 = h} solve
    (cos^2 - lam sin^2) r^2 - 2 offset cos(phi) r + eta = 0 with
    eta = offset^2 - h.  The near root eta / (offset cos + sqrt(rad)) is the
    one the case tables integrate; the far root enters the tables through a
    half-turn shift of the angle.  At eta = 0 the ratio is 0/0 and the root
    continues to 0 where the denominator stays away from zero and to
    2 offset cos(phi) / (cos^2 - lam sin^2) where it vanishes.
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = num + sq
        ratio = np.where(
            den != 0.0,
            eta / np.where(den != 0.0, den, 1.0),
            0.0 if eta == 0.0 else np.inf,
        )
        aq = c * c - lam * s * s
        stable = np.where(
            aq != 0.0,
            (num - sq) / np.where(aq != 0.0, aq, 1.0),
            np.inf,
        )
    r = np.where(num >= 0.0, ratio, stable)
    return r * r


def _upsilon_lenient(offset: float, lam: float, h: float) -> Callable[[np.ndarray], np.ndarray]:
    def f(phi: np.ndarray) -> np.ndarray:
        r2 = _hyperbola_polar_sq_radius(phi, offset, lam, h)
        with np.errstate(over="ignore", under="ignore"):
            return _INV_TWO_PI * np.exp(-0.5 * r2)

    return f


# ---------------------------------------------------------------------------
# Cone evaluator
# ---------------------------------------------------------------------------


def cone_prob(region: ConeRegion) -> float:
    """Pr{h <= U <= k V + g} by the three-configuration boundary split."""
    h, g, k = region.h, region.g, region.k
    phi_k = math.atan(k)
    if h != 0.0:
        phi_r = math.atan((h - g) / (k * h))
    else:
        # barrier through the origin: the corner recedes to infinity and its
        # angle tends to a quarter turn; +pi/2 is the limit consistent with
        # both branch formulas that can receive h = 0 (at g = 0 the angle
        # cancels out entirely)
        phi_r = _HALF_PI

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
    phi_a: float = 0.0
    phi_b: float = 0.0
    phi_k: float = 0.0
    phi_lam: float = 0.0
    phi_m: float = 0.0


def _branch_geometry(region: HyperbolaConeRegion) -> _BranchData:
    off = region.offset
    lam = region.lam
    h = region.h
    g = region.g
    k = region.k
    k2 = k * k

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

    if k2 < lam:
        if g > sqrt_h:
            family = "np"
        elif g > 0.0 and delta >= 0.0:
            family = "pp"
        else:
            return _BranchData(leaf="zero", lam=lam)
    else:
        family = "n" if g * k > math.sqrt(max(delta, 0.0)) else "p"

    sqd = math.sqrt(max(delta, 0.0))
    denom = lam - k2
    z_a = (lam * g - k * sqd) / denom
    z_b = (lam * g + k * sqd) / denom
    u_a = off + z_a
    u_b = off + z_b
    v_a = (g * k - sqd) / denom
    v_b = (g * k + sqd) / denom

    phi_a = _abs_polar_angle(u_a, v_a)
    phi_b = _abs_polar_angle(u_b, v_b)
    eta = off * off - h
    if eta == 0.0:
        phi_m = _HALF_PI
    elif h == 0.0:
        phi_m = 0.0
    else:
        phi_m = math.atan(math.sqrt(h / (lam * abs(eta))))

    # special points on the u-axis: Q and P are the tangent intercepts from
    # B and A, C is the vertex, R the line intercept, M the center (u = off)
    u_p = off + (h / z_a if z_a != 0.0 else 0.0)
    u_q = off + (h / z_b if z_b != 0.0 else 0.0)
    u_c = off + sqrt_h
    u_r = off + g

    if family == "np":
        if u_q >= 0.0:
            idx = 1
        elif u_p >= 0.0:
            idx = 2
        elif u_c >= 0.0:
            idx = 3
        elif u_r >= 0.0:
            idx = 4
        else:
            idx = 5
    elif family == "pp":
        idx = 1 if u_q >= 0.0 else (2 if u_p >= 0.0 else 3)
    elif family == "n":
        if off >= 0.0:
            idx = 1
        elif u_p >= 0.0:
            idx = 2
        elif u_c >= 0.0:
            idx = 3
        elif u_r >= 0.0:
            idx = 4
        else:
            idx = 5
    else:
        idx = 1 if off >= 0.0 else (2 if u_p >= 0.0 else 3)

    return _BranchData(
        leaf=f"{family}{idx}",
        lam=lam,
        phi_a=phi_a,
        phi_b=phi_b,
        phi_k=math.atan(k),
        phi_lam=math.atan(1.0 / math.sqrt(lam)),
        phi_m=phi_m,
    )


def classify_branch(region: HyperbolaConeRegion) -> str:
    """Name of the closed-form leaf the region dispatches to ("zero" if empty)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _branch_geometry(region).leaf


def hyperbola_cone_prob(region: HyperbolaConeRegion) -> float:
    """Pr{(U, V) in region} via the 16-leaf closed-form dispatch."""
    data = _branch_geometry(region)
    if data.leaf == "zero":
        return 0.0
    off = region.offset
    lam = data.lam
    h = region.h
    g = region.g
    k = region.k

    phi_a = data.phi_a
    phi_b = data.phi_b
    phi_k = data.phi_k
    phi_lam = data.phi_lam
    phi_m = data.phi_m

    line = partial(_barrier_integral, abs(off + g) / math.sqrt(1.0 + k * k))
    ups = _upsilon_lenient(off, lam, h)
    pi = math.pi

    leaf = data.leaf
    if leaf == "np1":
        value = integrate(ups, pi - phi_a, pi + phi_b) - line(phi_k - phi_a, phi_k + phi_b)
    elif leaf == "np2":
        value = (
            integrate(ups, pi - phi_a, pi + phi_m)
            - integrate(ups, phi_b, phi_m)
            - line(phi_k - phi_a, phi_k + phi_b)
        )
    elif leaf == "np3":
        value = (
            integrate(ups, pi - phi_m, pi + phi_m)
            - integrate(ups, phi_b, phi_m)
            - integrate(ups, phi_a, phi_m)
            - line(phi_k - phi_a, phi_k + phi_b)
        )
    elif leaf == "np4":
        value = (
            1.0
            - line(phi_k - phi_a, phi_k + phi_b)
            - integrate(ups, phi_b, _TWO_PI - phi_a)
        )
    elif leaf == "np5":
        value = line(phi_k + phi_b, phi_k - phi_a + _TWO_PI) - integrate(
            ups, phi_b, _TWO_PI - phi_a
        )
    elif leaf == "pp1":
        value = integrate(ups, pi + phi_a, pi + phi_b) - line(phi_k + phi_a, phi_k + phi_b)
    elif leaf == "pp2":
        value = (
            integrate(ups, pi + phi_a, pi + phi_m)
            - integrate(ups, phi_b, phi_m)
            - line(phi_k + phi_a, phi_k + phi_b)
        )
    elif leaf == "pp3":
        value = line(phi_k + phi_b, phi_k + phi_a) - integrate(ups, phi_b, phi_a)
    elif leaf == "n1":
        value = integrate(ups, pi - phi_a, pi + phi_lam) - line(phi_k - phi_a, _HALF_PI)
    elif leaf == "n2":
        value = (
            integrate(ups, pi - phi_a, pi + phi_m)
            - integrate(ups, phi_lam, phi_m)
            - line(phi_k - phi_a, _HALF_PI)
        )
    elif leaf == "n3":
        value = (
            integrate(ups, pi - phi_m, pi + phi_m)
            - integrate(ups, phi_lam, phi_m)
            - integrate(ups, phi_a, phi_m)
            - line(phi_k - phi_a, _HALF_PI)
        )
    elif leaf == "n4":
        value = (
            1.0
            - line(phi_k - phi_a, _HALF_PI)
            - integrate(ups, phi_lam, _TWO_PI - phi_a)
        )
    elif leaf == "n5":
        value = line(_HALF_PI, phi_k - phi_a + _TWO_PI) - integrate(ups, phi_lam, _TWO_PI - phi_a)
    elif leaf == "p1":
        value = line(_HALF_PI, phi_k + phi_a) + integrate(ups, pi + phi_a, pi + phi_lam)
    elif leaf == "p2":
        value = (
            line(_HALF_PI, phi_k + phi_a)
            + integrate(ups, pi + phi_a, pi + phi_m)
            - integrate(ups, phi_lam, phi_m)
        )
    else:  # p3
        value = line(_HALF_PI, phi_k + phi_a) - integrate(ups, phi_lam, phi_a)

    return _clamp_unit(value)
