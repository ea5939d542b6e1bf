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
``cone_prob`` and the known-variance envelope's cone pairs share one scalar
kernel, ``_cone_measure``, fed what all cones of one barrier and slope share.
``hyperbola_family_prob_many`` integrates the arcs of a whole list of
hyperbola-cone regions in one ``integrate_many`` call.  It takes each region
as (family, h, g): a ``HyperbolaFamily`` holds what all regions of one
(offset, lam, k) share (the nudged lam, atan k, sqrt(1 + k^2), the
asymptote's angle, ...), computed once, so a partition's corners, which
differ only in h and g, skip that work.  ``hyperbola_cone_prob_many`` makes
each region a one-region family and calls it, and ``hyperbola_cone_prob`` is
its one-region call; a region's value does not depend on the list it comes
in, nor on the family it shares.  The arc integrand reads each panel's
(offset, lam, h) once and broadcasts it over the panel's nodes.

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
configurations where an angle pair swaps order.  ``_branch_geometry``
writes each formula once, as data: the arcs to integrate, the straight
piece, and the order of the terms, the first minus each later one in turn.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr
from scipy.special.cython_special import owens_t

from .errors import DomainError, real
# integrate is unused here; perfbench's binding test rebinds it
from .quadrature import PANEL_NODES, integrate, integrate_many  # noqa: F401
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
        for name in self.__dataclass_fields__:  # each field as a finite float
            object.__setattr__(self, name, real(name, getattr(self, name)))
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
        for name in self.__dataclass_fields__:  # each field as a finite float
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if self.lam <= 0.0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        _require_corner(self.h, self.g)
        if self.k <= 0.0:
            raise DomainError(f"k must be > 0, got {self.k}")


def _require_corner(h: float, g: float) -> None:
    """Raise DomainError for an h or g that HyperbolaConeRegion refuses."""
    if not (math.isfinite(h) and math.isfinite(g)):
        raise DomainError(f"{'g' if math.isfinite(h) else 'h'} must be finite")
    if h < 0.0:
        raise DomainError(f"h must be >= 0, got {h}")
    if 0.0 < h < sys.float_info.min:
        # sqrt(h) and h times the polar direction terms lose their digits
        raise DomainError(f"h must be 0 or a normal float, got {h}")


class HyperbolaFamily:
    """What the regions {sqrt(lam v^2 + h) <= u - offset <= k v + g} of one
    (offset, lam, k) share, whatever h and g.

    lam is nudged off k^2 when the two nearly coincide, with a RuntimeWarning.
    Then come lam - k^2 (the tangency denominator), atan(k), sqrt(1 + k^2),
    whether the line is flatter than the asymptote (``bounded``) and the
    asymptote's angle atan(1 / sqrt(lam)).
    """

    __slots__ = ("offset", "lam", "k", "k2", "denom", "phi_k", "hyp", "bounded", "phi_asym")

    def __init__(self, offset: float, lam: float, k: float):
        offset, lam, k = real("offset", offset), real("lam", lam), real("k", k)
        if not (lam > 0.0 and k > 0.0):
            raise DomainError(f"a hyperbola family needs lam > 0 and k > 0, got lam={lam}, k={k}")
        k2 = k * k
        if not math.isfinite(k2):
            raise DomainError(f"region too large for double precision: k = {k}")
        if abs(k2 - lam) <= 1e-9 * max(k2, lam):
            warnings.warn(
                "hyperbola shape coincides with the squared line slope; nudging "
                "the shape parameter off the degenerate surface",
                RuntimeWarning,
                stacklevel=3,
            )
            lam = k2 * (1.0 + 1e-8) if lam >= k2 else k2 * (1.0 - 1e-8)
        self.offset = offset
        self.lam = lam
        self.k = k
        self.k2 = k2
        self.denom = lam - k2
        self.phi_k = math.atan(k)
        self.hyp = math.sqrt(1.0 + k2)
        self.bounded = k2 < lam
        self.phi_asym = math.atan(1.0 / math.sqrt(lam))


# ---------------------------------------------------------------------------
# Boundary integrals
# ---------------------------------------------------------------------------


def _antiderivative(level: float, period: float, phi: float) -> float:
    """F(phi) of _barrier_integral, given period = Phi(-|level|)."""
    # phi - m pi can round past +-pi/2 when phi is an odd multiple of a
    # quarter turn; the clamp keeps tan on the side m was chosen for
    m = round(phi / math.pi)
    x = phi - m * math.pi
    x = _HALF_PI if x > _HALF_PI else -_HALF_PI if x < -_HALF_PI else x
    return m * period + owens_t(level, math.tan(x))


def _barrier_integral(level: float, lo: float, hi: float) -> float:
    """Signed integral of exp(-level^2 / (2 cos^2 phi)) / (2 pi) from lo to hi.

    The integrand has period pi and one period integrates to Phi(-|level|), so
    F(phi) = m Phi(-|level|) + T(level, tan(phi - m pi)) with m = round(phi / pi).
    """
    period = float(ndtr(-abs(level)))
    return _antiderivative(level, period, hi) - _antiderivative(level, period, lo)


def _hyperbola_polar_sq_radius(phi: np.ndarray, offset, lam, h) -> np.ndarray:
    """Squared radius of the near root of the hyperbola's polar quadratic.

    The polar points of {(u - offset)^2 - lam v^2 = h} solve
    (cos^2 - lam sin^2) r^2 - 2 offset cos(phi) r + eta = 0 with
    eta = offset^2 - h.  The near root eta / (offset cos + sqrt(rad)) is the
    one the case tables integrate; the far root enters the tables through a
    half-turn shift of the angle.  At eta = 0 the ratio is 0/0 and the root
    continues to 0 where the denominator stays away from zero and to
    2 offset cos(phi) / (cos^2 - lam sin^2) where it vanishes.

    offset, lam and h are floats, or (panels, 1) columns that broadcast over
    a (panels, 15) phi, so eta and lam eta are formed once per panel.  Each
    node's value is the same sequence of IEEE operations either way; the
    in-place steps only reuse buffers.  Runs under _upsilon's np.errstate.
    """
    eta = offset * offset - h
    lam_eta = lam * eta
    c = np.cos(phi)
    s = np.sin(phi)
    rad = h * c
    rad *= c
    t = lam_eta * s
    t *= s
    rad += t  # h c^2 + lam eta s^2
    if np.signbit(rad).any():  # -0.0 too, so the clamp below gives +0.0
        scale = abs(h) + lam * abs(eta) + 1e-300
        bad = rad < -1e-10 * scale  # angle outside the branch's admissible interval
        if np.any(bad):
            rad = np.where(bad, np.inf, rad)  # forces the integrand to 0
        rad = np.maximum(rad, 0.0)
    sq = np.sqrt(rad, out=rad)
    num = offset * c
    # two algebraically equal forms of the near root; each cancels on the
    # opposite sign of offset*cos(phi), so pick per element
    den = num + sq
    aq = np.multiply(c, c, out=c)
    np.multiply(lam, s, out=t)
    t *= s
    aq -= t  # cos^2 - lam sin^2
    ratio = np.divide(eta, den, out=t)
    if not den.all():
        ratio = np.where(den != 0.0, ratio, np.where(eta == 0.0, 0.0, np.inf))
    stable = np.subtract(num, sq, out=sq)
    stable /= aq
    if not aq.all():
        stable = np.where(aq != 0.0, stable, np.inf)
    r = np.where(num >= 0.0, ratio, stable)
    r *= r  # an overflow is a radius the integrand sends to 0
    return r


def _upsilon(phi: np.ndarray, offset, lam, h) -> np.ndarray:
    """The arc integrand exp(-r(phi)^2 / 2) / (2 pi) of the hyperbola (offset, lam, h)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        r2 = _hyperbola_polar_sq_radius(phi, offset, lam, h)
        r2 *= -0.5
        np.exp(r2, out=r2)
        r2 *= _INV_TWO_PI
        return r2


# ---------------------------------------------------------------------------
# Cone evaluator
# ---------------------------------------------------------------------------


def _cone_shared(h: float, k: float) -> tuple[float, float, float, float]:
    """atan(k), Phi(-|h|), the h barrier's F(pi/2) and sqrt(1 + k^2): what
    the cones {h <= u <= k v + g} of one h and k share, whatever g."""
    period_h = float(ndtr(-abs(h)))
    return math.atan(k), period_h, _antiderivative(h, period_h, _HALF_PI), math.sqrt(1.0 + k * k)


def _cone_measure(h, g, k, phi_k, period_h, top_h, hyp) -> float:
    """cone_prob of {h <= u <= k v + g}, given _cone_shared(h, k) and finite h, g and k > 0."""
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

    # each barrier integral of _barrier_integral as F(hi) - F(lo)
    f = _antiderivative
    d = abs(g) / hyp
    period_d = float(ndtr(-abs(d)))
    if max(g, h) < 0.0:
        value = (f(d, period_d, math.pi + phi_k + phi_r) - f(d, period_d, _HALF_PI)) - (
            f(h, period_h, math.pi + phi_r) - top_h
        )
    elif h <= 0.0 <= g:
        value = 1.0 - (f(h, period_h, math.pi + phi_r) - top_h) - (
            f(d, period_d, 1.5 * math.pi) - f(d, period_d, phi_k + phi_r)
        )
    else:
        value = (top_h - f(h, period_h, phi_r)) - (
            f(d, period_d, _HALF_PI) - f(d, period_d, phi_k + phi_r)
        )
    return _clamp_unit(value)


def cone_prob(region: ConeRegion) -> float:
    """Pr{h <= U <= k V + g} by the three-configuration boundary split."""
    h, g, k = region.h, region.g, region.k
    return _cone_measure(h, g, k, *_cone_shared(h, k))


# ---------------------------------------------------------------------------
# Hyperbola-cone evaluator
# ---------------------------------------------------------------------------


def _abs_polar_angle(u: float, v: float) -> float:
    norm = math.hypot(u, v)
    if norm == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, u / norm)))


class _BranchData(NamedTuple):
    leaf: str  # "zero", "np1".."np5", "pp1".."pp3", "n1".."n5", "p1".."p3"
    # the boundary formula: its hyperbola arcs' (from, to) angles, the line's
    # (distance, from, to), and its terms as indices into (arc integrals...,
    # line integral, 1.0); the value is the first minus each later term
    arcs: tuple[tuple[float, float], ...] = ()
    line: tuple[float, float, float] = (0.0, 0.0, 0.0)
    terms: tuple[int, ...] = (-1, -1)  # the empty region: 1 - 1


_EMPTY = _BranchData(leaf="zero")


def _too_large(family: HyperbolaFamily, h: float, g: float) -> DomainError:
    return DomainError(
        f"region too large for double precision: offset={family.offset}, "
        f"lam={family.lam}, h={h}, g={g}, k={family.k}"
    )


def _branch_geometry(family: HyperbolaFamily, h: float, g: float) -> _BranchData:
    """The boundary formula of the family's region with this h and g.

    h and g are checked as HyperbolaConeRegion checks them, so a corner
    given as (family, h, g) is refused exactly where its region would be.
    """
    _require_corner(h, g)
    off = family.offset
    lam = family.lam
    k = family.k

    # the arc integrand's radicand is bounded by h + lam |eta|
    eta = off * off - h
    lam_eta = lam * abs(eta)
    if not math.isfinite(h + lam_eta):
        raise _too_large(family, h, g)

    sqrt_h = math.sqrt(h)
    delta = h * (family.k2 - lam) + lam * g * g
    if not math.isfinite(delta):
        raise _too_large(family, h, g)
    sqd = math.sqrt(max(delta, 0.0))

    # the line touches the hyperbola at A and, when it is flatter than the
    # asymptote, again at B; otherwise B recedes to infinity along the asymptote
    bounded = family.bounded
    if not bounded:
        crossing = g * k > sqd
    elif g > sqrt_h:
        crossing = True
    elif g > 0.0 and delta >= 0.0:
        crossing = False
    else:
        return _EMPTY

    denom = family.denom
    z_a = (lam * g - k * sqd) / denom
    phi_a = _abs_polar_angle(off + z_a, (g * k - sqd) / denom)
    if crossing:
        phi_a = -phi_a
    phi_k = family.phi_k
    if bounded:
        z_b = (lam * g + k * sqd) / denom
        phi_b = _abs_polar_angle(off + z_b, (g * k + sqd) / denom)
        line_b = phi_k + phi_b
        u_q = off + (h / z_b if z_b != 0.0 else 0.0)
    else:
        phi_b = family.phi_asym
        line_b = _HALF_PI
        u_q = off
    if eta == 0.0:
        phi_m = _HALF_PI
    elif h == 0.0:
        phi_m = 0.0
    elif lam_eta < sys.float_info.min:
        raise DomainError(
            f"lam * |offset^2 - h| underflows: offset={off}, lam={lam}, h={h}, g={g}, k={k}"
        )
    else:
        phi_m = math.atan(math.sqrt(h / lam_eta))

    # the origin's rung among special points on the u-axis: Q and P are the
    # tangent intercepts from B and A (Q is the center M when B is at
    # infinity), C is the vertex and R the line intercept
    u_p = off + (h / z_a if z_a != 0.0 else 0.0)
    ladder = (u_q, u_p, off + sqrt_h, off + g) if crossing else (u_q, u_p)
    rung = len(ladder) + 1
    for i, u in enumerate(ladder, 1):
        if u >= 0.0:
            rung = i
            break

    # the region's boundary formula; term -2 is the line integral B, -1 is 1.0
    line_a = phi_k + phi_a
    level = abs(off + g) / family.hyp
    line = (level, line_a, line_b)
    if rung == 3 and not crossing:  # B(line_b, line_a) - U0
        arcs, line, terms = ((phi_b, phi_a),), (level, line_b, line_a), (-2, 0)
    elif rung == 1:  # U0 - B
        arcs, terms = ((math.pi + phi_a, math.pi + phi_b),), (0, -2)
    elif rung == 2:  # U0 - U1 - B
        arcs, terms = ((math.pi + phi_a, math.pi + phi_m), (phi_b, phi_m)), (0, 1, -2)
    elif rung == 3:  # U0 - U1 - U2 - B
        arcs = ((math.pi - phi_m, math.pi + phi_m), (phi_b, phi_m), (-phi_a, phi_m))
        terms = (0, 1, 2, -2)
    elif rung == 4:  # 1 - B - U0
        arcs, terms = ((phi_b, _TWO_PI + phi_a),), (-1, -2, 0)
    else:  # B(line_b, line_a + 2 pi) - U0
        arcs, terms = ((phi_b, _TWO_PI + phi_a),), (-2, 0)
        line = (level, line_b, line_a + _TWO_PI)
    kind = ("n" if crossing else "p") + ("p" if bounded else "")
    return _BranchData(f"{kind}{rung}", arcs, line, terms)


def classify_branch(region: HyperbolaConeRegion) -> str:
    """Name of the closed-form leaf the region dispatches to ("zero" if empty)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        family = HyperbolaFamily(region.offset, region.lam, region.k)
        return _branch_geometry(family, region.h, region.g).leaf


def hyperbola_family_prob_many(
    corners: Sequence[tuple[HyperbolaFamily, float, float]],
) -> list[float]:
    """Pr{(U, V) in region} for each region given as (family, h, g), via the
    six closed-form boundary formulas.

    The branch geometry, the straight pieces and the assembly run region by
    region in ``math``, whose last bits numpy's ufuncs do not always share;
    only the curved arcs of all regions go through one ``integrate_many``
    call.  Each value has the bits of a one-region call.
    """
    data = [_branch_geometry(family, h, g) for family, h, g in corners]
    # a row (offset, lam, h, from, to) for each arc, in region order
    rows = [
        (family.offset, family.lam, h, a, b)
        for (family, h, _), d in zip(corners, data) for a, b in d.arcs
    ]
    values = []
    if rows:
        rows = np.array(rows)

        def integrand(phi, arc):
            # each panel's 15 nodes share one arc, so its row of parameters
            # is read once and broadcast over them
            offset, lam, h = rows[arc[::PANEL_NODES], :3].T[:, :, None]
            return _upsilon(phi.reshape(-1, PANEL_NODES), offset, lam, h).ravel()

        values = integrate_many(integrand, rows[:, 3], rows[:, 4])[0].tolist()

    out = []
    i = 0
    for d in data:
        if d is _EMPTY:
            out.append(0.0)
            continue
        j = i + len(d.arcs)
        parts = [*values[i:j], _barrier_integral(*d.line), 1.0]
        i = j
        terms = d.terms
        value = parts[terms[0]]
        for term in terms[1:]:
            value -= parts[term]
        out.append(_clamp_unit(value))
    return out


def hyperbola_cone_prob_many(regions: Sequence[HyperbolaConeRegion]) -> list[float]:
    """Pr{(U, V) in region} for each region: each region is a one-region
    family, and all go through one hyperbola_family_prob_many call."""
    return hyperbola_family_prob_many(
        [(HyperbolaFamily(r.offset, r.lam, r.k), r.h, r.g) for r in regions]
    )


def hyperbola_cone_prob(region: HyperbolaConeRegion) -> float:
    """Pr{(U, V) in region}: the one-region call of hyperbola_cone_prob_many."""
    return hyperbola_cone_prob_many([region])[0]
