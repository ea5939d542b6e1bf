"""The cone evaluator and its closed-form barrier integral against oracles."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from seqnorm.errors import DomainError
from seqnorm.geometry import ConeRegion, _barrier_integral, _upsilon, cone_prob
from seqnorm.special import std_normal_cdf

from oracles import (
    grid_domain_prob,
    mc_domain_prob_many,
    reference_cone_prob,
    reference_integrate,
    section,
)

TWO_PI = 2.0 * math.pi
INV_TWO_PI = 1.0 / TWO_PI
HALF_PI = 0.5 * math.pi


def _barrier_exponent(phi: np.ndarray, level: float) -> np.ndarray:
    """exp(-level^2 / (2 cos^2 phi)) / (2 pi), elementwise, 0 where cos = 0.

    The polar integrand of a straight boundary piece, kept as the reference
    the closed form is checked against.
    """
    if level == 0.0:
        return np.full_like(phi, INV_TWO_PI)
    c2 = np.cos(phi) ** 2
    out = np.zeros_like(phi)
    nz = c2 > 0.0
    with np.errstate(over="ignore", under="ignore"):
        out[nz] = INV_TWO_PI * np.exp(-(level * level) / (2.0 * c2[nz]))
    return out


def polar_barrier_integral(level, lo, hi):
    """reference_integrate(_barrier_exponent) from lo to hi, signed.

    The integrand is flat to all orders at the odd multiples of pi/2, and
    Kronrod's error estimate misses the dip there when a panel straddles
    one, so the span is cut at each of them.  Each piece is integrated to
    1e-14: at the default 1e-12 the oracle itself missed cone_prob's mpmath
    value by 7e-13 (h = 0, g = 0.127, k = 8.27), past the tests' 1e-14.
    """
    a, b = min(lo, hi), max(lo, hi)
    first = math.floor(a / math.pi - 0.5) + 1
    cuts = [(j + 0.5) * math.pi for j in range(first, math.ceil(b / math.pi - 0.5))]
    edges = [a] + [c for c in cuts if a < c < b] + [b]
    total = sum(
        reference_integrate(lambda phi: _barrier_exponent(phi, level), x, y, tol=1e-14)[0]
        for x, y in zip(edges, edges[1:])
    )
    return total if hi >= lo else -total


def polar_cone_prob(h, g, k):
    """cone_prob's three-configuration split, each piece by quadrature."""
    phi_k = math.atan(k)
    phi_r = math.atan((h - g) / (k * h)) if h != 0.0 else HALF_PI
    d = abs(g) / math.sqrt(1.0 + k * k)
    if max(g, h) < 0.0:
        value = polar_barrier_integral(d, HALF_PI, math.pi + phi_k + phi_r) - (
            polar_barrier_integral(h, HALF_PI, math.pi + phi_r)
        )
    elif h <= 0.0 <= g:
        value = (
            1.0
            - polar_barrier_integral(h, HALF_PI, math.pi + phi_r)
            - polar_barrier_integral(d, phi_k + phi_r, 1.5 * math.pi)
        )
    else:
        value = polar_barrier_integral(h, phi_r, HALF_PI) - polar_barrier_integral(
            d, phi_k + phi_r, HALF_PI
        )
    return min(max(value, 0.0), 1.0)


class TestOriginDomain:
    """Cone regions containing the origin (h <= 0 <= g)."""

    def test_half_plane_as_huge_half_disk(self):
        # {u <= k v} is a half plane through the origin; a barrier at
        # u = -40 closes it without moving any of its mass
        for k in (0.3, 1.0, 4.0):
            assert cone_prob(ConeRegion(-40.0, 0.0, k)) == pytest.approx(0.5, abs=1e-9)


class TestOffsetDomain:
    """Cone regions excluding the origin."""

    def test_translated_half_plane(self):
        # {u >= c} cut by a slanted side so far out that it holds no mass
        for c in (0.5, 1.5, 3.0):
            assert cone_prob(ConeRegion(c, 60.0, 1.0)) == pytest.approx(
                1.0 - std_normal_cdf(c), abs=1e-9
            )


CONE_CONFIGS = {
    # one representative per sign configuration of (h, g)
    "h<=g<0": (-1.0, -0.3, 0.7),
    "h<=0<=g": (-0.5, 0.8, 1.3),
    "0<h<=g": (0.4, 0.9, 0.6),
    "0<g<h": (0.3, 0.2, 1.1),
    "g<=0<=h": (0.5, -0.4, 0.8),
    "g<h<0": (-0.2, -0.9, 1.7),
}


# barriers and intercepts on both sides of 0, at 0 and a subnormal off it
# (k h underflows at the smallest slope, and h = g there too), at every slope
GRID_LEVELS = (-3.0, -1.0, -0.2, -5e-324, 0.0, 5e-324, 1e-9, 0.3, 1.0, 4.0)
GRID_SLOPES = (1e-30, 0.05, 0.7, 1.0, 3.0, 50.0)
REGION_GRID = [ConeRegion(*c) for c in CONE_CONFIGS.values()] + [
    ConeRegion(h, g, k) for h in GRID_LEVELS for g in GRID_LEVELS for k in GRID_SLOPES
]


class TestConeProb:
    def test_region_grid_keeps_the_reference_bits(self):
        got = [repr(cone_prob(region)) for region in REGION_GRID]
        assert got == [repr(reference_cone_prob(region)) for region in REGION_GRID]

    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_wedge_identity(self, k):
        assert cone_prob(ConeRegion(0.0, 0.0, k)) == pytest.approx(
            math.atan(k) / TWO_PI, abs=1e-9
        )

    def test_sixty_degree_wedge(self):
        assert cone_prob(ConeRegion(0.0, 0.0, math.sqrt(3.0))) == pytest.approx(
            1.0 / 6.0, abs=1e-9
        )

    @pytest.mark.parametrize("name", sorted(CONE_CONFIGS))
    def test_all_configurations_vs_grid(self, name):
        region = ConeRegion(*CONE_CONFIGS[name])
        got = cone_prob(region)
        ref = grid_domain_prob(section(region), resolution=120_000)
        assert got == pytest.approx(ref, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(h=hst.floats(-4.0, 4.0), g=hst.floats(-4.0, 4.0), k=hst.floats(0.05, 20.0))
    def test_random_regions_vs_grid(self, h, g, k):
        # the grid keeps a u-cell whole when its midpoint lies inside, so each
        # v-row misplaces at most half a cell at either end, under
        # phi(0) * step in all; the v-rule adds O(step^2) and the cut at 8
        # about 1e-15, so one step bounds the grid's error with room to spare
        resolution = 100_000
        step = 16.0 / resolution
        region = ConeRegion(h, g, k)
        ref = grid_domain_prob(section(region), half_width=8.0, resolution=resolution)
        assert cone_prob(region) == pytest.approx(ref, abs=step)

    def test_mixed_example_vs_oracles(self):
        # a unit slope keeps constant phase against the shared u/v grid, so
        # the midpoint error does not average out; brute resolution handles it
        region = ConeRegion(-0.5, 0.5, 1.0)
        got = cone_prob(region)
        assert got == pytest.approx(
            grid_domain_prob(section(region), resolution=4_000_000), abs=1e-6
        )
        [(est, se)] = mc_domain_prob_many([region], 10**6, seed=314)
        assert abs(got - est) <= 4 * se
        # exact decomposition: P{U>=h} - P{U>=h, (U-V)/sqrt(2) >= g/sqrt(2)}
        rho = 1.0 / math.sqrt(2.0)
        mvn = st.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        exact = float(st.norm.sf(-0.5) - mvn.cdf([0.5, -0.5 / math.sqrt(2.0)]))
        assert got == pytest.approx(exact, abs=1e-9)

    def test_barrier_through_origin_limits(self):
        # h = 0 must continue both adjacent formulas, and so must an h whose
        # product with k underflows
        for h, g, k in (
            (0.0, 0.7, 1.2), (0.0, -0.4, 0.8), (0.0, 0.0, 1.0),
            (5e-324, 1.0, 0.5), (-5e-324, 1.0, 0.5), (1e-300, 1.0, 1e-30),
        ):
            at_h = cone_prob(ConeRegion(h, g, k))
            below = cone_prob(ConeRegion(-1e-9, g, k))
            above = cone_prob(ConeRegion(1e-9, g, k))
            assert at_h == pytest.approx(below, abs=1e-7)
            assert at_h == pytest.approx(above, abs=1e-7)

    def test_monotone_in_g_and_h(self):
        ks = (0.6, 1.4)
        gs = np.linspace(-1.5, 1.5, 7)
        hs = np.linspace(-1.5, 1.5, 7)
        for k in ks:
            for h in hs:
                vals = [cone_prob(ConeRegion(h, g, k)) for g in gs]
                assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
            for g in gs:
                vals = [cone_prob(ConeRegion(h, g, k)) for h in hs]
                assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_invalid_slope(self):
        with pytest.raises(DomainError):
            ConeRegion(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            ConeRegion(0.0, 0.0, -1.0)


# levels where the polar quadrature reference holds 1e-14; levels nearer 0
# leave a dip narrower than its panels and are checked against mpmath below
levels = hst.one_of(
    hst.just(0.0),
    hst.floats(1e-3, 9.0).flatmap(lambda x: hst.sampled_from([x, -x])),
)
angles = hst.one_of(
    hst.floats(-3.5 * math.pi, 3.5 * math.pi),
    hst.integers(-4, 3).map(lambda j: (j + 0.5) * math.pi),
)


class TestBarrierIntegral:
    @settings(max_examples=300, deadline=None)
    @given(level=levels, lo=angles, hi=angles)
    @example(level=0.0, lo=-4.5 * math.pi, hi=3.5 * math.pi)
    @example(level=1.0, lo=1.5 * math.pi, hi=-2.5 * math.pi)
    @example(level=-9.0, lo=-3.0, hi=3.5 * math.pi)
    def test_matches_polar_quadrature(self, level, lo, hi):
        got = _barrier_integral(level, lo, hi)
        ref = polar_barrier_integral(level, lo, hi)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "level, lo, hi",
        [
            (0.0, -0.3, 2.0),
            (1e-8, -2.5 * math.pi, 3.5 * math.pi),
            (-1e-3, 0.2, 1.5 * math.pi),
            (0.7, 1.5 * math.pi, -0.5 * math.pi),
            (2.0, -7.0, 9.0),
            (-5.5, 0.5 * math.pi, 2.9),
            (9.0, -10.0, 10.0),
        ],
    )
    def test_matches_mpmath(self, level, lo, hi):
        with mpmath.workdps(30):
            d = mpmath.mpf(level)
            a, b = sorted((mpmath.mpf(lo), mpmath.mpf(hi)))
            poles = [(j + 0.5) * mpmath.pi for j in range(-5, 5)]
            exact = mpmath.quad(
                lambda phi: mpmath.exp(-d * d / (2 * mpmath.cos(phi) ** 2)) / (2 * mpmath.pi),
                [a] + [c for c in poles if a < c < b] + [b],
            )
            exact = float(exact if hi >= lo else -exact)
        assert _barrier_integral(level, lo, hi) == pytest.approx(exact, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("level", [0.0, 1.0, -3.0])
    def test_half_periods(self, level):
        # each quarter turn on either side of a zero of cos carries half a
        # period's mass; far from 0, phi - m pi rounds past pi/2 at some of
        # these angles
        half = 0.5 * std_normal_cdf(-abs(level))
        for j in range(-40, 40):
            got = _barrier_integral(level, 0.0, (j + 0.5) * math.pi)
            assert got == pytest.approx((2 * j + 1) * half, rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(
        h=hst.one_of(hst.just(0.0), hst.floats(0.01, 6.0).flatmap(lambda x: hst.sampled_from([x, -x]))),
        g=hst.one_of(hst.just(0.0), hst.floats(0.01, 6.0).flatmap(lambda x: hst.sampled_from([x, -x]))),
        k=hst.floats(0.1, 10.0),
    )
    def test_cone_prob_matches_polar_split(self, h, g, k):
        assert abs(cone_prob(ConeRegion(h, g, k)) - polar_cone_prob(h, g, k)) <= 1e-14


class TestIntegrands:
    def test_barrier_at_zero_level(self):
        assert _barrier_exponent(np.array([0.0]), 0.0)[0] == pytest.approx(1.0 / TWO_PI, abs=0)

    def test_barrier_vanishes_at_right_angle(self):
        assert _barrier_exponent(np.array([math.pi / 2]), 1.0)[0] == 0.0

    def test_line_matches_scaled_barrier(self):
        # the line u = k v + (g + offset) sits at distance level from the
        # origin; along the direction at angle phi from its normal the polar
        # radius is r, and the integrand is exp(-r^2 / 2) / (2 pi)
        phi = np.linspace(-1.2, 1.2, 7)
        g, k, off = 0.8, 1.5, -0.3
        norm = math.sqrt(1 + k * k)
        level = abs(g + off) / norm
        normal = math.atan2(-k, 1.0)
        du, dv = np.cos(normal + phi), np.sin(normal + phi)
        r = (g + off) / (du - k * dv)
        assert np.allclose(
            _barrier_exponent(phi, level),
            np.exp(-0.5 * r * r) / TWO_PI,
            rtol=1e-12,
            atol=0,
        )


class TestBatchedEvaluation:
    """Quadrature evaluates a batch of 15-node panels in one integrand call;
    every element of the curved-arc integrand must come out with the bits of
    a panel-sized call."""

    @staticmethod
    def _assert_chunk_invariant(f, phi):
        whole = f(phi)
        chunks = np.concatenate([f(phi[i:i + 15]) for i in range(0, phi.size, 15)])
        assert whole.tobytes() == chunks.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_upsilon_lenient(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-math.pi, 3.0 * math.pi, 15 * int(rng.integers(1, 40)))
        offset = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(0.1, 4.0))
        for h in (0.0, offset * offset, float(rng.uniform(0.0, 6.0))):
            self._assert_chunk_invariant(partial(_upsilon, offset=offset, lam=lam, h=h), phi)
