"""The cone evaluator and its polar integrand against oracles."""

import math

import numpy as np
import pytest
import scipy.stats as st

from seqnorm.errors import DomainError
from seqnorm.geometry import ConeRegion, _barrier_exponent, _upsilon_lenient, cone_prob
from seqnorm.simulate import grid_domain_prob, mc_domain_prob
from seqnorm.special import std_normal_cdf

TWO_PI = 2.0 * math.pi


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


class TestConeProb:
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
        ref = grid_domain_prob(region, resolution=120_000)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_mixed_example_vs_oracles(self):
        # a unit slope keeps constant phase against the shared u/v grid, so
        # the midpoint error does not average out; brute resolution handles it
        region = ConeRegion(-0.5, 0.5, 1.0)
        got = cone_prob(region)
        assert got == pytest.approx(
            grid_domain_prob(region, resolution=4_000_000), abs=1e-6
        )
        est, se = mc_domain_prob(region, 10**6, seed=314)
        assert abs(got - est) <= 4 * se
        # exact decomposition: P{U>=h} - P{U>=h, (U-V)/sqrt(2) >= g/sqrt(2)}
        rho = 1.0 / math.sqrt(2.0)
        mvn = st.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        exact = float(st.norm.sf(-0.5) - mvn.cdf([0.5, -0.5 / math.sqrt(2.0)]))
        assert got == pytest.approx(exact, abs=1e-9)

    def test_barrier_through_origin_limits(self):
        # h = 0 must continue both adjacent formulas
        for g, k in ((0.7, 1.2), (-0.4, 0.8), (0.0, 1.0)):
            at_zero = cone_prob(ConeRegion(0.0, g, k))
            below = cone_prob(ConeRegion(-1e-9, g, k))
            above = cone_prob(ConeRegion(1e-9, g, k))
            assert at_zero == pytest.approx(below, abs=1e-7)
            assert at_zero == pytest.approx(above, abs=1e-7)

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
    every element must come out with the bits of a panel-sized call."""

    @staticmethod
    def _assert_chunk_invariant(f, phi):
        whole = f(phi)
        chunks = np.concatenate([f(phi[i:i + 15]) for i in range(0, phi.size, 15)])
        assert whole.tobytes() == chunks.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_barrier_exponent(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-math.pi, 3.0 * math.pi, 15 * int(rng.integers(1, 40)))
        phi[::7] = 0.5 * math.pi  # cos vanishes here
        for level in (0.0, 1e-3, float(rng.uniform(-4.0, 4.0)), 9.0):
            self._assert_chunk_invariant(lambda x: _barrier_exponent(x, level), phi)

    @pytest.mark.parametrize("seed", range(6))
    def test_upsilon_lenient(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-math.pi, 3.0 * math.pi, 15 * int(rng.integers(1, 40)))
        offset = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(0.1, 4.0))
        for h in (0.0, offset * offset, float(rng.uniform(0.0, 6.0))):
            self._assert_chunk_invariant(_upsilon_lenient(offset, lam, h), phi)
