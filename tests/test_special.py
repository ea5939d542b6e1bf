"""Distribution primitives against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import cython_special

from seqnorm.errors import DomainError, InconsistentBoundaryError
from seqnorm.special import (
    _clamp_unit,
    _far_tail_bound,
    chi_square_cdf,
    chi_square_quantile,
    noncentral_t_cdf,
    std_normal_cdf,
    std_normal_critical,
    student_t_critical,
)


def normal_cdf_oracle(x: float) -> float:
    """High-precision erf evaluation, independent of scipy."""
    with mpmath.workdps(40):
        return float(0.5 * (1 + mpmath.erf(x / mpmath.sqrt(2))))


def noncentral_t_mixture_oracle(x: float, dof: int, ncp: float) -> float:
    """Pr{(U + ncp) / sqrt(W / dof) <= x}: the normal CDF mixed over the chi law of sqrt(W)."""
    with mpmath.workdps(30):
        x, ncp, half = mpmath.mpf(x), mpmath.mpf(ncp), mpmath.mpf(dof) / 2
        lognorm = (1 - half) * mpmath.log(2) - mpmath.loggamma(half)
        root_dof = mpmath.sqrt(dof)

        def integrand(s):
            if s <= 0:
                return mpmath.mpf(0)
            log_chi = lognorm + (dof - 1) * mpmath.log(s) - s * s / 2
            return mpmath.ncdf(x * s / root_dof - ncp) * mpmath.exp(log_chi)

        # the chi density has unit-order width around its mode; split there
        mode = mpmath.sqrt(dof - 1)
        cuts = sorted({mode + k for k in (-40, -12, -4, -1, 1, 4, 12, 40) if mode + k > 0})
        return float(mpmath.quad(integrand, [0, *cuts, mpmath.inf]))


def bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    assert flo * f(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestNormal:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15
        assert std_normal_cdf(-40.0) <= 1e-15

    def test_against_erf_oracle(self):
        for x in (-6.0, -2.5, -0.3, 0.7, 1.6449, 3.2, 5.5):
            assert abs(std_normal_cdf(x) - normal_cdf_oracle(x)) <= 1e-15

    def test_against_trapezoid_integration(self):
        # 10^6-point trapezoid over [-12, 1.6449], written out because numpy
        # 1.24, the floor, has no np.trapezoid
        x = 1.6449
        grid = np.linspace(-12.0, x, 10**6)
        dens = np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)
        est = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
        assert abs(std_normal_cdf(x) - est) <= 1e-9

    def test_critical_median(self):
        assert std_normal_critical(0.5) == 0.0

    def test_critical_at_5_percent(self):
        ref = bisect(lambda z: std_normal_cdf(z) - 0.95, 0.0, 10.0)
        assert abs(std_normal_critical(0.05) - ref) <= 1e-12
        assert abs(std_normal_critical(0.05) - 1.6449) <= 1e-4

    def test_critical_antisymmetry(self):
        for d in (0.01, 0.2, 0.45):
            assert std_normal_critical(d) == pytest.approx(
                -std_normal_critical(1.0 - d), abs=1e-13
            )

    def test_critical_sign(self):
        assert std_normal_critical(0.4) > 0
        assert std_normal_critical(0.6) < 0

    def test_round_trip(self):
        for d in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-6):
            z = std_normal_critical(d)
            assert abs(std_normal_cdf(z) - (1.0 - d)) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                std_normal_critical(bad)

    def test_monotone_on_grid(self):
        xs = np.linspace(-10, 10, 10**4)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestStudentT:
    def test_median_is_zero(self):
        for dof in (1, 5, 40):
            assert student_t_critical(dof, 0.5) == 0.0

    def test_cauchy_quarter(self):
        # one degree of freedom: tan(pi (1/2 - 1/4)) = 1
        assert abs(student_t_critical(1, 0.25) - 1.0) <= 1e-12

    def test_13_dof_at_5_percent(self):
        def upper_tail(t):
            # numerical integration of the t density
            with mpmath.workdps(30):
                dof = 13
                c = mpmath.gamma((dof + 1) / 2) / (
                    mpmath.sqrt(dof * mpmath.pi) * mpmath.gamma(dof / 2)
                )
                val = mpmath.quad(
                    lambda x: c * (1 + x * x / dof) ** (-(dof + 1) / 2), [t, mpmath.inf]
                )
            return float(val)

        ref = bisect(lambda t: upper_tail(t) - 0.05, 0.0, 10.0, tol=1e-12)
        got = student_t_critical(13, 0.05)
        assert abs(got - ref) <= 1e-10
        assert abs(got - 1.7709) <= 2e-4

    def test_tail_mass_contract(self):
        for dof in (1, 2, 7, 30):
            for d in (0.01, 0.1, 0.4):
                t = student_t_critical(dof, d)
                mass = 0.5 * float(sp.betainc(dof / 2, 0.5, dof / (dof + t * t)))
                assert abs(mass - d) <= 1e-10

    def test_limits_to_normal(self):
        assert abs(
            student_t_critical(10**6, 0.05) - std_normal_critical(0.05)
        ) <= 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            student_t_critical(0, 0.1)
        with pytest.raises(DomainError):
            student_t_critical(5, 0.0)


class TestChiSquare:
    def test_at_zero(self):
        for dof in (1, 2, 9):
            assert chi_square_cdf(0.0, dof) == 0.0

    def test_two_dof_closed_form(self):
        assert abs(chi_square_cdf(2.0, 2) - (1.0 - math.exp(-1.0))) <= 1e-13

    def test_against_quadrature_oracle(self):
        with mpmath.workdps(30):
            ref = float(
                mpmath.quad(
                    lambda w: w ** 1.5 * mpmath.exp(-w / 2) / (2 ** 2.5 * mpmath.gamma(2.5)),
                    [0, 10],
                )
            )
        assert abs(chi_square_cdf(10.0, 5) - ref) <= 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            chi_square_cdf(-0.1, 3)

    def test_quantile_round_trip(self):
        for dof in (1, 2, 7, 20):
            for x0 in (0.05, 0.8, 3.0, 12.0):
                p = chi_square_cdf(x0, dof)
                if 0.0 < p < 1.0:
                    assert abs(chi_square_quantile(p, dof) - x0) <= 1e-8 * max(1.0, x0)

    def test_quantile_closed_form(self):
        assert abs(chi_square_quantile(1.0 - math.exp(-1.0), 2) - 2.0) <= 1e-10

    def test_quantile_median_oracle(self):
        ref = bisect(lambda x: chi_square_cdf(x, 7) - 0.5, 0.0, 50.0, tol=1e-12)
        assert abs(chi_square_quantile(0.5, 7) - ref) <= 1e-10

    def test_quantile_increasing(self):
        ps = np.linspace(0.01, 0.99, 99)
        qs = [chi_square_quantile(p, 6) for p in ps]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_stochastic_dominance_in_dof(self):
        xs = np.linspace(0.01, 30.0, 200)
        for dof in (1, 3, 8):
            for x in xs:
                assert chi_square_cdf(x, dof) >= chi_square_cdf(x, dof + 2)


class TestNoncentralT:
    def test_central_symmetric(self):
        assert abs(noncentral_t_cdf(0.0, 5, 0.0) - 0.5) <= 1e-9

    def test_reduces_to_central_t(self):
        for dof in (1, 4, 17):
            for x in (-2.5, -0.4, 0.9, 3.1):
                central = float(sp.stdtr(dof, x))
                assert abs(noncentral_t_cdf(x, dof, 0.0) - central) <= 1e-9

    def test_against_monte_carlo(self):
        # 10^8 paired draws via antithetic normals would be slow here; the
        # acceptance suite covers the large-draw check.  4e6 draws give a
        # standard error ~2.4e-4.
        rng = np.random.default_rng(20240817)
        n = 4 * 10**6
        u = rng.standard_normal(n)
        w = rng.chisquare(5, n)
        t = (u + 0.8) / np.sqrt(w / 5)
        est = float(np.mean(t <= 1.0))
        se = math.sqrt(est * (1 - est) / n)
        assert abs(noncentral_t_cdf(1.0, 5, 0.8) - est) <= 4 * se

    def test_against_mixture_integral(self):
        # the first point, a narrow chi peak at large dof, is one where adaptive
        # double-precision quadrature of the mixture came out 1.2e-10 off; the
        # rest are seeded draws of the law
        rng = np.random.default_rng(20261018)
        points = [(10.718487149279811, 90990, 7.781747073362908)]
        for _ in range(12):
            dof = int(math.exp(rng.uniform(0.0, math.log(1e5))))
            ncp = rng.uniform(-40.0, 40.0)
            x = (1.5 * rng.standard_normal() + ncp) / math.sqrt(rng.chisquare(dof) / dof)
            points.append((x, dof, ncp))
        for x, dof, ncp in points:
            ref = noncentral_t_mixture_oracle(x, dof, ncp)
            assert abs(noncentral_t_cdf(x, dof, ncp) - ref) <= 1e-12, (x, dof, ncp)

    def test_infinite_arguments(self):
        assert noncentral_t_cdf(float("inf"), 4, 1.0) == 1.0
        assert noncentral_t_cdf(float("-inf"), 4, 1.0) == 0.0

    def test_monotone_in_x(self):
        xs = np.linspace(-6, 6, 61)
        vals = [noncentral_t_cdf(x, 6, 1.3) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dof", [3, 300])
    @pytest.mark.parametrize("ncp", [1e10, -1e10, 1e12, -1e300])
    def test_scipy_nan_is_refused(self, dof, ncp):
        # scipy 1.17's nctdtr gives NaN once |ncp| >= 1e10, whatever x and
        # dof; the NaN is not passed on: at x = 0.5 the tail bound puts the
        # CDF within 1e-12 of its limit, 0 for ncp > 0 and 1 for ncp < 0
        value = float(sp.nctdtr(dof, ncp, 0.5))
        limit = 0.0 if ncp > 0.0 else 1.0
        assert noncentral_t_cdf(0.5, dof, ncp) == (limit if math.isnan(value) else value)
        assert noncentral_t_cdf(-0.5, dof, ncp) == pytest.approx(limit, abs=1e-12)

    @pytest.mark.skipif(
        not math.isnan(sp.nctdtr(3, 1e10, 1e12)),
        reason="this scipy's nctdtr computes |ncp| >= 1e10",
    )
    @pytest.mark.parametrize("x, ncp", [(1e12, 1e10), (-1e12, -1e10)])
    def test_scipy_nan_without_a_tight_bound_is_refused(self, x, ncp):
        # x / ncp = 100: the bound's chi-square term is about 1, so the CDF
        # is not known to lie near either limit
        with pytest.raises(DomainError, match="noncentral t CDF not computable"):
            noncentral_t_cdf(x, 3, ncp)

    @pytest.mark.parametrize("ncp", [1.0, -3.0, 10.0])
    @pytest.mark.parametrize("x", [1e-120, -1e-120, 1e-110, -1e-110, 1e-150])
    def test_tiny_x_at_one_dof_is_phi_of_minus_ncp(self, x, ncp):
        # scipy 1.17's nctdtr gives NaN at one degree of freedom for
        # 1e-161 <~ |x| <~ 1e-96; the density is at most 1 / sqrt(2 pi), so
        # F(x) lies within |x| / sqrt(2 pi) of F(0) = Phi(-ncp)
        assert noncentral_t_cdf(x, 1, ncp) == pytest.approx(normal_cdf_oracle(-ncp), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-60.0, 60.0),
        dof=st.integers(1, 2000),
        ncp=st.floats(1e-3, 60.0),
    )
    def test_far_tail_bound_bounds_the_cdf(self, x, dof, ncp):
        # where nctdtr computes, the bound the NaN fallback relies on holds
        value = float(sp.nctdtr(dof, ncp, x))
        assume(not math.isnan(value))
        assert value <= _far_tail_bound(x, dof, ncp) + 1e-12

    @pytest.mark.parametrize("dof", [3, 300])
    def test_large_ncp_below_the_nan_edge(self, dof):
        assert noncentral_t_cdf(0.5, dof, 1e9) == 0.0
        assert noncentral_t_cdf(0.5, dof, -1e9) == 1.0


def test_clamp_refuses_nan():
    with pytest.raises(InconsistentBoundaryError, match="NaN"):
        _clamp_unit(float("nan"))
    assert repr(_clamp_unit(-0.0)) == "-0.0"
    assert (_clamp_unit(-1e-9), _clamp_unit(1.0 + 1e-9)) == (0.0, 1.0)


# The scalar calls the package makes through scipy.special.cython_special,
# with arguments drawn from the domains it calls them on: dof / 2 for
# integer dof, and the probabilities, abscissae and Owen's T slopes
# (tan of an angle in [-pi/2, pi/2]) of its certificates.  Each must give
# the bits of the scipy.special ufunc of the same name.  Degrees of freedom
# are floats: the fused cython_special functions refuse a Python int.
_half_dof = st.integers(1, 10**6).map(lambda dof: 0.5 * dof)
_unit = st.floats(0.0, 1.0)
_CYTHON_CALLS = {
    "ndtri": st.tuples(_unit),
    "betainc": st.tuples(_half_dof, st.just(0.5), _unit),
    "betaincinv": st.tuples(_half_dof, st.just(0.5), _unit),
    "gammainc": st.tuples(_half_dof, st.floats(0.0, 1e7)),
    "gammaincinv": st.tuples(_half_dof, _unit),
    "gammaincc": st.tuples(_half_dof, st.floats(0.0, math.inf)),
    "nctdtr": st.tuples(
        st.integers(1, 10**6).map(float), st.floats(-1e11, 1e11), st.floats(-1e8, 1e8)
    ),
    "owens_t": st.tuples(st.floats(-60.0, 60.0), st.floats(-1e17, 1e17)),
}


@pytest.mark.parametrize("name", sorted(_CYTHON_CALLS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cython_special_has_the_bits_of_the_ufunc(name, data):
    args = data.draw(_CYTHON_CALLS[name])
    got = getattr(cython_special, name)(*args)
    assert type(got) is float
    assert repr(got) == repr(float(getattr(sp, name)(*args))), args
