"""Distribution primitives: normal, Student-t, chi-square, noncentral t.

Six scalar operations backed by scipy.special, each with an explicit
accuracy contract tighter than anything the rest of the package consumes:

- std_normal_cdf        lower-tail Phi, absolute error <= 1e-15
- std_normal_critical   upper-tail critical value, tail-mass error <= 1e-12
- student_t_critical    upper-tail critical value, tail-mass error <= 1e-10
- chi_square_cdf        regularized lower incomplete gamma, error <= 1e-13
- chi_square_quantile   inverse of the above, CDF round-trip <= 1e-10
- noncentral_t_cdf      scipy nctdtr (Boost), absolute error <= 1e-12

The t critical value refines scipy's inverse with Newton steps on the exact
tail mass because the library inverse alone misses the 1e-12 mark at one
degree of freedom.

Every call here takes scalars, so it goes through
``scipy.special.cython_special``: the same C code as the ufunc of the same
name, with the same bits, without the ufunc's per-call dispatch (0.1 to
1.3 us per call against 0.9 to 3 us).  ``ndtr`` is the exception: its
ufunc costs no more than the fused cython_special dispatch.  Fused
functions choose their C signature from the argument types and refuse a
Python int where a double is expected, so degrees of freedom are passed as
floats.  scipy's ``nctdtr`` returns NaN for |ncp| >= 1e10, and at one
degree of freedom for some tiny nonzero |x|; there noncentral_t_cdf
returns Phi(-ncp) when |x| is small enough for it to lie within 1e-12 of
the CDF, else the limit 0 or 1 when a tail bound puts the CDF within its
1e-12 of it, and raises otherwise rather than pass the NaN on as a
probability.
"""

from __future__ import annotations

import math

from scipy.special import cython_special as cs
from scipy.special import ndtr

from .errors import DomainError, InconsistentBoundaryError, count, real
from .quadrature import integrate  # noqa: F401  (unused; perfbench's binding test rebinds it)

_CLAMP_SLACK = 1e-7


def _require_open_unit(p: float, name: str) -> float:
    p = real(name, p, finite=False)
    if not (0.0 < p < 1.0):
        raise DomainError(f"{name} must lie in (0, 1), got {p!r}")
    return p


def _require_dof(dof: int) -> int:
    dof = count("dof", dof)
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    if dof > 2**53:  # above it a double no longer holds every count
        raise DomainError(f"dof must be at most 2**53, got {dof}")
    return dof


def _clamp_unit(value: float) -> float:
    """Clamp a computed probability to [0, 1]; raise if it is NaN or strays past _CLAMP_SLACK."""
    if 0.0 <= value <= 1.0:
        return float(value)
    if value < 0.0:
        if value < -_CLAMP_SLACK:
            raise InconsistentBoundaryError(f"probability {value} below 0")
        return 0.0
    if value > 1.0:
        if value > 1.0 + _CLAMP_SLACK:
            raise InconsistentBoundaryError(f"probability {value} above 1")
        return 1.0
    raise InconsistentBoundaryError("probability is NaN")


def std_normal_cdf(x: float) -> float:
    """Lower-tail standard normal CDF Pr{U <= x}."""
    return float(ndtr(real("x", x)))


def std_normal_critical(delta: float) -> float:
    """Upper-tail critical value z with Pr{U > z} = delta."""
    delta = _require_open_unit(delta, "delta")
    return -cs.ndtri(delta)


def _student_t_upper_tail(t: float, dof: int) -> float:
    # Pr{T > t} for t >= 0 via the regularized incomplete beta
    x = dof / (dof + t * t)
    return 0.5 * cs.betainc(0.5 * dof, 0.5, x)


def _student_t_pdf(t: float, dof: int) -> float:
    lognorm = (
        math.lgamma(0.5 * (dof + 1))
        - math.lgamma(0.5 * dof)
        - 0.5 * math.log(dof * math.pi)
    )
    return math.exp(lognorm - 0.5 * (dof + 1) * math.log1p(t * t / dof))


def student_t_critical(dof: int, delta: float) -> float:
    """Upper-tail critical value of Student's t with dof degrees of freedom."""
    dof = _require_dof(dof)
    delta = _require_open_unit(delta, "delta")
    if delta == 0.5:
        return 0.0
    p = min(delta, 1.0 - delta)
    # invert the incomplete-beta tail, then polish with Newton on the exact mass
    x = cs.betaincinv(0.5 * dof, 0.5, 2.0 * p)
    t = math.sqrt(dof * (1.0 - x) / x) if x > 0.0 else float("inf")
    for _ in range(3):
        resid = _student_t_upper_tail(t, dof) - p
        dens = _student_t_pdf(t, dof)
        if dens <= 0.0:
            break
        step = resid / dens
        if not math.isfinite(step):
            break
        t += step
        if abs(step) <= 1e-15 * max(1.0, abs(t)):
            break
    return t if delta < 0.5 else -t


def chi_square_cdf(x: float, dof: int) -> float:
    """Lower-tail chi-square CDF: regularized incomplete gamma P(dof/2, x/2)."""
    dof = _require_dof(dof)
    x = real("x", x, finite=False)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    return cs.gammainc(0.5 * dof, 0.5 * x)


def chi_square_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF."""
    dof = _require_dof(dof)
    p = _require_open_unit(p, "p")
    return 2.0 * cs.gammaincinv(0.5 * dof, p)


def noncentral_t_cdf(x: float, dof: int, ncp: float) -> float:
    """CDF of (U + ncp)/sqrt(W/dof) with U standard normal, W chi-square(dof).

    Computed by scipy's ``nctdtr`` (Boost) to absolute error <= 1e-12.
    Where nctdtr gives NaN (|ncp| >= 1e10, or 1e-161 <~ |x| <~ 1e-96 at one
    degree of freedom), F(0) = Phi(-ncp) is returned for |x| <= 2e-12, and
    else the limit, 0 for ncp > 0 or 1 for ncp < 0, when _far_tail_bound
    shows the CDF lies within 1e-12 of it; otherwise this raises
    DomainError.
    """
    dof = _require_dof(dof)
    x = real("x", x, finite=False)
    ncp = real("ncp", ncp)
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if x == float("inf"):
        return 1.0
    if x == float("-inf"):
        return 0.0
    value = cs.nctdtr(float(dof), ncp, x)
    if math.isnan(value):
        # the density E[S phi(x S - ncp)] is at most E[S] / sqrt(2 pi) <=
        # 1 / sqrt(2 pi), so |F(x) - F(0)| <= |x| / sqrt(2 pi) < 1e-12 here
        if abs(x) <= 2e-12:
            return float(ndtr(-ncp))
        # F(x; ncp) = 1 - F(-x; -ncp) turns ncp < 0 into the bounded case
        if ncp > 0.0 and _far_tail_bound(x, dof, ncp) <= 1e-12:
            return 0.0
        if ncp < 0.0 and _far_tail_bound(-x, dof, -ncp) <= 1e-12:
            return 1.0
        raise DomainError(
            f"noncentral t CDF not computable at x={x!r}, dof={dof}, ncp={ncp!r}"
        )
    return _clamp_unit(value)


def _far_tail_bound(x: float, dof: int, ncp: float) -> float:
    """An upper bound on the noncentral t CDF F(x) for ncp > 0.

    (U + ncp) / S <= x, S = sqrt(W / dof), needs U <= -ncp when x <= 0;
    when x > 0 it needs U <= -ncp / 2 or, failing that, x S >= ncp / 2.
    """
    if x <= 0.0:
        return float(ndtr(-ncp))
    r = ncp / (2.0 * x)  # may overflow to inf, whose chi-square tail is 0
    return float(ndtr(-0.5 * ncp)) + cs.gammaincc(0.5 * dof, 0.5 * dof * r * r)
