"""Independent oracles for the closed-form geometry, the unknown-variance
decomposition and the simulator: Monte Carlo and midpoint-grid integration
of 2-D domain probabilities, a simulation audit of the sample-decomposition
identity, a per-sample reference simulator and the stop tally it counts
with, the simulator's block draws at every stage, the samples a simulated
replicate stands for, a numpy ``Generator`` on scripted bits (which runs
numpy's samplers on chosen inputs), the scalar stage statistic written
out over a sample list, and the cone evaluator and known-variance
envelope as they stood before the envelope shared one kernel with
``cone_prob``: one ``ConeRegion`` per cone and one ``_barrier_integral``
per boundary piece.

Every seeded draw comes from a ``seqnorm.simulate._stream``, so the
package's seed-range check covers these oracles as well.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from numpy.random import Generator

from seqnorm.errors import DomainError, SeqnormError
from scipy.special import ndtr
from scipy.special.cython_special import owens_t

from seqnorm.geometry import ConeRegion
from seqnorm.plan_known import Decision, decision_code
from seqnorm.simulate import _BLOCK, _block_draw, _pool, _sim_report, _stream
from seqnorm.special import _clamp_unit, std_normal_cdf

_BLOCK_ROWS = 1 << 17  # Philox rows per draw block, two points per row
_PASS_POINTS = 1 << 15  # points per containment pass; larger passes leave cache
_CHUNK = 1 << 15  # replicates per draw of the per-sample oracles
_U_FLOOR = 2.0**-64  # inverse-CDF guard: random() can emit exactly 0


def _normal_block(seed: int, word_start: int, rows: int, cols: int) -> np.ndarray:
    """Standard normals, one per stream word, shaped (rows, cols).

    word_start must be a multiple of 4: one Philox counter step yields four
    64-bit words.
    """
    u = _stream(seed, word_start // 4).random((rows, cols))
    np.maximum(u, _U_FLOOR, out=u)
    return sp.ndtri(u)


def _words_per_replicate(n: int) -> int:
    return 4 * ((n + 3) // 4)


def section(region):
    """v -> (lo, hi): the region's u-interval at each v, empty where lo > hi.

    Both closed-form families are u-convex, so this one function states each
    region's inequality for every oracle.
    """
    if isinstance(region, ConeRegion):
        h, g, k = region.h, region.g, region.k
        return lambda v: (np.full_like(v, h), k * v + g)
    off, lam, h, g, k = region.offset, region.lam, region.h, region.g, region.k
    return lambda v: (off + np.sqrt(lam * v * v + h), off + k * v + g)


def mc_domain_prob_many(regions, draws: int, seed: int) -> list[tuple[float, float]]:
    """(estimate, binomial se) of each region's standard bivariate normal mass.

    All regions share one stream of draws points: Philox row r gives the two
    points (z[r, 0], z[r, 1]) and (z[r, 2], z[r, 3]).
    """
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    sections = [section(r) for r in regions]
    hits = [0] * len(sections)
    rows = (draws + 1) // 2
    for first in range(0, rows, _BLOCK_ROWS):
        z = _normal_block(seed, first * 4, min(_BLOCK_ROWS, rows - first), 4)
        points = min(2 * len(z), draws - 2 * first)
        # raveling the strided column pairs copies them into contiguous arrays
        u = z[:, 0::2].ravel()[:points]
        v = z[:, 1::2].ravel()[:points]
        for start in range(0, points, _PASS_POINTS):
            us = u[start : start + _PASS_POINTS]
            vs = v[start : start + _PASS_POINTS]
            for i, sec in enumerate(sections):
                lo, hi = sec(vs)
                hits[i] += int(np.count_nonzero((lo <= us) & (us <= hi)))
    out = []
    for count in hits:
        p = count / draws
        out.append((p, math.sqrt(p * (1.0 - p) / draws)))
    return out


def grid_points(half_width: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of a uniform grid on [-half_width, half_width] and their normal weights."""
    if half_width < 8.0:
        raise DomainError("half_width below 8 truncates more than 1e-15 of mass")
    if resolution < 512:
        raise DomainError("resolution below 512 is too coarse for the stated error budget")
    step = 2.0 * half_width / resolution
    mid = -half_width + step * (np.arange(resolution) + 0.5)
    w = np.exp(-0.5 * mid * mid) / math.sqrt(2.0 * math.pi) * step
    return mid, w


def grid_domain_prob(sec, half_width: float = 8.0, resolution: int = 4000) -> float:
    """Midpoint-rule integral of the standard bivariate density over a u-convex domain.

    sec maps v to the domain's u-interval (see ``section``).  Each inner sum
    over u is a prefix-sum difference of the one-dimensional weights; this
    equals the full two-dimensional midpoint sum term for term.
    """
    mid, w = grid_points(half_width, resolution)
    lo, hi = sec(mid)
    cum = np.concatenate(([0.0], np.cumsum(w)))
    left = np.searchsorted(mid, lo, side="left")
    right = np.searchsorted(mid, hi, side="right")
    right = np.maximum(right, left)
    inner = cum[right] - cum[left]
    return float(np.dot(w, inner))


@dataclass(frozen=True)
class DecompositionReport:
    replications: int
    identity_max_rel_err: float
    pooling_max_rel_err: float
    means: dict
    variances: dict
    max_abs_correlation: float
    correlation_threshold: float

    @property
    def passed(self) -> bool:
        return self.max_abs_correlation <= self.correlation_threshold


def _worst_rel_err(lhs: np.ndarray, rhs: np.ndarray, first: int, what: str) -> float:
    """Largest relative gap between lhs and rhs; above 1e-9 it raises."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    rel = np.abs(lhs - rhs) / np.where(scale > 0.0, scale, 1.0)
    worst = float(rel.max())
    if worst > 1e-9:
        offender = int(first + np.argmax(rel))
        raise AssertionError(
            f"{what} violated at replicate {offender}: relative error {worst:.3e}"
        )
    return worst


def sample_decomposition_check(
    n: int,
    m: int,
    replications: int,
    seed: int,
    mu: float = 0.0,
    sigma: float = 1.0,
) -> DecompositionReport:
    """Simulate the (U, V, Y, Z) split of a normal sample and audit it.

    U is the full-sample z-score, V the scaled difference between the first-
    block and second-block means, Y and Z the block sums of squared
    deviations over sigma^2.  Checks on every replicate, to 1e-9 relative
    (violation raises), the algebraic identity
    sum (x_i - mean_n)^2 = sigma^2 (Y + Z + V^2) and the simulator's own
    block pooling (``seqnorm.simulate._pool``) against that two-pass
    sum of squares; reports moments plus the largest pairwise correlation
    against a 4 / sqrt(replications) threshold.
    """
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    if replications < 2:
        raise DomainError("need at least 2 replications")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")

    width = _words_per_replicate(n)
    cols = {"U": [], "V": [], "Y": [], "Z": []}
    worst_identity = 0.0
    worst_pooling = 0.0

    for lo in range(0, replications, _CHUNK):
        hi = min(lo + _CHUNK, replications)
        z = _normal_block(seed, lo * width, hi - lo, width)[:, :n]
        x = mu + sigma * z
        first = x[:, :m]
        second = x[:, m:]
        mean_n = x.mean(axis=1)
        mean_first = first.mean(axis=1)
        mean_second = second.mean(axis=1)
        u = math.sqrt(n) * (mean_n - mu) / sigma
        v = math.sqrt(m * (n - m) / n) * (mean_first - mean_second) / sigma
        y = ((first - mean_first[:, None]) ** 2).sum(axis=1) / sigma**2
        zz = ((second - mean_second[:, None]) ** 2).sum(axis=1) / sigma**2

        two_pass = ((x - mean_n[:, None]) ** 2).sum(axis=1)
        worst_identity = max(worst_identity, _worst_rel_err(
            two_pass, sigma**2 * (y + zz + v * v), lo, "decomposition identity"
        ))
        _, pooled = _pool(
            first.sum(axis=1), sigma**2 * y, second.sum(axis=1), sigma**2 * zz, m, n - m
        )
        worst_pooling = max(worst_pooling, _worst_rel_err(
            two_pass, pooled, lo, "block pooling"
        ))
        cols["U"].append(u)
        cols["V"].append(v)
        cols["Y"].append(y)
        cols["Z"].append(zz)

    series = {key: np.concatenate(parts) for key, parts in cols.items()}
    means = {key: float(val.mean()) for key, val in series.items()}
    variances = {key: float(val.var()) for key, val in series.items()}
    names = ["U", "V", "Y", "Z"]
    max_corr = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            c = float(np.corrcoef(series[names[i]], series[names[j]])[0, 1])
            max_corr = max(max_corr, abs(c))
    return DecompositionReport(
        replications=replications,
        identity_max_rel_err=worst_identity,
        pooling_max_rel_err=worst_pooling,
        means=means,
        variances=variances,
        max_abs_correlation=max_corr,
        correlation_threshold=4.0 / math.sqrt(replications),
    )


_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and its four draw functions."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_U64),
        ("next_uint32", _NEXT_U32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT_U64),
    ]


_capsule_new = ctypes.pythonapi.PyCapsule_New
_capsule_new.restype = ctypes.py_object
_capsule_new.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]


class _ScriptedBits:
    """What numpy's ``Generator`` reads of a bit generator: a capsule holding
    a ``bitgen_t`` and a lock.  Its 64-bit words and doubles are the given
    ones, in order, then 0."""

    def __init__(self, words, doubles):
        words, doubles = iter(words), iter(doubles)
        # the callbacks live as long as this object, which the Generator holds
        self._calls = (
            _NEXT_U64(lambda _: next(words, 0)),
            _NEXT_U32(lambda _: 0),
            _NEXT_DOUBLE(lambda _: next(doubles, 0.0)),
            _NEXT_U64(lambda _: 0),
        )
        self._bitgen = _BitGen(None, *self._calls)
        self.capsule = _capsule_new(ctypes.addressof(self._bitgen), b"BitGenerator", None)
        self.lock = threading.Lock()


def scripted_generator(words=(), doubles=()) -> Generator:
    """A numpy ``Generator`` whose bit generator returns the given 64-bit words
    and doubles (each in [0, 1 - 2**-53] as numpy's are) in order, then 0:
    numpy's own samplers run on chosen inputs."""
    return Generator(_ScriptedBits(words, doubles))


def stop_tally(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """How many replicates stop at each stage, and how many of those accept,
    from every replicate's decision code at every stage (stages in rows,
    replicates in columns): the reference for the counts simulate_plan's
    walk keeps as it goes.

    A replicate stops at the first stage it reaches that does not continue.
    """
    reached = np.ones_like(codes, dtype=bool)
    for idx in range(1, len(codes)):
        reached[idx] = reached[idx - 1] & (codes[idx - 1] == Decision.CONTINUE)
    stops = reached & (codes != Decision.CONTINUE)
    if np.count_nonzero(stops) != codes.shape[1]:
        raise SeqnormError("final stage failed to decide; plan invariant broken")
    accepted = np.count_nonzero(stops & (codes == Decision.ACCEPT))
    return np.count_nonzero(stops, axis=1), int(accepted)


def reference_simulate_plan(plan, mu: float, sigma: float, replications: int, seed: int):
    """simulate_plan's report from per-sample data: each replicate draws all
    n_max normals from its own stream window, and stage sums and sums of
    squares come from cumulative sums over them."""
    n_max = plan.sizes[-1]
    width = _words_per_replicate(n_max)
    last = np.array(plan.sizes) - 1
    n = np.array(plan.sizes, dtype=float)[:, None]
    a = np.array([[st.a] for st in plan.stages])
    b = np.array([[st.b] for st in plan.stages])
    rows = max(1, min(_CHUNK, (1 << 22) // width))
    hist, accepted = np.zeros(plan.num_stages, dtype=np.int64), 0
    for lo in range(0, replications, rows):
        hi = min(lo + rows, replications)
        x = (mu - plan.gamma) + sigma * _normal_block(seed, lo * width, hi - lo, width)[:, :n_max]
        sums = np.cumsum(x, axis=1)[:, last].T
        squares = np.maximum(np.cumsum(x * x, axis=1)[:, last].T - sums * sums / n, 0.0)
        stats = plan.stage_statistics(sums + n * plan.gamma, squares, n)
        stops, stopped_accepting = stop_tally(decision_code(stats, a, b))
        hist += stops
        accepted += stopped_accepting
    return _sim_report(plan, replications, seed, (hist, accepted))


def block_draws(plan, shift: float, sigma: float, seed: int, lo: int, hi: int):
    """Every stage block's sums of replicates lo..hi-1 and, for a studentized
    plan, their within-block sums of squared deviations (None otherwise),
    stages in rows: the simulator's draws with no replicate stopping.

    The samples are normal(shift, sigma^2), shift being the data's mean
    minus the plan's gamma.  Each replicate block's stage draws go to its
    rows in order, so a block drawn up to row hi - 1 gives its rows the
    draws a longer one does.
    """
    sums, squares = [], []
    for block in range(lo // _BLOCK, -(-hi // _BLOCK)):
        first = block * _BLOCK
        rows = min(_BLOCK, hi - first)
        prev = 0
        draws = []
        for i, n in enumerate(plan.sizes):
            draws.append(_block_draw(seed, block, i, False, rows, n - prev, shift, sigma,
                                     plan.studentized))
            prev = n
        skip = max(lo - first, 0)
        sums.append(np.array([block_sums[skip:] for block_sums, _ in draws]))
        if plan.studentized:
            squares.append(np.array([block_squares[skip:] for _, block_squares in draws]))
    return np.hstack(sums), np.hstack(squares) if plan.studentized else None


def replicate_samples(plan, mu: float, sigma: float, r: int, seed: int) -> list[float]:
    """Samples with replicate r's block sums and within-block sums of squares
    at every stage.

    Replays r's replicate block up to row r at every stage: the rows still
    sampling take the draws of kinds 0 and 1 in row order, and the rows that
    have stopped those of kinds 2 and 3, as mc_transition_sums's walk does,
    so r's draws while it samples are simulate_plan's.  Each block of dn
    samples is its mean plus sqrt(W) times the unit vector (1, ..., 1,
    -(dn - 1)) / sqrt(dn (dn - 1)), which is orthogonal to the ones vector,
    so its sum and its sum of squared deviations are the simulator's.  A
    plan that is not studentized draws no W; its blocks are constant.
    """
    block, row = divmod(r, _BLOCK)
    shift = mu - plan.gamma
    sampling = np.ones(row + 1, dtype=bool)
    sums = squares = None
    samples = []
    prev = 0
    for i, st in enumerate(plan.stages):
        dn = st.n - prev
        block_sums = np.empty(row + 1)
        block_squares = np.empty(row + 1) if plan.studentized else None
        for stopped, rows in ((False, sampling), (True, ~sampling)):
            drawn_sums, drawn_squares = _block_draw(
                seed, block, i, stopped, int(np.count_nonzero(rows)), dn, shift, sigma,
                plan.studentized,
            )
            block_sums[rows] = drawn_sums
            if plan.studentized:
                block_squares[rows] = drawn_squares
        mean = plan.gamma + float(block_sums[row]) / dn
        spread = 0.0 if block_squares is None or dn == 1 else math.sqrt(
            block_squares[row] / (dn * (dn - 1))
        )
        samples += [mean + spread] * (dn - 1) + [mean - (dn - 1) * spread]
        # _pool works in place: block_sums and block_squares are not read after it
        sums, squares = _pool(sums, squares, block_sums, block_squares, prev, dn)
        prev = st.n
        stats = plan.stage_statistics(sums + prev * plan.gamma, squares, float(prev))
        sampling &= decision_code(stats, st.a, st.b) == Decision.CONTINUE
    return samples


def reference_statistic(plan, samples, n: int) -> float:
    """The stage statistic of the first n samples, in scalar float code:
    sqrt(n) (mean - gamma) / sd with an fsum mean, sd being the plan's
    sigma or, for an unknown-variance plan, the sample deviation from a
    two-pass fsum of squared deviations."""
    window = samples[:n]
    mean = math.fsum(window) / n
    if plan.studentized:
        ss = math.fsum((x - mean) ** 2 for x in window)
        sd = math.sqrt(ss / (n - 1))
    else:
        sd = plan.sigma
    return math.sqrt(n) * (mean - plan.gamma) / sd


_HALF_PI = 0.5 * math.pi


def reference_barrier_integral(level: float, lo: float, hi: float) -> float:
    """The signed polar integral of a straight piece at distance level, with
    its period and both antiderivative ends written out in one body."""
    period = float(ndtr(-abs(level)))
    m = round(hi / math.pi)
    x = min(max(hi - m * math.pi, -_HALF_PI), _HALF_PI)
    upper = m * period + owens_t(level, math.tan(x))
    m = round(lo / math.pi)
    x = min(max(lo - m * math.pi, -_HALF_PI), _HALF_PI)
    return upper - (m * period + owens_t(level, math.tan(x)))


def reference_cone_prob(region: ConeRegion) -> float:
    """cone_prob with every shared value recomputed per cone: the
    three-configuration split over four barrier integrals."""
    h, g, k = region.h, region.g, region.k
    phi_k = math.atan(k)
    kh = k * h
    if kh != 0.0:
        phi_r = math.atan((h - g) / kh)
    elif h == 0.0:
        phi_r = _HALF_PI
    else:
        phi_r = 0.0 if h == g else math.copysign(_HALF_PI, (h - g) * h)
    d = abs(g) / math.sqrt(1.0 + k * k)
    if max(g, h) < 0.0:
        value = reference_barrier_integral(
            d, _HALF_PI, math.pi + phi_k + phi_r
        ) - reference_barrier_integral(h, _HALF_PI, math.pi + phi_r)
    elif h <= 0.0 <= g:
        value = (
            1.0
            - reference_barrier_integral(h, _HALF_PI, math.pi + phi_r)
            - reference_barrier_integral(d, phi_k + phi_r, 1.5 * math.pi)
        )
    else:
        value = reference_barrier_integral(h, phi_r, _HALF_PI) - reference_barrier_integral(
            d, phi_k + phi_r, _HALF_PI
        )
    return _clamp_unit(value)


def reference_phi_terms(theta: float, stages):
    """The cone pair of each stage after the first, as ConeRegions."""
    for prev, cur in zip(stages[:-1], stages[1:]):
        ratio = cur.n / prev.n
        k = math.sqrt(ratio - 1.0)
        root = math.sqrt(cur.n) * theta
        h = cur.b - root
        g_b = -root + math.sqrt(ratio) * prev.b
        g_a = -root + math.sqrt(ratio) * prev.a
        yield ConeRegion(h=h, g=g_b, k=k), ConeRegion(h=h, g=g_a, k=k)


def reference_oc_upper_phi(theta: float, plan) -> float:
    """The known-variance rejection envelope, one reference_cone_prob per cone."""
    stages = plan.stages
    total = std_normal_cdf(math.sqrt(stages[0].n) * theta - stages[0].b)
    for region_b, region_a in reference_phi_terms(theta, stages):
        total += reference_cone_prob(region_b) - reference_cone_prob(region_a)
    return total
