"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import functools
import math
import sys

import numpy as np

from seqnorm.geometry import (
    ConeRegion,
    HyperbolaConeRegion,
    classify_branch,
    cone_prob,
    hyperbola_cone_prob,
)
from seqnorm.plan_known import oc_upper_phi
from seqnorm.plan_unknown import (
    oc_upper_P,
    stage_term_cells,
)
from seqnorm.runner import load_plan
from seqnorm.simulate import mc_transition_sums, simulate_plan
from seqnorm.special import (
    chi_square_cdf,
    chi_square_quantile,
    std_normal_cdf,
    std_normal_critical,
    student_t_critical,
)

from oracles import (
    grid_domain_prob,
    mc_domain_prob_many,
    sample_decomposition_check,
    section,
)

TWO_PI = 2.0 * math.pi


def mc_se_against(hypothesized: float, est: float, se: float, draws: int) -> float:
    """Standard error for testing est against a hypothesized probability.

    With zero observed hits the empirical binomial se collapses to zero;
    the z-test against the closed-form value uses that value's variance.
    """
    p = min(max(hypothesized, 0.0), 1.0)
    return max(se, math.sqrt(p * (1.0 - p) / draws))


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} [FAIL] {title}", file=sys.stderr, flush=True)
                raise
            print(f"criterion {number:02d} [PASS] {title}", flush=True)

        return run

    return wrap


@criterion(1, "wedge identity cone_prob(0,0,k) = arctan(k)/2pi to 1e-9")
def test_criterion_01_wedge_identity():
    for k in (0.1, 0.5, 1.0, 2.0, 10.0):
        got = cone_prob(ConeRegion(0.0, 0.0, k))
        assert abs(got - math.atan(k) / TWO_PI) <= 1e-9


CONE_TRIPLES = []
_K_CYCLE = (0.45, 0.8, 1.35, 2.6)


def _with_ks(pairs):
    return [(h, g, _K_CYCLE[i % len(_K_CYCLE)]) for i, (h, g) in enumerate(pairs)]


# ten (h, g) pairs per sign configuration
CONE_TRIPLES += _with_ks(
    [(-2.1, -1.9), (-1.4, -0.9), (-1.1, -0.33), (-0.8, -0.77), (-0.62, -0.15),
     (-0.5, -0.41), (-2.8, -0.07), (-1.7, -1.1), (-0.9, -0.52), (-3.3, -2.4)]
)  # h <= g < 0
CONE_TRIPLES += _with_ks(
    [(-1.8, 0.3), (-0.9, 1.4), (-0.33, 0.07), (-2.2, 2.1), (-0.11, 0.9),
     (-1.3, 0.0), (0.0, 0.55), (-0.7, 0.22), (-0.05, 1.8), (0.0, 0.0)]
)  # h <= 0 <= g
CONE_TRIPLES += _with_ks(
    [(0.22, 0.9), (0.6, 1.7), (1.1, 1.1), (0.08, 0.08), (0.45, 2.3),
     (0.9, 1.05), (1.35, 2.6), (0.3, 0.62), (0.17, 1.3), (2.1, 2.4)]
)  # 0 < h <= g
CONE_TRIPLES += _with_ks(
    [(0.9, 0.22), (1.7, 0.6), (1.2, 1.05), (0.62, 0.3), (2.3, 0.45),
     (1.05, 0.9), (2.6, 1.35), (0.33, 0.08), (1.3, 0.17), (2.4, 2.1)]
)  # 0 < g < h
CONE_TRIPLES += _with_ks(
    [(0.3, -1.8), (1.4, -0.9), (0.07, -0.33), (2.1, -2.2), (0.9, -0.11),
     (0.0, -1.3), (0.55, 0.0), (0.22, -0.7), (1.8, -0.05), (0.62, -0.44)]
)  # g <= 0 <= h
CONE_TRIPLES += _with_ks(
    [(-1.9, -2.1), (-0.9, -1.4), (-0.33, -1.1), (-0.77, -0.8001), (-0.15, -0.62),
     (-0.41, -0.5), (-0.07, -2.8), (-1.1, -1.7), (-0.52, -0.9), (-2.4, -3.3)]
)  # g < h < 0


@criterion(2, "cone evaluator vs grid (1e-5) and MC (4 se at 1e7 draws), 60 triples")
def test_criterion_02_cone_oracles():
    assert len(CONE_TRIPLES) >= 60
    regions = [ConeRegion(h, g, k) for h, g, k in CONE_TRIPLES]
    closed = [cone_prob(r) for r in regions]
    for r, cf in zip(regions, closed):
        ref = grid_domain_prob(section(r), resolution=400_000)
        assert abs(cf - ref) <= 1e-5, (r, cf, ref)
    mc = mc_domain_prob_many(regions, draws=10**7, seed=92)
    for r, cf, (est, se) in zip(regions, closed, mc):
        tol = 4 * mc_se_against(cf, est, se, 10**7)
        assert abs(cf - est) <= tol, (r, cf, est, se)


HYPERBOLA_LEAVES = {
    "np1": (0.6, 2.0, 2.0, 1.8, 0.8),
    "np2": (-0.7, 2.0, 0.8, 1.8, 1.4),
    "np3": (-0.3, 1.0, 0.2, 1.8, 0.8),
    "np4": (-0.7, 2.0, 0.2, 1.8, 0.8),
    "np5": (-3.0, 2.0, 0.8, 1.8, 0.8),
    "pp1": (0.0, 0.25, 0.2, 0.4, 0.4),
    "pp2": (-0.3, 0.25, 0.2, 0.4, 0.4),
    "pp3": (-0.7, 1.0, 0.2, 0.4, 0.8),
    "n1": (0.0, 0.5, 0.8, 0.9, 0.8),
    "n2": (-0.7, 1.0, 0.8, 0.9, 2.4),
    "n3": (-0.3, 1.0, 0.2, 1.8, 1.4),
    "n4": (-0.7, 1.0, 0.0, 0.9, 2.4),
    "n5": (-2.0, 0.25, 0.2, 0.9, 0.8),
    "p1": (0.0, 0.5, 0.8, 0.4, 2.4),
    "p2": (-0.3, 1.0, 0.2, 0.1, 2.4),
    "p3": (-1.2, 0.5, 0.8, 0.1, 1.4),
}
HYPERBOLA_ZERO = (0.5, 2.0, 0.8, -0.5, 0.4)


def _hyper(params):
    off, lam, h, g, k = params
    return HyperbolaConeRegion(offset=off, lam=lam, h=h, g=g, k=k)


@criterion(3, "hyperbola-cone: all 16 leaves + zero vs grid/MC, boundary continuity")
def test_criterion_03_hyperbola_branches():
    leaves = {leaf: _hyper(p) for leaf, p in HYPERBOLA_LEAVES.items()}
    assert {classify_branch(r) for r in leaves.values()} == set(HYPERBOLA_LEAVES)
    zero_region = _hyper(HYPERBOLA_ZERO)
    assert classify_branch(zero_region) == "zero"
    assert hyperbola_cone_prob(zero_region) == 0.0

    order = sorted(leaves)
    regions = [leaves[leaf] for leaf in order]
    closed = [hyperbola_cone_prob(r) for r in regions]
    for leaf, r, cf in zip(order, regions, closed):
        ref = grid_domain_prob(section(r), resolution=400_000)
        assert abs(cf - ref) <= 1e-5, (leaf, cf, ref)
    mc = mc_domain_prob_many(regions, draws=10**8, seed=55)
    for leaf, cf, (est, se) in zip(order, closed, mc):
        tol = 4 * mc_se_against(cf, est, se, 10**8)
        assert abs(cf - est) <= tol, (leaf, cf, est, se)

    # continuity probes across every origin-position boundary and the
    # feasibility boundary, 1e-6 on each side
    def jump(lam, h, g, k, at):
        lo = hyperbola_cone_prob(HyperbolaConeRegion(offset=at - 1e-6, lam=lam, h=h, g=g, k=k))
        hi = hyperbola_cone_prob(HyperbolaConeRegion(offset=at + 1e-6, lam=lam, h=h, g=g, k=k))
        return abs(hi - lo)

    lam, h, g, k = 2.0, 0.8, 1.8, 0.8
    sqd = math.sqrt(h * (k * k - lam) + lam * g * g)
    z_a = (lam * g - k * sqd) / (lam - k * k)
    z_b = (lam * g + k * sqd) / (lam - k * k)
    for at in (-h / z_b, -h / z_a, -math.sqrt(h), -g):
        assert jump(lam, h, g, k, at) <= 1e-4
    lam, h, g, k = 0.5, 0.8, 1.8, 1.4
    sqd = math.sqrt(h * (k * k - lam) + lam * g * g)
    z_a = (lam * g - k * sqd) / (lam - k * k)
    for at in (0.0, -h / z_a, -math.sqrt(h), -g):
        assert jump(lam, h, g, k, at) <= 1e-4
    lam, h, g, k = 2.0, 0.8, 0.88, 0.4
    sqd = math.sqrt(h * (k * k - lam) + lam * g * g)
    z_a = (lam * g - k * sqd) / (lam - k * k)
    z_b = (lam * g + k * sqd) / (lam - k * k)
    for at in (-h / z_b, -h / z_a):
        assert jump(lam, h, g, k, at) <= 1e-4
    lam, h, g, k = 0.5, 2.0, 0.3, 1.4
    sqd = math.sqrt(h * (k * k - lam) + lam * g * g)
    z_a = (lam * g - k * sqd) / (lam - k * k)
    for at in (0.0, -h / z_a):
        assert jump(lam, h, g, k, at) <= 1e-4
    # feasibility boundary (tangency) in g
    lam, h, k = 2.0, 0.8, 0.4
    g0 = math.sqrt(h * (lam - k * k) / lam)
    for off in (-0.5, 0.2):
        lo = hyperbola_cone_prob(HyperbolaConeRegion(offset=off, lam=lam, h=h, g=g0 - 1e-6, k=k))
        hi = hyperbola_cone_prob(HyperbolaConeRegion(offset=off, lam=lam, h=h, g=g0 + 1e-6, k=k))
        assert abs(hi - lo) <= 1e-4


@criterion(4, "special functions: round trips, Cauchy and 2-dof closed forms")
def test_criterion_04_special_functions():
    for d in np.linspace(1e-6, 1 - 1e-6, 2001):
        z = std_normal_critical(float(d))
        assert abs(std_normal_cdf(z) - (1.0 - d)) <= 1e-10
    for dof in (1, 3, 11, 40):
        for p in np.linspace(0.001, 0.999, 499):
            x = chi_square_quantile(float(p), dof)
            assert abs(chi_square_cdf(x, dof) - p) <= 1e-10
    assert abs(student_t_critical(1, 0.25) - 1.0) <= 1e-12
    assert abs(chi_square_cdf(2.0, 2) - (1.0 - math.exp(-1.0))) <= 1e-13


@criterion(5, "known-variance certification and the exactness identity at mu0/mu1")
def test_criterion_05_known_certification(known_plan, known_calibration):
    plan = known_plan
    assert plan.certified
    reps = 10**6
    at_mu0 = simulate_plan(plan, mu=-0.5, sigma=1.0, replications=reps, seed=1001)
    at_mu1 = simulate_plan(plan, mu=+0.5, sigma=1.0, replications=reps, seed=1002)
    assert at_mu0.reject_rate <= 0.05 + 4 * at_mu0.mc_se
    se_acc = math.sqrt(at_mu1.accept_rate * (1 - at_mu1.accept_rate) / reps)
    assert at_mu1.accept_rate <= 0.05 + 4 * se_acc
    # exactness identity: phi(-eps) equals the MC estimate of the sum of
    # adjacent-stage transition probabilities, the quantity the identity
    # concerns; the stopped rejection rate is bounded by it
    phi_val = oc_upper_phi(-0.5, plan)
    ts = mc_transition_sums(plan, mu=-0.5, sigma=1.0, replications=reps, seed=1003)
    assert abs(phi_val - ts.reject_sum) <= 4 * ts.reject_se
    assert at_mu0.reject_rate <= phi_val + 4 * at_mu0.mc_se
    # mirror identity on the acceptance side
    phi_mirror = oc_upper_phi(-0.5, plan.mirror())
    ts1 = mc_transition_sums(plan, mu=+0.5, sigma=1.0, replications=reps, seed=1004)
    assert abs(phi_mirror - ts1.accept_sum) <= 4 * ts1.accept_se


@criterion(6, "unknown-variance interval sandwich and certified bound at mu0")
def test_criterion_06_unknown_sandwich(unknown_plan, unknown_calibration):
    plan = unknown_plan
    assert plan.certified
    lower, upper = oc_upper_P(-0.5, plan, tail_mass=1e-4, cell_budget=256)
    assert upper <= 0.05
    reps = 10**6
    ts = mc_transition_sums(plan, mu=-0.5, sigma=1.0, replications=reps, seed=2001)
    assert lower - 4 * ts.reject_se <= ts.reject_sum <= upper + 4 * ts.reject_se
    stopped = simulate_plan(plan, mu=-0.5, sigma=1.0, replications=reps, seed=2002)
    assert stopped.reject_rate <= upper + 4 * stopped.mc_se


@criterion(7, "OC monotone in mu for both plan kinds (11-point grid)")
def test_criterion_07_oc_monotone(known_plan, unknown_plan):
    grid = [(-1.5 + 0.3 * i) for i in range(11)]
    reps = 2 * 10**5
    for plan in (known_plan, unknown_plan):
        rates = []
        ses = []
        for mu in grid:
            rep = simulate_plan(plan, mu=mu, sigma=1.0, replications=reps, seed=3003)
            rates.append(rep.accept_rate)
            ses.append(math.sqrt(rep.accept_rate * (1 - rep.accept_rate) / reps))
        for i in range(len(grid) - 1):
            slack = 4 * math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
            assert rates[i + 1] <= rates[i] + slack, (plan.kind, grid[i], rates)


@criterion(8, "sample-number tail bounds dominate MC frequencies at five thetas")
def test_criterion_08_asn_bounds(known_plan, unknown_plan):
    reps = 2 * 10**5
    for plan in (known_plan, unknown_plan):
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            rep = simulate_plan(plan, mu=theta, sigma=1.0, replications=reps, seed=4004)
            stopped_by = np.cumsum(rep.stage_histogram)
            for ell in range(1, plan.num_stages):
                continue_freq = 1.0 - stopped_by[ell - 1] / reps
                bound = plan.sample_tail(ell, theta)
                se = math.sqrt(max(continue_freq * (1 - continue_freq), 1e-12) / reps)
                assert continue_freq <= bound + 4 * se, (plan.kind, theta, ell)


@criterion(9, "sample decomposition identity and moment checks (1e4 replicates)")
def test_criterion_09_decomposition():
    report = sample_decomposition_check(10, 4, replications=10**4, seed=515,
                                        mu=0.4, sigma=1.9)
    assert report.identity_max_rel_err <= 1e-9
    n = report.replications
    assert abs(report.means["Y"] - 3.0) <= 4 * math.sqrt(6.0 / n)
    assert abs(report.means["Z"] - 5.0) <= 4 * math.sqrt(10.0 / n)
    assert abs(report.means["U"]) <= 4 / math.sqrt(n)
    assert abs(report.means["V"]) <= 4 / math.sqrt(n)
    assert abs(report.variances["U"] - 1.0) <= 4 * math.sqrt(2.0 / n)
    assert abs(report.variances["V"] - 1.0) <= 4 * math.sqrt(2.0 / n)
    assert report.max_abs_correlation <= report.correlation_threshold


@criterion(10, "interval width nonincreasing over cell budgets 4/16/64/256")
def test_criterion_10_refinement_monotone(unknown_plan):
    plan = unknown_plan
    tail_budget = 1e-4 / (plan.num_stages - 1)
    widths = []
    for budget in (4, 16, 64, 256):
        cells, evaluator, _ = stage_term_cells(-0.5, plan, 2, tail_budget, budget)
        lo = math.fsum(cells[:, 4])
        hi = math.fsum(cells[:, 5])
        widths.append(hi - lo)
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:])), widths


@criterion(11, "end-to-end determinism of design/oc/simulate and run chunking")
def test_criterion_11_cli_determinism(tmp_path, capsys):
    from seqnorm.cli import main

    design = [
        "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
        "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
        "--rho", "1", "--tau", "3", "--calibrate",
    ]
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(design + ["--out", str(p1)]) == 0
    assert main(design + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    oc1, oc2 = tmp_path / "oc1.csv", tmp_path / "oc2.csv"
    for out in (oc1, oc2):
        assert main([
            "oc", str(p1), "--theta-min", "-1.5", "--theta-max", "1.5",
            "--points", "13", "--out", str(out),
        ]) == 0
    assert oc1.read_bytes() == oc2.read_bytes()

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (s1, s2):
        assert main([
            "simulate", str(p1), "--mu", "-0.5", "--reps", "50000",
            "--seed", "3", "--out", str(out),
        ]) == 0
    assert s1.read_bytes() == s2.read_bytes()

    # run chunking invariance on a scripted stream
    plan = load_plan(p1)
    rng = np.random.default_rng(606)
    rows = [f"{x:.17g}" for x in rng.normal(0.3, 1.0, plan.sizes[-1])]
    (tmp_path / "all.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "a.csv").write_text("\n".join(rows[:4]) + "\n")
    (tmp_path / "b.csv").write_text("\n".join(rows[4:9]) + "\n")
    (tmp_path / "c.csv").write_text("\n".join(rows[9:]) + "\n")
    combined, split = tmp_path / "combined.json", tmp_path / "split.json"
    main(["run", str(p1), "--session", str(combined), "--data", str(tmp_path / "all.csv")])
    for part in ("a.csv", "b.csv", "c.csv"):
        code = main(["run", str(p1), "--session", str(split), "--data", str(tmp_path / part)])
        if code in (0, 3):
            break
    capsys.readouterr()
    import json

    a = json.loads(combined.read_text())
    b = json.loads(split.read_text())
    assert a["status"] == b["status"]
    assert a["history"] == b["history"]
