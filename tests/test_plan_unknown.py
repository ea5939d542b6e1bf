"""Unknown-variance plans: construction, statistics, partition bounds."""

import math
import warnings

import numpy as np
import pytest

from seqnorm import geometry, plan_unknown
from seqnorm.errors import DegenerateSampleError, DomainError, InsufficientDataError
from seqnorm.plan_unknown import (
    PartitionCell,
    _partition,
    build_unknown_plan,
    min_stage_size,
    mirror_unknown_plan,
    oc_upper_P,
    stage_term_cells,
)
from seqnorm.simulate import mc_transition_sums
from seqnorm.special import chi_square_cdf, noncentral_t_cdf, student_t_critical


def t_crit_bisect(dof, delta):
    """Independent bisection on the t tail via scipy's CDF."""
    import scipy.special as sp

    lo, hi = 0.0, 200.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 1.0 - float(sp.stdtr(dof, mid)) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMinStageSize:
    def test_pinned_example(self):
        n = min_stage_size(0.05, 0.05, 0.5, zeta=1.0)
        assert n == 14
        # re-verify the crossover with an independent critical-value oracle
        for cand, expect in ((14, True), (13, False)):
            dof = cand - 1
            lhs = t_crit_bisect(dof, 0.05) + t_crit_bisect(dof, 0.05)
            assert (lhs <= 2 * 0.5 * math.sqrt(dof)) is expect

    def test_boundary_verification(self):
        n = min_stage_size(0.03, 0.08, 0.4, zeta=0.5)
        dof = n - 1

        def lhs(m):
            return student_t_critical(m - 1, 0.5 * 0.03) + student_t_critical(m - 1, 0.5 * 0.08)

        assert lhs(n) <= 2 * 0.4 * math.sqrt(dof)
        assert lhs(n - 1) > 2 * 0.4 * math.sqrt(n - 2)

    def test_monotone_in_epsilon(self):
        sizes = [min_stage_size(0.05, 0.05, eps, zeta=1.0) for eps in (0.2, 0.4, 0.8)]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_monotone_in_zeta(self):
        sizes = [min_stage_size(0.05, 0.05, 0.5, zeta=z) for z in (0.05, 0.3, 1.0)]
        assert sizes[0] >= sizes[1] >= sizes[2]


class TestBuild:
    def test_pinned_ladder(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1.0, rho=1.0, tau=3)
        assert plan.sizes[-1] == 14
        assert plan.sizes == (4, 7, 14)

    def test_single_stage(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1.0, rho=1.0, tau=1)
        assert plan.sizes == (14,)

    def test_symmetric_thresholds(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1.0, rho=1.0, tau=3)
        assert plan.theta_star == 0.0
        for stage in plan.stages:
            assert stage.a == pytest.approx(-stage.b, abs=1e-12)

    def test_small_sizes_clipped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            plan = build_unknown_plan(0.3, 0.3, 2.0, 0.0, zeta=1.0, rho=8.0, tau=4)
        assert plan.sizes[0] == 2

    def test_threshold_consistency(self):
        plan = build_unknown_plan(0.05, 0.02, 0.5, 0.0, zeta=0.3, rho=1.0, tau=3)
        for stage in plan.stages:
            root = math.sqrt(stage.n - 1)
            c = stage.a / root
            d = stage.b / root
            assert c * root == stage.a
            assert d * root == stage.b

    def test_mirror_swaps(self):
        plan = build_unknown_plan(0.2, 0.02, 0.5, 0.0, zeta=0.4, rho=1.0, tau=3)
        mirrored = plan.mirror()
        assert mirrored.sizes == plan.sizes
        for s, m in zip(plan.stages, mirrored.stages):
            assert m.a == pytest.approx(-s.b, abs=1e-12)
            assert m.b == pytest.approx(-s.a, abs=1e-12)


def statistic_unknown(samples, n, gamma):
    plan = build_unknown_plan(0.05, 0.05, 0.5, gamma, zeta=1.0, rho=1.0, tau=3)
    return plan.statistic(samples, n)


class TestStatistic:
    def test_symmetric_samples_give_zero(self):
        assert statistic_unknown([3.0, 1.0, 3.0, 1.0], 4, gamma=2.0) == pytest.approx(0.0)

    def test_alternating_at_gamma(self):
        gamma = 5.0
        samples = [gamma + 1, gamma - 1, gamma + 1, gamma - 1]
        assert statistic_unknown(samples, 4, gamma) == pytest.approx(0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        samples = list(rng.normal(4.0, 2.5, size=40))
        n, gamma = 31, 3.7
        window = samples[:n]
        mean = sum(window) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in window) / (n - 1))
        naive = math.sqrt(n) * (mean - gamma) / sd
        assert statistic_unknown(samples, n, gamma) == pytest.approx(naive, rel=1e-12)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            statistic_unknown([2.0, 2.0, 2.0], 3, 1.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            statistic_unknown([1.0], 2, 0.0)
        with pytest.raises(DomainError):
            statistic_unknown([1.0, 2.0], 1, 0.0)


class TestEnvelopeInterval:
    PLAN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_interval_orders(self):
        lo, hi = oc_upper_P(-0.5, self.PLAN, tail_mass=1e-4, cell_budget=32)
        assert 0.0 <= lo <= hi

    def test_budget_tightens(self):
        widths = []
        for budget in (4, 16, 64):
            lo, hi = oc_upper_P(-0.5, self.PLAN, tail_mass=1e-4, cell_budget=budget)
            widths.append(hi - lo)
        assert widths[0] >= widths[1] >= widths[2]

    def test_far_left_upper_vanishes(self):
        lo, hi = oc_upper_P(-60.0, self.PLAN, tail_mass=1e-4, cell_budget=16)
        assert lo >= 0.0
        assert hi <= 1e-4 + 1e-9

    def test_brackets_monte_carlo(self):
        lo, hi = oc_upper_P(-0.5, self.PLAN, tail_mass=1e-4, cell_budget=64)
        ts = mc_transition_sums(self.PLAN, mu=-0.5, sigma=1.0, replications=2 * 10**5, seed=4)
        assert lo - 4 * ts.reject_se <= ts.reject_sum <= hi + 4 * ts.reject_se

    def test_negative_threshold_branch_brackets(self):
        plan = build_unknown_plan(0.2, 0.02, 0.5, 0.0, zeta=0.4, rho=1.0, tau=3)
        assert plan.stages[-1].b < 0.0
        lo, hi = oc_upper_P(-0.5, plan, tail_mass=1e-4, cell_budget=64)
        ts = mc_transition_sums(plan, mu=-0.5, sigma=1.0, replications=2 * 10**5, seed=5)
        assert lo - 4 * ts.reject_se <= ts.reject_sum <= hi + 4 * ts.reject_se

    def test_first_stage_term_is_tail(self):
        first = self.PLAN.stages[0]
        single = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=1)
        lo, hi = oc_upper_P(-0.5, single, tail_mass=1e-4, cell_budget=16)
        expected = 1.0 - noncentral_t_cdf(
            single.stages[0].b, single.stages[0].n - 1, math.sqrt(single.stages[0].n) * -0.5
        )
        assert lo == hi == pytest.approx(expected, abs=1e-12)
        assert first.n < single.stages[0].n  # multi-stage ladder starts smaller

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            oc_upper_P(-0.5, self.PLAN, tail_mass=0.0, cell_budget=16)
        with pytest.raises(DomainError):
            oc_upper_P(-0.5, self.PLAN, tail_mass=1e-4, cell_budget=3)


class TestPartitionCells:
    PLAN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_mass_bookkeeping(self):
        tail_budget = 1e-4 / 2
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, 2, tail_budget, 32)
        total = sum(evaluator.mass(c.y_lo, c.y_hi, c.z_lo, c.z_hi) for c in cells)
        assert total >= 1.0 - 1e-4

    def test_cells_tile_disjointly(self):
        cells, _, _ = stage_term_cells(-0.5, self.PLAN, 2, 5e-5, 32)
        area = sum((c.y_hi - c.y_lo) * (c.z_hi - c.z_lo) for c in cells)
        y_lo = min(c.y_lo for c in cells)
        y_hi = max(c.y_hi for c in cells)
        z_lo = min(c.z_lo for c in cells)
        z_hi = max(c.z_hi for c in cells)
        assert area == pytest.approx((y_hi - y_lo) * (z_hi - z_lo), rel=1e-9)

    def test_mapping_matches_frozen_conditional_mc(self):
        # freeze (y, z) at a cell corner and compare the conditional event
        # probability against plain Monte Carlo over (U, V)
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, 2, 5e-5, 8)
        cell = cells[0]
        p = evaluator.event_prob(cell.y_lo + cell.z_lo, cell.y_hi, evaluator.omega_plus)
        rng = np.random.default_rng(17)
        n = 2 * 10**6
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = evaluator.scale * np.sqrt(v * v + cell.y_lo + cell.z_lo)
        rhs = evaluator.k * v + evaluator.omega_plus * math.sqrt(cell.y_hi)
        inside = (lhs <= u - evaluator.off) & (u - evaluator.off <= rhs)
        est = float(inside.mean())
        se = math.sqrt(est * (1 - est) / n)
        assert abs(p - est) <= 4 * se

    def test_refine_split_tightens_parent(self):
        counter = {"n": 0, "batches": 0}

        def evaluate(rects):
            # synthetic monotone bounds: wider cells are looser
            counter["n"] += len(rects)
            counter["batches"] += 1
            out = []
            for y_lo, y_hi, z_lo, z_hi in rects:
                width = (y_hi - y_lo) + (z_hi - z_lo)
                out.append(((1.0 - width) * 0.1, (1.0 + width) * 0.1))
            return out

        root = (0.0, 1.0, 0.0, 1.0)
        parent = _partition(root, 4, evaluate)[0]
        counter.update(n=0, batches=0)
        refined = _partition(root, 5, evaluate)
        # the root itself is never evaluated: four quarters in one batch, then
        # two halves in another
        assert counter == {"n": 6, "batches": 2}
        assert len(refined) == 5
        children = [refined[0], refined[4]]
        assert (children[0].y_lo, children[1].y_hi) == (parent.y_lo, parent.y_hi)
        assert children[0].y_hi == children[1].y_lo
        assert sum(c.p_lower for c in children) >= parent.p_lower
        assert sum(c.p_upper for c in children) <= 2 * parent.p_upper

    def test_refine_tie_break_round_robin(self):
        def evaluate(rects):
            return [(0.0, (y_hi - y_lo) + (z_hi - z_lo)) for y_lo, y_hi, z_lo, z_hi in rects]

        root = (0.0, 2.0, 0.0, 1.0)
        initial = _partition(root, 4, evaluate)
        refined = _partition(root, 5, evaluate)
        # equal gaps: the lowest-index cell splits first
        assert refined[0].y_hi == 0.5 or refined[0].z_hi == 0.25
        assert refined[1:4] == initial[1:4]
        # and every equal-gap cell splits once before any splits twice
        refined = _partition(root, 8, evaluate)
        assert [c.gap for c in refined] == [1.0] * 8

    def test_refine_matches_widest_gap_scan(self, monkeypatch, unknown_plan):
        # the widest cell comes off a heap; a linear scan from the explicit
        # root split is the reference
        def scan(root, budget, evaluate):
            y_lo, y_hi, z_lo, z_hi = root
            spans = (y_hi - y_lo, z_hi - z_lo)
            y_mid = 0.5 * (y_lo + y_hi)
            if z_hi > z_lo:
                z_mid = 0.5 * (z_lo + z_hi)
                geoms = [(y_lo, y_mid, z_lo, z_mid), (y_mid, y_hi, z_lo, z_mid),
                         (y_lo, y_mid, z_mid, z_hi), (y_mid, y_hi, z_mid, z_hi)]
            else:
                geoms = [(y_lo, y_mid, z_lo, z_hi), (y_mid, y_hi, z_lo, z_hi)]
            cells = [PartitionCell(*g, *evaluate([g])[0]) for g in geoms]
            while len(cells) < budget:
                best = max(range(len(cells)), key=lambda i: (cells[i].gap, -i))
                cell = cells[best]
                ny = (cell.y_hi - cell.y_lo) / spans[0] if spans[0] > 0.0 else 0.0
                nz = (cell.z_hi - cell.z_lo) / spans[1] if spans[1] > 0.0 else 0.0
                if ny <= 0.0 and nz <= 0.0:
                    break
                if ny >= nz:
                    mid = 0.5 * (cell.y_lo + cell.y_hi)
                    geoms = [(cell.y_lo, mid, cell.z_lo, cell.z_hi),
                             (mid, cell.y_hi, cell.z_lo, cell.z_hi)]
                else:
                    mid = 0.5 * (cell.z_lo + cell.z_hi)
                    geoms = [(cell.y_lo, cell.y_hi, cell.z_lo, mid),
                             (cell.y_lo, cell.y_hi, mid, cell.z_hi)]
                lo, hi = (PartitionCell(*g, *evaluate([g])[0]) for g in geoms)
                cells[best] = lo
                cells.append(hi)
            return cells

        pairs = []
        partition = plan_unknown._partition

        def both(root, budget, evaluate):
            got = partition(root, budget, evaluate)
            pairs.append((got, scan(root, budget, evaluate)))
            return got

        monkeypatch.setattr(plan_unknown, "_partition", both)
        for plan in (unknown_plan, unknown_plan.mirror()):
            s = plan.num_stages
            for ell in range(2, s + 1):
                stage_term_cells(-plan.epsilon, plan, ell, 1e-4 / (s - 1), 256)
        assert len(pairs) == 2 * (unknown_plan.num_stages - 1)
        for got, ref in pairs:
            assert len(got) == 256
            assert list(map(repr, got)) == list(map(repr, ref))

    def test_partition_budget_below_initial_split(self):
        def evaluate(rects):
            return [(0.0, 1.0)] * len(rects)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            square = _partition((0.0, 1.0, 0.0, 1.0), 2, evaluate)
            flat = _partition((0.0, 1.0, 0.0, 0.0), 1, evaluate)
        assert square == _partition((0.0, 1.0, 0.0, 1.0), 4, evaluate)
        assert [(c.y_lo, c.y_hi, c.z_lo, c.z_hi) for c in flat] == [
            (0.0, 0.5, 0.0, 0.0),
            (0.5, 1.0, 0.0, 0.0),
        ]

    def test_cell_validation(self):
        with pytest.raises(Exception):
            PartitionCell(1.0, 0.5, 0.0, 1.0, 0.0, 0.0)


class TestBoundsAndTails:
    PLAN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_bounds_outside_zone_only(self):
        with pytest.raises(DomainError):
            self.PLAN.oc_bounds(0.1)

    def test_certify_is_both_upper_ends(self):
        mirrored = mirror_unknown_plan(self.PLAN)
        assert self.PLAN.certify(1e-4, 16) == (
            oc_upper_P(-0.5, self.PLAN, 1e-4, 16)[1],
            oc_upper_P(-0.5, mirrored, 1e-4, 16)[1],
        )
        assert self.PLAN.mirror() == mirrored

    def test_far_field(self):
        lo, hi = self.PLAN.oc_bounds(-40.0, cell_budget=16)
        assert lo >= 1.0 - 2e-4
        assert hi == 1.0

    def test_sample_tail_formula(self):
        stage = self.PLAN.stages[0]
        theta = -0.4
        ncp = math.sqrt(stage.n) * theta
        expected = noncentral_t_cdf(stage.b, stage.n - 1, ncp) - noncentral_t_cdf(
            stage.a, stage.n - 1, ncp
        )
        assert self.PLAN.sample_tail(1, theta) == pytest.approx(expected)

    def test_sample_tail_central_symmetry(self):
        stage = self.PLAN.stages[0]
        got = self.PLAN.sample_tail(1, 0.0)
        via_symmetry = 1.0 - 2.0 * noncentral_t_cdf(-stage.b, stage.n - 1, 0.0)
        assert got == pytest.approx(via_symmetry, abs=1e-9)

    def test_sample_tail_index_domain(self):
        with pytest.raises(DomainError):
            self.PLAN.sample_tail(self.PLAN.num_stages, 0.0)


class TestCornerMemo:
    """Neighbouring cells share corners; each distinct corner is computed once."""

    PLAN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)

    @pytest.mark.parametrize("ell, region", [(2, "hyperbola_cone_prob"), (3, "cone_prob")])
    def test_one_geometry_call_per_distinct_corner(self, monkeypatch, ell, region):
        # hyperbola-cone corners go to the batched evaluator, cone corners one by one
        region_fn = "hyperbola_cone_prob_many" if region == "hyperbola_cone_prob" else region
        regions = {"cone_prob": [], "hyperbola_cone_prob_many": [], "hyperbola_cone_prob": []}
        batches = []

        def counted(name):
            original = getattr(plan_unknown, name)

            def wrapper(arg):
                batch = list(arg) if name == "hyperbola_cone_prob_many" else [arg]
                regions[name] += batch
                batches.append(len(batch))
                return original(arg)

            return wrapper

        for name in regions:
            monkeypatch.setattr(plan_unknown, name, counted(name))
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, ell, 5e-5, 64)
        sent = regions[region_fn]
        # every corner in the memo was sent once, and no region twice
        assert len(sent) == len(set(sent)) == len(evaluator._corners)
        assert sum(map(len, regions.values())) == len(sent)
        # rectangles share corners: fewer regions than four per rectangle
        initial = 4 if cells[0].z_hi > cells[0].z_lo else 2
        splits = len(cells) - initial
        assert len(sent) < 4 * (initial + 2 * splits)
        if region_fn == "hyperbola_cone_prob_many":
            # one batch for the initial cells, then one per split
            assert len(batches) == 1 + splits

    @pytest.mark.parametrize("ell", [2, 3])
    def test_cells_equal_memo_free_recomputation(self, ell):
        cells, ev, _ = stage_term_cells(-0.5, self.PLAN, ell, 5e-5, 64)
        for c in cells:
            fresh = plan_unknown._StageTermEvaluator(
                ev.scale, ev.off, ev.k, ev.omega_plus, ev.omega_minus,
                ev.dof_y, ev.dof_z, ev.negate,
            )
            assert [(c.p_lower, c.p_upper)] == fresh([(c.y_lo, c.y_hi, c.z_lo, c.z_hi)])


class TestArcConvergence:
    """Every hyperbola arc of a default certificate meets the quadrature tolerance."""

    @pytest.mark.parametrize("design, zeta", [
        ((0.05, 0.05, 0.5, 1.0, 3), 0.8777669270833333),  # calibrated sym
        ((0.05, 0.10, 0.5, 0.5, 4), 0.703369140625),  # calibrated asym
    ], ids=["sym", "asym"])
    def test_default_certificate_caps_no_arc(self, monkeypatch, design, zeta):
        alpha, beta, epsilon, rho, tau = design
        arcs = []
        integrate_many = geometry.integrate_many

        def recorded(*args, **kwargs):
            values, capped = integrate_many(*args, **kwargs)
            arcs.extend(capped.tolist())
            return values, capped

        monkeypatch.setattr(geometry, "integrate_many", recorded)
        plan = build_unknown_plan(alpha, beta, epsilon, 0.0, zeta, rho, tau)
        for p in (plan, plan.mirror()):
            p.envelope(-epsilon)  # the default 256 cells and tail mass
        assert len(arcs) > 1000
        assert not any(arcs)


class TestZeroRejectThreshold:
    def test_final_stage_term_uses_cone_path(self):
        # symmetric designs drive the final reject threshold to zero, so the
        # conditional event degenerates to a cone; the evaluator must still
        # produce ordered, bracketing bounds
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)
        assert plan.stages[-1].b == 0.0
        ell = plan.num_stages
        cells, evaluator, _ = stage_term_cells(-0.5, plan, ell, 5e-5, 16)
        assert evaluator.scale == 0.0
        assert all(c.p_lower <= c.p_upper for c in cells)
        p = evaluator.event_prob(1.0, 2.0, evaluator.omega_plus)
        assert 0.0 <= p <= 1.0


class TestChiSquareTruncation:
    def test_tails_cut_at_quarter_budget(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)
        tail_budget = 1e-3
        cells, evaluator, _ = stage_term_cells(-0.5, plan, 2, tail_budget, 8)
        y_lo = min(c.y_lo for c in cells)
        y_hi = max(c.y_hi for c in cells)
        assert chi_square_cdf(y_lo, evaluator.dof_y) == pytest.approx(tail_budget / 4, abs=1e-12)
        assert 1.0 - chi_square_cdf(y_hi, evaluator.dof_y) == pytest.approx(
            tail_budget / 4, abs=1e-12
        )
