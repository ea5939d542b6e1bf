"""Unknown-variance plans: construction, statistics, partition bounds."""

import math
import signal
import time
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqnorm import geometry, plan_unknown
from seqnorm.errors import DegenerateSampleError, DomainError, SeqnormError
from seqnorm.geometry import HyperbolaConeRegion, hyperbola_cone_prob
from seqnorm.plan_unknown import (
    UnknownVarPlan,
    _fill_corners,
    _partition_many,
    _StageTerm,
    _term_cells,
    build_unknown_plan,
    min_stage_size,
    mirror_unknown_plan,
    oc_upper_P,
    stage_term_cells,
)
from seqnorm.runner import feed, new_session
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
    """The plan's stage statistic of the first n samples, at scalar n."""
    plan = build_unknown_plan(0.05, 0.05, 0.5, gamma, zeta=1.0, rho=1.0, tau=3)
    window = samples[:n]
    mean = math.fsum(window) / n
    squares = math.fsum((x - mean) ** 2 for x in window)
    return plan.stage_statistics(math.fsum(window), squares, n)


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
        # a session refuses equal samples; the statistic itself pins a zero
        # deviation to the sign of the centered mean
        plan = build_unknown_plan(0.05, 0.05, 0.5, 1.0, zeta=1.0, rho=1.0, tau=3)
        session = new_session(plan, allow_uncertified=True)
        with pytest.raises(DegenerateSampleError):
            feed(session, [2.0] * plan.sizes[0])
        assert statistic_unknown([2.0, 2.0, 2.0], 3, 1.0) == math.inf

    def test_insufficient(self):
        # one sample has no deviation
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

    @pytest.mark.parametrize("design, theta, stage, n", [
        ((0.05, 0.05, 0.5, 0.5, 1), -1e308, 1, 19),  # one stage: its noncentral-t ncp
        ((0.05, 0.05, 0.5, 0.5, 3), -1e200, 2, 10),  # the hyperbola offset's square
        ((0.05, 0.05, 0.5, 0.5, 3), 1e308, 2, 10),  # the offset itself, on the mirror
        # the offset's square is finite, but not times scale^2 = 15.4
        ((0.01, 0.2, 1.0, 1.0, 3), -7e153, 2, 3),
    ])
    def test_overflowing_theta_names_theta_and_stage(self, design, theta, stage, n):
        alpha, beta, epsilon, zeta, tau = design
        plan = build_unknown_plan(alpha, beta, epsilon, 0.0, zeta=zeta, rho=1.0, tau=tau)
        with pytest.raises(DomainError) as err:
            plan.oc_bounds(theta, cell_budget=8)
        assert str(err.value) == (
            f"|theta| = {abs(theta)!r} is too large: the stage {stage} term (n = {n}) "
            "overflows double precision"
        )

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

    @pytest.mark.parametrize("theta", [-1e10, 1e10])
    def test_no_nan_bound_where_nctdtr_fails(self, theta):
        # nctdtr's NaN (scipy 1.17, |ncp| >= 1e10) used to pass _clamp_unit
        # and come out as (nan, nan), then was refused; now the first-stage
        # tail is its limit, and the later terms add at most the tail mass
        first = 0.0 if theta < 0.0 else 1.0
        lo, hi = oc_upper_P(theta, self.PLAN, tail_mass=1e-4, cell_budget=8)
        assert lo == first and first <= hi <= first + 1e-4 * (1.0 + 1e-12)
        assert self.PLAN.sample_tail(1, theta) == self.PLAN.sample_tail(2, theta) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            oc_upper_P(-0.5, self.PLAN, tail_mass=0.0, cell_budget=16)
        with pytest.raises(DomainError):
            oc_upper_P(-0.5, self.PLAN, tail_mass=1e-4, cell_budget=3)

    @pytest.mark.parametrize("cell_budget", [math.nan, math.inf, 256.5])
    def test_non_integer_cell_budget_refused_at_once(self, cell_budget):
        # refinement stops on reaching the budget, which a NaN or inf never
        # is; the alarm turns a hang into a failure
        def hung(signum, frame):
            raise AssertionError(f"certify ran on with cell_budget={cell_budget}")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            start = time.perf_counter()
            with pytest.raises(DomainError, match="cell_budget must be an integer"):
                self.PLAN.certify(1e-4, cell_budget)
            assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def partition(root, budget, evaluate):
    """The cells of one root, each round's rectangles going to evaluate(rects)."""
    [cells] = _partition_many([root], budget, lambda pending: [evaluate(pending[0][1])])
    return cells


class TestPartitionCells:
    PLAN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)

    def test_mass_bookkeeping(self):
        tail_budget = 1e-4 / 2
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, 2, tail_budget, 32)
        total = sum(evaluator.mass(*rect) for rect in cells[:, :4].tolist())
        assert total >= 1.0 - 1e-4

    def test_cells_tile_disjointly(self):
        cells, _, _ = stage_term_cells(-0.5, self.PLAN, 2, 5e-5, 32)
        y_lo, y_hi, z_lo, z_hi = cells[:, :4].T
        area = sum((y_hi - y_lo) * (z_hi - z_lo))
        expected = (y_hi.max() - y_lo.min()) * (z_hi.max() - z_lo.min())
        assert area == pytest.approx(expected, rel=1e-9)

    def test_mapping_matches_frozen_conditional_mc(self):
        # freeze (y, z) at a cell corner and compare the conditional event
        # probability against plain Monte Carlo over (U, V)
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, 2, 5e-5, 8)
        y_lo, y_hi, z_lo, z_hi = cells[0, :4].tolist()
        # the omega_plus upper corner, as the partition's batches left it in the memo
        key = evaluator.rect_keys((y_lo, y_hi, z_lo, z_hi))[0]
        sum_yz, y_line, omega = key
        assert (sum_yz, y_line, omega) == (y_lo + z_lo, y_hi, evaluator.omega_plus)
        p = evaluator._corners[key]
        rng = np.random.default_rng(17)
        n = 2 * 10**6
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = evaluator.scale * np.sqrt(v * v + sum_yz)
        rhs = evaluator.k * v + omega * math.sqrt(y_line)
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
        parent = partition(root, 4, evaluate)[0]
        counter.update(n=0, batches=0)
        refined = partition(root, 5, evaluate)
        # the root itself is never evaluated: four quarters in one batch, then
        # two halves in another
        assert counter == {"n": 6, "batches": 2}
        assert len(refined) == 5
        low, high = refined[0], refined[4]
        assert (low[0], high[1]) == (parent[0], parent[1])
        assert low[1] == high[0]
        assert low[4] + high[4] >= parent[4]
        assert low[5] + high[5] <= 2 * parent[5]

    def test_refine_tie_break_round_robin(self):
        def evaluate(rects):
            return [(0.0, (y_hi - y_lo) + (z_hi - z_lo)) for y_lo, y_hi, z_lo, z_hi in rects]

        root = (0.0, 2.0, 0.0, 1.0)
        initial = partition(root, 4, evaluate)
        refined = partition(root, 5, evaluate)
        # equal gaps: the lowest-index cell splits first
        assert refined[0, 1] == 0.5 or refined[0, 3] == 0.25
        assert refined[1:4].tobytes() == initial[1:4].tobytes()
        # and every equal-gap cell splits once before any splits twice
        refined = partition(root, 8, evaluate)
        assert (refined[:, 5] - refined[:, 4]).tolist() == [1.0] * 8

    def test_refine_matches_widest_gap_scan(self, monkeypatch, unknown_plan):
        # the widest cell comes from an argmax over the cell rows; a linear
        # scan from the explicit root split, one rectangle at a time, is the
        # reference
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
            cells = [g + evaluate([g])[0] for g in geoms]
            while len(cells) < budget:
                best = max(range(len(cells)), key=lambda i: (cells[i][5] - cells[i][4], -i))
                c_y_lo, c_y_hi, c_z_lo, c_z_hi, _, _ = cells[best]
                ny = (c_y_hi - c_y_lo) / spans[0] if spans[0] > 0.0 else 0.0
                nz = (c_z_hi - c_z_lo) / spans[1] if spans[1] > 0.0 else 0.0
                if ny <= 0.0 and nz <= 0.0:
                    break
                if ny >= nz:
                    mid = 0.5 * (c_y_lo + c_y_hi)
                    geoms = [(c_y_lo, mid, c_z_lo, c_z_hi), (mid, c_y_hi, c_z_lo, c_z_hi)]
                else:
                    mid = 0.5 * (c_z_lo + c_z_hi)
                    geoms = [(c_y_lo, c_y_hi, c_z_lo, mid), (c_y_lo, c_y_hi, mid, c_z_hi)]
                lo, hi = (g + evaluate([g])[0] for g in geoms)
                cells[best] = lo
                cells.append(hi)
            return np.array(cells)

        pairs = []
        partition_many = plan_unknown._partition_many

        def both(roots, budget, evaluate_round):
            [got] = partition_many(roots, budget, evaluate_round)
            ref = scan(roots[0], budget, lambda rects: evaluate_round([(0, rects)])[0])
            pairs.append((got, ref))
            return [got]

        monkeypatch.setattr(plan_unknown, "_partition_many", both)
        for plan in (unknown_plan, unknown_plan.mirror()):
            s = plan.num_stages
            for ell in range(2, s + 1):
                stage_term_cells(-plan.epsilon, plan, ell, 1e-4 / (s - 1), 256)
        assert len(pairs) == 2 * (unknown_plan.num_stages - 1)
        for got, ref in pairs:
            assert got.shape == (256, 6)
            assert got.tobytes() == ref.tobytes()

    def test_partition_budget_below_initial_split(self):
        def evaluate(rects):
            return [(0.0, 1.0)] * len(rects)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            square = partition((0.0, 1.0, 0.0, 1.0), 2, evaluate)
            flat = partition((0.0, 1.0, 0.0, 0.0), 1, evaluate)
        assert square.tobytes() == partition((0.0, 1.0, 0.0, 1.0), 4, evaluate).tobytes()
        assert flat[:, :4].tolist() == [[0.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("root", [(1.0, 0.5, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5)])
    def test_inverted_root_is_refused(self, root):
        def evaluate(rects):
            raise AssertionError("an inverted root is refused before any evaluation")

        with pytest.raises(DomainError, match="cell bounds inverted"):
            partition(root, 8, evaluate)

    def test_inverted_cell_bounds_are_refused(self):
        # lower may exceed upper by rounding, up to 1e-12, in any round
        def slack(excess, at_split):
            def evaluate(rects):
                split = len(rects) == 2
                return [(0.5 + excess if split == at_split else 0.0, 0.5)] * len(rects)

            return evaluate

        for at_split in (False, True):
            cells = partition((0.0, 1.0, 0.0, 1.0), 6, slack(5e-13, at_split))
            assert cells.shape == (6, 6)
            with pytest.raises(SeqnormError, match="cell bound inversion"):
                partition((0.0, 1.0, 0.0, 1.0), 6, slack(2e-12, at_split))

    def test_unsplittable_root_stops_at_its_initial_cells(self):
        rounds = []

        def evaluate(rects):
            rounds.append(len(rects))
            return [(0.0, 1.0)] * len(rects)

        # no extent in y or z: rows grow only with the cells made, so the
        # budget allocates nothing
        cells = partition((2.0, 2.0, 3.0, 3.0), 2**62, evaluate)
        assert rounds == [2]
        assert cells.tolist() == [[2.0, 2.0, 3.0, 3.0, 0.0, 1.0]] * 2


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
        # hyperbola-cone corners go to the batched evaluator as (family, h, g),
        # cone corners one by one to the cone kernel, _cone_measure, as (h, g, k)
        many = "hyperbola_family_prob_many"
        region_fn = many if region == "hyperbola_cone_prob" else "_cone_measure"
        regions = {"_cone_measure": [], many: [], "hyperbola_cone_prob": []}
        batches = []

        def counted(name):
            original = getattr(plan_unknown, name)

            def wrapper(*args):
                batch = list(args[0]) if name == many else [args[:3]]
                regions[name] += batch
                batches.append(len(batch))
                return original(*args)

            return wrapper

        for name in regions:
            monkeypatch.setattr(plan_unknown, name, counted(name))
        cells, evaluator, _ = stage_term_cells(-0.5, self.PLAN, ell, 5e-5, 64)
        sent = regions[region_fn]
        # every corner in the memo was sent once, and no region twice
        assert len(sent) == len(set(sent)) == len(evaluator._corners)
        assert sum(map(len, regions.values())) == len(sent)
        # rectangles share corners: fewer regions than four per rectangle
        initial = 4 if cells[0, 3] > cells[0, 2] else 2
        splits = len(cells) - initial
        assert len(sent) < 4 * (initial + 2 * splits)
        if region_fn == many:
            # one batch for the initial cells, then one per split
            assert len(batches) == 1 + splits

    @pytest.mark.parametrize("ell", [2, 3])
    def test_cells_equal_memo_free_recomputation(self, ell):
        cells, _, _ = stage_term_cells(-0.5, self.PLAN, ell, 5e-5, 64)
        for y_lo, y_hi, z_lo, z_hi, p_lower, p_upper in cells.tolist():
            fresh = plan_unknown._StageTerm(-0.5, self.PLAN, ell, 5e-5)
            rects = [(y_lo, y_hi, z_lo, z_hi)]
            keys = [fresh.rect_keys(rect) for rect in rects]
            _fill_corners([(fresh, keys)])
            assert [(p_lower, p_upper)] == fresh.bounds(rects, keys)


class TestFamilyCorners:
    """A term's corners go in as (family, h, g), one family per term; each
    corner keeps the bits of its own HyperbolaConeRegion."""

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.01, 0.2),
        beta=st.floats(0.01, 0.2),
        epsilon=st.floats(0.3, 1.5),
        zeta=st.floats(0.2, 1.0),
        rho=st.floats(0.3, 2.0),
        tau=st.integers(2, 4),
        theta=st.floats(-2.0, 0.0),
        pick=st.integers(0, 2),
        budget=st.sampled_from([4, 8, 16]),
    )
    def test_term_corners_keep_their_region_bits(
        self, alpha, beta, epsilon, zeta, rho, tau, theta, pick, budget
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # clipped sizes, nudged shapes
            plan = build_unknown_plan(alpha, beta, epsilon, 0.0, zeta, rho, tau)
            assume(plan.num_stages >= 2)
            term = _StageTerm(theta, plan, 2 + pick % (plan.num_stages - 1), 1e-4)
            assume(term.family is not None)
            _term_cells([term], budget)
            lam = term.scale * term.scale
            for (sum_yz, y, omega), p in term._corners.items():
                region = HyperbolaConeRegion(term.off, lam, lam * sum_yz, omega * math.sqrt(y), term.k)
                assert repr(p) == repr(hyperbola_cone_prob(region))


class TestLockStep:
    """UnknownVarPlan.envelopes refines every stage term of every plan together; each
    term's cells and each plan's bracket are those of one term at a time."""

    DESIGNS = {
        "sym": ((0.05, 0.05, 0.5, 1.0, 3), 0.8777410381486583),  # calibrated, own mirror
        "asym": ((0.05, 0.10, 0.5, 0.5, 4), 0.7033882181678947),  # calibrated
        "negative-slope": ((0.2, 0.02, 0.5, 1.0, 3), 0.4),
        "single-stage": ((0.05, 0.05, 0.5, 1.0, 1), 1 / 3),
    }

    @classmethod
    def plan(cls, name):
        (alpha, beta, epsilon, rho, tau), zeta = cls.DESIGNS[name]
        return build_unknown_plan(alpha, beta, epsilon, 0.0, zeta, rho, tau)

    @staticmethod
    def one_term_at_a_time(theta, plan, tail_mass, cell_budget):
        """The envelope bracket and term cells, each term through stage_term_cells."""
        first = plan.stages[0]
        lower = upper = 1.0 - plan.stage_cdf(first.b, first.n, theta)
        s = plan.num_stages
        term_cells = []
        for ell in range(2, s + 1):
            tail_budget = tail_mass / (s - 1)
            cells, evaluator, _ = stage_term_cells(theta, plan, ell, tail_budget, cell_budget)
            term_cells.append(cells)
            cell_lo = math.fsum(cells[:, 4])
            cell_hi = math.fsum(cells[:, 5])
            if evaluator.negate:
                nct = plan.sample_tail(ell - 1, theta)
                lower += max(0.0, nct + cell_lo - tail_budget)
                upper += min(nct, nct + cell_hi)
            else:
                lower += max(0.0, cell_lo)
                upper += cell_hi + tail_budget
        return (lower, upper), term_cells

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_plan_and_mirror_equal_separate_terms(self, monkeypatch, name):
        plan = self.plan(name)
        if name == "negative-slope":
            assert plan.stages[-1].b < 0.0  # the negated-event branch
        theta = -plan.epsilon
        refined = []
        partition_many = plan_unknown._partition_many

        def recorded(*args):
            refined.append(partition_many(*args))
            return refined[-1]

        monkeypatch.setattr(plan_unknown, "_partition_many", recorded)
        got = UnknownVarPlan.envelopes(theta, [plan, plan.mirror()], 1e-4, 32)
        monkeypatch.undo()
        # one lock-step refinement for every term of both plans
        [lockstep_cells] = refined
        brackets, term_cells = zip(*(
            self.one_term_at_a_time(theta, p, 1e-4, 32) for p in (plan, plan.mirror())
        ))
        assert list(map(repr, got)) == list(map(repr, brackets))
        assert got[0] == oc_upper_P(theta, plan, 1e-4, 32)
        expected = [cells for per_plan in term_cells for cells in per_plan]
        assert len(lockstep_cells) == 2 * (plan.num_stages - 1)
        assert [c.tobytes() for c in lockstep_cells] == [c.tobytes() for c in expected]

    @pytest.mark.parametrize("name, brackets", [
        ("sym", "[(0.04489720581787282, 0.04999871846894828), "
                "(0.04489720581787282, 0.04999871846894828)]"),
        ("asym", "[(0.03669921169873978, 0.04250052118087422), "
                 "(0.08661346758515112, 0.09999896757190233)]"),
    ])
    def test_default_certificate_keeps_its_bits(self, name, brackets):
        # recorded under these builds; others may round differently
        builds = {"numpy": np.__version__, "scipy": scipy.__version__}
        if builds != {"numpy": "2.4.6", "scipy": "1.17.1"}:
            pytest.skip(f"default certificate bits recorded with numpy 2.4.6, scipy 1.17.1, "
                        f"running {builds}")
        plan = self.plan(name)
        # the default tail mass and 256 cells
        assert repr(UnknownVarPlan.envelopes(-plan.epsilon, [plan, plan.mirror()])) == brackets

    @pytest.mark.parametrize("name, one_term_batches, batches", [
        ("sym", 5, 5),  # one hyperbola-cone term; the cone term needs no batch
        ("asym", 30, 5),  # six hyperbola-cone terms, five rounds each
    ])
    def test_certify_makes_one_batch_per_round(
        self, monkeypatch, name, one_term_batches, batches
    ):
        plan = self.plan(name)
        calls = []
        many = plan_unknown.hyperbola_family_prob_many

        def counted(corners):
            calls.append(len(corners))
            return many(corners)

        monkeypatch.setattr(plan_unknown, "hyperbola_family_prob_many", counted)
        own = repr(plan.mirror()) == repr(plan)
        for p in [plan] if own else [plan, plan.mirror()]:
            for ell in range(2, p.num_stages + 1):
                stage_term_cells(-p.epsilon, p, ell, 1e-4 / (p.num_stages - 1), 8)
        assert len(calls) == one_term_batches
        regions = sum(calls)
        calls.clear()
        plan.certify(1e-4, 8)
        assert len(calls) == batches
        # the same corners, in fewer and larger batches
        assert sum(calls) == regions


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
            p.envelopes(-epsilon, [p])  # the default 256 cells and tail mass
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
        assert np.all(cells[:, 4] <= cells[:, 5])
        # the cone corners ignore y + z, and each is a probability
        assert {sum_yz for sum_yz, _, _ in evaluator._corners} == {0.0}
        assert all(0.0 <= p <= 1.0 for p in evaluator._corners.values())


class TestChiSquareTruncation:
    def test_tails_cut_at_quarter_budget(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=1 / 3, rho=1.0, tau=3)
        tail_budget = 1e-3
        cells, evaluator, _ = stage_term_cells(-0.5, plan, 2, tail_budget, 8)
        y_lo = cells[:, 0].min()
        y_hi = cells[:, 1].max()
        assert chi_square_cdf(y_lo, evaluator.dof_y) == pytest.approx(tail_budget / 4, abs=1e-12)
        assert 1.0 - chi_square_cdf(y_hi, evaluator.dof_y) == pytest.approx(
            tail_budget / 4, abs=1e-12
        )
