"""Calibration search: feasibility, maximality, determinism."""

import math

import pytest

from seqnorm import calibrate
from seqnorm.calibrate import calibrate_known, calibrate_unknown
from seqnorm.errors import DomainError
from seqnorm.plan_known import build_known_plan, oc_upper_phi
from seqnorm.plan_unknown import build_unknown_plan, oc_upper_P

DESIGN = dict(alpha=0.05, beta=0.05, epsilon=0.5, rho=1.0, tau=3)


class TestKnown:
    def test_certified_and_bounds_hold(self, known_calibration):
        res = known_calibration
        assert res.certified
        assert res.phi_at_theta0 <= 0.05
        assert res.phi_mirror_at_theta1 <= 0.05

    def test_symmetric_design_symmetric_result(self, known_calibration):
        res = known_calibration
        assert res.phi_at_theta0 == pytest.approx(res.phi_mirror_at_theta1, abs=1e-12)
        swapped = calibrate_known(0.05, 0.05, 0.5, rho=1.0, tau=3)
        assert swapped.zeta == known_calibration.zeta

    def test_returned_zeta_is_maximal(self, known_calibration):
        res = known_calibration
        zeta_hi = min(1.0, 10.0 / DESIGN["tau"])
        if res.zeta < zeta_hi:
            probe_zeta = res.zeta * (1.0 + 10 * 1e-4)
            plan = build_known_plan(
                0.05, 0.05, 0.5, 0.0, 1.0, probe_zeta, 1.0, 3
            )
            a_bound = oc_upper_phi(-0.5, plan)
            b_bound = oc_upper_phi(-0.5, plan.mirror())
            assert a_bound > 0.05 or b_bound > 0.05
        else:
            assert res.zeta == zeta_hi

    def test_deterministic_to_the_last_bit(self, known_calibration):
        again = calibrate_known(**DESIGN)
        assert again == known_calibration

    def test_result_is_verified_evaluation(self, known_calibration):
        res = known_calibration
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, res.zeta, 1.0, 3)
        assert oc_upper_phi(-0.5, plan) == res.phi_at_theta0

    def test_probe_count_bound(self, known_calibration):
        import math

        zeta_hi = min(1.0, 10.0 / DESIGN["tau"])
        budget = math.ceil(math.log2((zeta_hi - 1.0 / DESIGN["tau"]) / 1e-4)) + 3
        assert known_calibration.iterations <= budget

    def test_anchor_zeta_over_one_tau_allowed_but_verified(self):
        # direct zeta above 1/tau: theorem guarantee does not apply but a
        # plan still builds; its certification is by evaluation only
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, 0.9, 1.0, 3)
        bound = oc_upper_phi(-0.5, plan)
        assert bound > 0.0  # uncertified unless this clears alpha

    def test_zeta_tol_validation(self):
        with pytest.raises(DomainError):
            calibrate_known(0.05, 0.05, 0.5, rho=1.0, tau=3, zeta_tol=0.0)

    def test_nan_zeta_tol_refused(self):
        with pytest.raises(DomainError, match="zeta_tol"):
            calibrate_known(0.05, 0.05, 0.5, rho=1.0, tau=3, zeta_tol=float("nan"))


class TestUnknown:
    def test_certified_and_bounds_hold(self, unknown_calibration):
        res = unknown_calibration
        assert res.certified
        assert res.phi_at_theta0 <= 0.05
        assert res.phi_mirror_at_theta1 <= 0.05

    def test_budget_increase_keeps_certification(self, unknown_calibration):
        # re-evaluating the returned zeta with more cells can only tighten
        res = unknown_calibration
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, res.zeta, 1.0, 3)
        _, hi_more = oc_upper_P(-0.5, plan, tail_mass=1e-4, cell_budget=512)
        _, hi_mirror = oc_upper_P(
            -0.5, plan.mirror(), tail_mass=1e-4, cell_budget=512
        )
        assert hi_more <= res.phi_at_theta0 + 1e-12
        assert hi_more <= 0.05
        assert hi_mirror <= 0.05

    def test_deterministic(self):
        a = calibrate_unknown(0.05, 0.05, 0.5, rho=1.0, tau=2, cell_budget=16)
        b = calibrate_unknown(0.05, 0.05, 0.5, rho=1.0, tau=2, cell_budget=16)
        assert a == b

    def test_asymmetric_design(self):
        res = calibrate_unknown(0.2, 0.02, 0.5, rho=1.0, tau=2, cell_budget=16)
        assert res.certified
        assert res.phi_at_theta0 <= 0.2
        assert res.phi_mirror_at_theta1 <= 0.02

    def test_certification_sound_on_both_sides(self, unknown_plan):
        import math

        from seqnorm.simulate import simulate_plan

        reps = 3 * 10**5
        at_mu0 = simulate_plan(unknown_plan, mu=-0.5, sigma=1.0, replications=reps, seed=61)
        at_mu1 = simulate_plan(unknown_plan, mu=+0.5, sigma=1.0, replications=reps, seed=62)
        se1 = math.sqrt(at_mu1.accept_rate * (1 - at_mu1.accept_rate) / reps)
        assert at_mu0.reject_rate <= 0.05 + 4 * at_mu0.mc_se
        assert at_mu1.accept_rate <= 0.05 + 4 * se1


class TestProbePath:
    """The search probes the same zeta sequence as the two-loop search it replaced."""

    @pytest.mark.parametrize("tail_mass, probes", [
        # feasible at the anchor 1/3 and infeasible at zeta_hi = 1: bisect up
        (1e-4, [1 / 3, 1.0, 0.6666666666666666, 0.5, 0.41666666666666663,
                0.4583333333333333, 0.4375, 0.4270833333333333, 0.421875]),
        # a tail budget this large makes the anchor infeasible: halve, then bisect
        (0.03, [1 / 3, 0.16666666666666666, 0.25, 0.20833333333333331,
                0.22916666666666666, 0.21875, 0.21354166666666666]),
    ])
    def test_unknown_probe_sequence(self, monkeypatch, tail_mass, probes):
        seen = []

        def build(*args):
            seen.append(args[4])  # zeta
            return build_unknown_plan(*args)

        monkeypatch.setattr(calibrate, "build_unknown_plan", build)
        res = calibrate_unknown(
            0.05, 0.05, 0.5, rho=1.0, tau=3, zeta_tol=1e-2, tail_mass=tail_mass, cell_budget=4
        )
        assert list(map(repr, seen)) == list(map(repr, probes))
        assert res.iterations == len(probes)

    def test_anchor_equal_to_zeta_hi_probes_once(self, monkeypatch):
        seen = []

        def build(*args):
            seen.append(args[5])  # zeta
            return build_known_plan(*args)

        monkeypatch.setattr(calibrate, "build_known_plan", build)
        assert calibrate_known(0.05, 0.05, 0.5, rho=1.0, tau=1).zeta == 1.0
        assert seen == [1.0]

    def test_tolerance_below_float_spacing_ends(self, monkeypatch):
        # once lo and hi are adjacent doubles their midpoint is one of them
        seen = []

        def build(*args):
            seen.append(args[5])  # zeta
            if len(seen) > 200:
                raise AssertionError("zeta bisection does not end")
            return build_known_plan(*args)

        monkeypatch.setattr(calibrate, "build_known_plan", build)
        res = calibrate_known(0.05, 0.05, 0.5, rho=1.0, tau=3, zeta_tol=1e-20)
        assert res.certified
        assert res.iterations == len(seen) == len(set(seen))
        assert math.nextafter(res.zeta, 1.0) in seen  # the infeasible neighbour
