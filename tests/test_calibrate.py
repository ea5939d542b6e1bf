"""Calibration search: feasibility, maximality, determinism."""

import math

import numpy as np
import pytest
import scipy

from seqnorm import calibrate
from seqnorm.calibrate import calibrate_known, calibrate_unknown
from seqnorm.errors import CalibrationError, DomainError
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


@pytest.mark.parametrize("calibrate_fn", [calibrate_known, calibrate_unknown])
@pytest.mark.parametrize("tau", [0, -1])
def test_tau_below_one_is_refused_before_the_search(calibrate_fn, tau):
    # the search's first step divides by tau, so tau is checked before it:
    # 0 would divide by zero, and -1 would be reported as a bad zeta
    with pytest.raises(DomainError, match=rf"^tau must be a positive integer, got {tau}$"):
        calibrate_fn(0.05, 0.05, 0.5, 1.0, tau)


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

    def test_default_design_takes_at_most_seven_probes(self, unknown_calibration):
        # bisection took 15: the bracket [1/3, 1] halved down to 1e-4
        assert unknown_calibration.iterations <= 7

    @pytest.mark.parametrize("design, zeta, iterations", [
        (DESIGN, "0.8777410381486583", 6),  # the unknown_calibration fixture's
        (dict(alpha=0.05, beta=0.10, epsilon=0.5, rho=0.5, tau=4), "0.7033882181678947", 7),
    ], ids=["sym", "asym"])
    def test_default_calibration_keeps_its_bits(self, request, design, zeta, iterations):
        # recorded under these builds; others may round differently
        builds = {"numpy": np.__version__, "scipy": scipy.__version__}
        if builds != {"numpy": "2.4.6", "scipy": "1.17.1"}:
            pytest.skip(f"default calibration bits recorded with numpy 2.4.6, scipy 1.17.1, "
                        f"running {builds}")
        if design == DESIGN:
            res = request.getfixturevalue("unknown_calibration")
        else:
            res = calibrate_unknown(**design)  # the default tail mass and 256 cells
        assert (repr(res.zeta), res.iterations) == (zeta, iterations)

    def test_1024_cell_calibration_keeps_its_bits(self):
        # the asym design at the budget ROADMAP item 2(f) would make the
        # default; recorded under these builds, others may round differently
        builds = {"numpy": np.__version__, "scipy": scipy.__version__}
        if builds != {"numpy": "2.4.6", "scipy": "1.17.1"}:
            pytest.skip(f"1024-cell calibration bits recorded with numpy 2.4.6, scipy 1.17.1, "
                        f"running {builds}")
        res = calibrate_unknown(0.05, 0.10, 0.5, 0.5, 4, cell_budget=1024)
        assert (repr(res.zeta), res.iterations) == ("0.7406392062538631", 7)
        assert (repr(res.phi_at_theta0), repr(res.phi_mirror_at_theta1)) == (
            "0.04251893105159765", "0.09999945259828227"
        )
        assert res.certified

    def test_deterministic(self):
        a = calibrate_unknown(0.05, 0.05, 0.5, rho=1.0, tau=2, cell_budget=16)
        b = calibrate_unknown(0.05, 0.05, 0.5, rho=1.0, tau=2, cell_budget=16)
        assert a == b

    def test_no_feasible_zeta_raises(self):
        # with tail_mass 0.5 the certified upper end stays above alpha down to the floor
        with pytest.raises(CalibrationError, match="no feasible zeta above floor 1e-06") as info:
            calibrate_unknown(0.05, 0.05, 0.5, 0.5, 4, tail_mass=0.5, cell_budget=4)
        assert info.value.bound_alpha == pytest.approx(0.5208, abs=1e-4)
        assert info.value.bound_alpha > 0.05

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


class TestGuardedStep:
    """The Illinois step with its ITP guard, on synthetic probe functions."""

    @staticmethod
    def synthetic_probe(seed, alpha, beta):
        """Bounds whose excess g is discontinuous and non-monotone in zeta.

        The members range from smooth to a one-sided cliff that makes plain
        regula falsi crawl; below zeta = 0.05 every probe is feasible.
        """
        rng = np.random.default_rng(seed)
        root = rng.uniform(0.06, 0.99)
        jumps = rng.uniform(0.05, 1.0, 5)
        heights = rng.uniform(-0.6, 0.6, 5)
        power = float(rng.choice([0.1, 1.0, 3.0, 9.0]))
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        wiggle = rng.uniform(0.0, 0.4) * rng.integers(0, 2)
        cliff = rng.integers(0, 2)

        def probe(z):
            if z < 0.05:
                return 0.5 * alpha, 0.5 * beta
            d = z - root
            if cliff:
                g = 1e6 if d > 0 else -1e-9 * (1.0 - d)
            else:
                g = scale * math.copysign(abs(d) ** power, d)
            g += float(heights[jumps <= z].sum()) + wiggle * math.sin(40.0 * z)
            return alpha * (1.0 + g), beta * (1.0 + 0.5 * g)

        return probe

    @pytest.mark.parametrize("tau, zeta_tol", [(3, 1e-4), (2, 2e-2), (7, 1e-6), (1, 2.0**-10)])
    def test_never_two_probes_beyond_bisection(self, tau, zeta_tol):
        alpha, beta = 0.05, 0.1
        worst = 0
        for seed in range(200):
            probe = self.synthetic_probe(seed, alpha, beta)
            steps = calibrate._search(probe, alpha, beta, tau, zeta_tol, interpolate=True)
            halves = calibrate._search(probe, alpha, beta, tau, zeta_tol, interpolate=False)
            assert steps.iterations <= halves.iterations + 2, seed
            worst = max(worst, steps.iterations - halves.iterations)
            # the returned zeta is certified and an infeasible probe lies within zeta_tol above it
            assert steps.certified
            above = [z for z, _, _, ok in steps.path if not ok and z > steps.zeta]
            if steps.zeta < min(1.0, 10.0 / tau):
                assert min(above) - steps.zeta <= zeta_tol
        assert worst > 0  # some member forces the guard to bite

    def test_known_search_halves_the_bracket(self):
        res = calibrate_known(**DESIGN)
        zetas = [row[0] for row in res.path]
        for i in range(2, len(zetas)):  # after the anchor 1/3 and zeta_hi = 1
            lo = max(z for z, _, _, ok in res.path[:i] if ok)
            hi = min(z for z, _, _, ok in res.path[:i] if not ok and z > lo)
            assert zetas[i] == 0.5 * (lo + hi)


class TestBoundsReuse:
    """design --calibrate prints the bounds the search certified its zeta with:
    the envelope involves neither gamma nor sigma, so they are the plan's."""

    @pytest.mark.parametrize("gamma, sigma", [(0.0, 1.0), (1.3, 0.7), (-1e3, 25.0)])
    def test_known(self, known_calibration, gamma, sigma):
        res = known_calibration
        plan = build_known_plan(0.05, 0.05, 0.5, gamma, sigma, res.zeta, 1.0, 3)
        assert plan.certify() == (res.phi_at_theta0, res.phi_mirror_at_theta1)

    @pytest.mark.parametrize("gamma", [0.0, 1.3, -7.5])
    def test_unknown(self, unknown_calibration, gamma):
        res = unknown_calibration
        plan = build_unknown_plan(0.05, 0.05, 0.5, gamma, res.zeta, 1.0, 3)
        assert plan.certify(1e-4, 256) == (res.phi_at_theta0, res.phi_mirror_at_theta1)


class TestProbePath:
    """Pinned probe sequences: any change to a search step shows here."""

    @pytest.mark.parametrize("tail_mass, probes", [
        # feasible at the anchor 1/3 and infeasible at zeta_hi = 1: Illinois steps.
        # A step reads the last bits of earlier bounds, so an ulp in a 4-cell
        # bound moves the last (infeasible) probe without moving the result
        (1e-4, [1 / 3, 1.0, 0.4040156620194033, 0.4338148789184331, 0.4166478050458483,
                0.423163957525025]),
        # a tail budget this large makes the anchor infeasible: halve, then Illinois steps
        (0.03, [1 / 3, 0.16666666666666666, 0.20971346399479968, 0.21589445746172636]),
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
        assert [row[0] for row in res.path] == seen
        assert res.iterations == len(probes)

    def test_path_rows_are_the_probes_certified_bounds(self, unknown_calibration):
        res = unknown_calibration
        assert res.iterations == len(res.path) == len({row[0] for row in res.path})
        for zeta, bound_a, bound_b, feasible in res.path:
            assert feasible == (bound_a <= 0.05 and bound_b <= 0.05)
        assert (res.zeta, res.phi_at_theta0, res.phi_mirror_at_theta1, True) in res.path

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
