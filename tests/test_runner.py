"""Session state machine, persistence round trips, integrity checks."""

import contextlib
import io
import json

import numpy as np
import pytest

from seqnorm.cli import main
from seqnorm.errors import (
    IntegrityError,
    PlanCertificationError,
    SessionFormatError,
    StateError,
)
from seqnorm.plan_known import Decision, build_known_plan
from seqnorm.plan_unknown import build_unknown_plan
from seqnorm.runner import (
    dump_json,
    feed,
    format_real,
    load_plan,
    load_session,
    new_session,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    save_session,
)
from seqnorm.simulate import simulate_plan


def make_plan(certified=True):
    plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, zeta=1 / 3, rho=1.0, tau=3)
    return plan.with_certified(certified)


class TestSerialization:
    def test_format_real_round_trips(self):
        for x in (0.1, -0.0, 1.0, 2.0 / 3.0, 1e-300, 123456789.123456789, 3e200):
            assert float(format_real(x)) == x

    def test_format_real_stays_float_typed(self):
        assert json.loads(dump_json({"x": 1.0}))["x"] == 1.0
        assert isinstance(json.loads(dump_json({"x": 1.0}))["x"], float)

    def test_plan_round_trip(self, tmp_path):
        for plan in (make_plan(), build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1.0, 1.0, 3)):
            path = tmp_path / "plan.json"
            save_plan(plan, path)
            loaded = load_plan(path)
            assert plan_to_dict(loaded) == plan_to_dict(plan)
            assert type(loaded) is type(plan)

    def test_plan_schema_keys(self):
        known = plan_to_dict(make_plan())
        assert list(known) == [
            "kind", "alpha", "beta", "epsilon", "gamma", "sigma",
            "zeta", "rho", "tau", "theta_star", "stages", "certified",
        ]
        unknown = plan_to_dict(build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1.0, 1.0, 3))
        assert "sigma" not in unknown

    def test_plan_schema_rejections(self):
        good = plan_to_dict(make_plan())
        missing = dict(good)
        del missing["zeta"]
        with pytest.raises(SessionFormatError):
            plan_from_dict(missing)
        bad_kind = dict(good, kind="other")
        with pytest.raises(SessionFormatError):
            plan_from_dict(bad_kind)
        decreasing = dict(good)
        decreasing["stages"] = [dict(n=5, a=-1.0, b=1.0), dict(n=5, a=0.0, b=0.0)]
        with pytest.raises(SessionFormatError):
            plan_from_dict(decreasing)


class TestPlanFieldTypes:
    @pytest.mark.parametrize("key, value", [
        ("tau", "x"),
        ("tau", 3.0),
        ("tau", True),
        ("alpha", [1]),
        ("alpha", "nan"),
        ("alpha", float("nan")),
        ("gamma", float("inf")),
        ("sigma", None),
        ("certified", "no"),
        ("certified", 1),
    ])
    def test_malformed_field_is_format_error(self, key, value):
        data = dict(plan_to_dict(make_plan()), **{key: value})
        with pytest.raises(SessionFormatError):
            plan_from_dict(data)

    @pytest.mark.parametrize("stages", [
        "abc",
        [{"n": "5", "a": -1.0, "b": 1.0}],
        [{"n": 5, "a": "-1", "b": 1.0}],
        [{"n": 5, "a": float("nan"), "b": 1.0}],
        [[5, -1.0, 1.0]],
    ])
    def test_malformed_stage_is_format_error(self, stages):
        data = dict(plan_to_dict(make_plan()), stages=stages)
        with pytest.raises(SessionFormatError):
            plan_from_dict(data)


class TestPlanFieldValues:
    """Well-typed values the design rules out are refused on load."""

    @pytest.mark.parametrize("key, value, command", [
        ("sigma", 0, ["oc", "--theta-min", "-1", "--theta-max", "1", "--points", "3",
                      "--mu-units"]),
        ("epsilon", -0.5, ["oc", "--theta-min", "-1", "--theta-max", "1", "--points", "3"]),
        ("zeta", 5, ["asn", "--theta", "0.5"]),
        # earlier versions let design --zeta 1.5 write such a plan
        ("zeta", 1.5, ["oc", "--theta-min", "-1", "--theta-max", "1", "--points", "3"]),
        # (z_a + z_b)^2 / (4 epsilon^2) overflows: no stage sizes exist
        ("epsilon", 1e-200, ["asn", "--theta", "0.5"]),
        # the builders loop over tau rungs; a huge tau is refused before that
        ("tau", 10**9, ["asn", "--theta", "0.5"]),
    ])
    def test_out_of_range_value_is_format_error(self, tmp_path, key, value, command):
        data = dict(plan_to_dict(make_plan()), **{key: value})
        with pytest.raises(SessionFormatError, match=key):
            plan_from_dict(data)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith(f"{command[0]}: cannot read plan: {key} must ")
        assert err.getvalue().count("\n") == 1


class TestSessionFlow:
    def test_new_session_needs_first_stage(self):
        session = new_session(make_plan())
        status = session.status
        assert status.state == "need_more"
        assert status.next_n == make_plan().sizes[0]
        assert session.history == []

    def test_uncertified_requires_override(self):
        with pytest.raises(PlanCertificationError):
            new_session(make_plan(certified=False))
        session = new_session(make_plan(certified=False), allow_uncertified=True)
        assert session.status.state == "need_more"

    def test_partial_batch_reduces_requirement(self):
        session = new_session(make_plan())
        feed(session, [0.1, -0.2])
        assert session.status.next_n == make_plan().sizes[0] - 2

    def test_accept_on_exact_completion(self):
        plan = make_plan()
        session = new_session(plan)
        n1 = plan.sizes[0]
        feed(session, [plan.gamma - 5.0] * n1)
        assert session.status.state == "accepted"
        assert session.status.stage == 1
        assert session.history[-1].decision == Decision.ACCEPT

    def test_surplus_retained_but_unused(self):
        plan = make_plan()
        session = new_session(plan)
        n1 = plan.sizes[0]
        feed(session, [plan.gamma - 5.0] * n1 + [99.0, 98.0])
        assert session.status.state == "accepted"
        assert len(session.samples) == n1 + 2

    def test_feeding_terminal_session_errors(self):
        plan = make_plan()
        session = new_session(plan)
        feed(session, [plan.gamma - 5.0] * plan.sizes[0])
        with pytest.raises(StateError):
            feed(session, [0.0])

    def test_chunking_equivalence(self):
        plan = make_plan()
        rng = np.random.default_rng(23)
        stream = list(rng.normal(0.2, 1.0, plan.sizes[-1]))
        whole = new_session(plan)
        feed(whole, stream)
        for cuts in ((1, 4, 9), (2, 2, 2, 2, 2, 2), (17,)):
            chunked = new_session(plan)
            pos = 0
            for size in cuts:
                if chunked.is_terminal:
                    break
                feed(chunked, stream[pos : pos + size])
                pos += size
            while not chunked.is_terminal and pos < len(stream):
                feed(chunked, stream[pos : pos + 1])
                pos += 1
            assert chunked.status.state == whole.status.state
            assert chunked.history == whole.history[: len(chunked.history)]

    def test_replay_matches_simulation(self):
        # the same synthetic stream must decide identically through the
        # session path and the vectorized simulation path
        plan = make_plan()
        rep = simulate_plan(plan, mu=-0.5, sigma=1.0, replications=64, seed=505)
        from seqnorm.simulate import _normal_block, _words_per_replicate

        width = _words_per_replicate(plan.sizes[-1])
        accepted = 0
        hist = [0] * plan.num_stages
        for r in range(64):
            z = _normal_block(505, r * width, 1, width)[0, : plan.sizes[-1]]
            samples = list(-0.5 + 1.0 * z)
            session = new_session(plan)
            feed(session, samples)
            status = session.status
            hist[status.stage - 1] += 1
            if status.state == "accepted":
                accepted += 1
        assert tuple(hist) == rep.stage_histogram
        assert accepted == round(rep.accept_rate * 64)

    def test_unknown_plan_sessions(self):
        plan = build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1.0, 1.0, 3).with_certified(True)
        session = new_session(plan)
        feed(session, [10.0, 10.5, 9.5, 10.2])
        assert session.status.state in ("need_more", "accepted", "rejected")


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        rng = np.random.default_rng(3)
        feed(session, list(rng.normal(0.0, 1.0, 7)))
        path = tmp_path / "session.json"
        save_session(session, path)
        text_one = path.read_text()
        loaded = load_session(path)
        again = tmp_path / "again.json"
        save_session(loaded, again)
        assert again.read_text() == text_one
        assert loaded.samples == session.samples
        assert loaded.history == session.history
        assert loaded.status == session.status

    def test_truncated_file_is_format_error(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        feed(session, [0.1, 0.2])
        path = tmp_path / "session.json"
        save_session(session, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(SessionFormatError):
            load_session(path)

    def test_perturbed_statistic_is_integrity_error(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        feed(session, [(-1.0) ** i * 0.3 for i in range(plan.sizes[0])])
        assert session.history
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["history"][0]["statistic"] += 1e-6
        path.write_text(dump_json(data))
        with pytest.raises(IntegrityError):
            load_session(path)

    def test_tampered_decision_is_integrity_error(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        feed(session, [plan.gamma - 5.0] * plan.sizes[0])
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["history"][-1]["decision"] = "reject"
        data["status"] = {"state": "rejected", "stage": 1,
                          "statistic": data["history"][-1]["statistic"]}
        path.write_text(dump_json(data))
        with pytest.raises(IntegrityError):
            load_session(path)

    def test_version_tag_checked(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(dump_json(data))
        with pytest.raises(SessionFormatError):
            load_session(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer(self, tmp_path, version):
        session = new_session(make_plan())
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(SessionFormatError):
            load_session(path)

    def test_retyped_status_is_integrity_error(self, tmp_path):
        session = new_session(make_plan())
        feed(session, [0.1, 0.2])
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["status"]["next_n"] = float(data["status"]["next_n"])
        path.write_text(json.dumps(data))
        with pytest.raises(IntegrityError):
            load_session(path)
