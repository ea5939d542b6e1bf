"""Session state machine, persistence round trips, integrity checks."""

import contextlib
import inspect
import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqnorm.cli import main
from seqnorm.errors import (
    DegenerateSampleError,
    DomainError,
    IntegrityError,
    PlanCertificationError,
    SessionFormatError,
    StateError,
)
from seqnorm.plan_known import Decision, build_known_plan
from seqnorm.plan_unknown import build_unknown_plan
from seqnorm import runner
from seqnorm.runner import (
    SessionStatus,
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
    session_from_dict,
    session_to_dict,
)
from seqnorm.simulate import simulate_plan

from oracles import reference_statistic, replicate_samples
from test_plan_known import build


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

    @pytest.mark.parametrize("plan, builder", [
        (make_plan(), build_known_plan),
        (build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1.0, 1.0, 3), build_unknown_plan),
    ], ids=["known", "unknown"])
    def test_plan_file_holds_its_builders_parameters(self, plan, builder):
        # a builder parameter is a plan file field with no loader code of its own
        design = list(inspect.signature(builder).parameters)
        assert list(plan_to_dict(plan)) == [
            "kind", *design, "theta_star", "stages", "certified"
        ]

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

    @pytest.mark.parametrize("edit, message", [
        # a real written as an integer: the rebuilt plan writes 1.0
        (lambda d: d.update(rho=1), "the stored rho field does not match the plan's design"),
        (lambda d: d.update(comment="x"), "plan has unknown fields ['comment']"),
        (lambda d: (d.pop("zeta"), d.pop("rho"), d.update(note=1)),
         "plan has missing fields ['zeta', 'rho'] and unknown fields ['note']"),
    ], ids=["integer-rho", "extra-field", "missing-and-extra-fields"])
    def test_plan_file_is_what_saving_writes(self, edit, message):
        data = plan_to_dict(make_plan())
        edit(data)
        with pytest.raises(SessionFormatError) as info:
            plan_from_dict(data)
        assert str(info.value) == message


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
        ("rho", 1),
        ("gamma", 0),
        ("sigma", 1),
        ("comment", "x"),
    ])
    def test_malformed_field_is_format_error(self, key, value):
        data = dict(plan_to_dict(make_plan()), **{key: value})
        with pytest.raises(SessionFormatError):
            plan_from_dict(data)

    @pytest.mark.parametrize("key, value, shown", [
        ("alpha", "0.05", "alpha must be a finite real, got '0.05'"),
        ("alpha", True, "alpha must be a finite real, got True"),
        ("tau", True, "tau must be an integer, got True"),
    ])
    def test_string_or_bool_field_names_its_type(self, tmp_path, key, value, shown):
        # float() reads both; the message must name the type, not a design
        # mismatch or range that the converted value would fail later
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(dict(plan_to_dict(make_plan()), **{key: value})))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["asn", str(path), "--theta", "0"])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == f"asn: cannot read plan: {shown}\n"

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
        # a JSON integer past the largest double
        pytest.param("epsilon", 10**400, ["asn", "--theta", "0.5"], id="epsilon-past-double"),
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

    def test_final_stage_continue_is_refused(self):
        # thresholds no statistic crosses would let the final stage continue:
        # such a plan is refused when it is made, so no session runs one (a
        # refused batch's rollback is tested with the overflow tests)
        plan = make_plan()
        message = "^the final stage must decide: a=-1000000000.0 != b=1000000000.0$"
        with pytest.raises(DomainError, match=message):
            replace(plan, stages=tuple(replace(s, a=-1e9, b=1e9) for s in plan.stages))
        # a statistic on the closed final threshold decides there
        session = new_session(plan)
        feed(session, [0.0] * plan.sizes[-1])
        assert plan.stages[-1].a == plan.stages[-1].b == 0.0
        assert session.status == SessionStatus(state="accepted", stage=3, statistic=0.0)

    def test_chunking_equivalence(self):
        plan = make_plan()
        rng = np.random.default_rng(23)
        stream = list(rng.normal(0.2, 1.0, plan.sizes[-1]))
        whole = new_session(plan)
        feed(whole, stream)
        for cuts in ((1, 4, 9), (2, 2, 2, 2, 2, 2), (17,)):
            chunked = new_session(plan)
            pos = 0
            sizes = itertools.chain(cuts, itertools.repeat(1))
            while not chunked.is_terminal and pos < len(stream):
                size = next(sizes)
                feed(chunked, stream[pos : pos + size])
                pos += size
                # the progress a session reports is the one its saved file replays to
                replayed = session_from_dict(session_to_dict(chunked), plan)
                assert chunked.status == replayed.status
                assert chunked.is_terminal == replayed.is_terminal
            assert chunked.status.state == whole.status.state
            assert chunked.history == whole.history[: len(chunked.history)]

    def test_replay_matches_simulation(self):
        # samples with each simulated replicate's stage sums must decide
        # identically through the session path and the vectorized one
        plan = make_plan()
        rep = simulate_plan(plan, mu=-0.5, sigma=1.0, replications=64, seed=505)
        accepted = 0
        hist = [0] * plan.num_stages
        for r in range(64):
            samples = replicate_samples(plan, -0.5, 1.0, r, 505)
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


@settings(max_examples=500, deadline=None)
@given(
    studentized=st.booleans(),
    epsilon=st.floats(0.2, 0.6),
    gamma=st.floats(-1e6, 1e6),
    log_sigma=st.floats(-3.0, 3.0),
    log_scale=st.floats(-8.0, 100.0),
    shift=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_session_statistics_match_the_scalar_reference(
    studentized, epsilon, gamma, log_sigma, log_scale, shift, seed
):
    """A session's history statistics are the scalar statistic bit for bit,
    for either plan kind, any gamma, sigma and stage sizes, and samples
    from 1e-8 to 1e100 in scale."""
    sigma = 10.0**log_sigma
    if studentized:
        plan = build_unknown_plan(0.05, 0.05, epsilon, gamma, zeta=0.8, rho=1.0, tau=3)
    else:
        plan = build_known_plan(0.05, 0.05, epsilon, gamma, sigma, zeta=0.45, rho=1.0, tau=3)
    scale = 10.0**log_scale
    z = np.random.default_rng(seed).standard_normal(plan.sizes[-1])
    samples = [gamma + scale * (shift + float(x)) for x in z]
    session = new_session(plan, allow_uncertified=True)
    feed(session, samples)
    assert session.is_terminal
    for entry in session.history:
        n = plan.sizes[entry.stage - 1]
        assert type(entry.statistic) is float
        assert repr(entry.statistic) == repr(reference_statistic(plan, samples, n))


# both builders' domains: alpha != beta, negative gamma, and epsilons large
# enough that unknown-variance sizes are clipped to 2
drawn_plans = st.builds(
    build,
    kind=st.sampled_from(["known", "unknown"]),
    alpha=st.floats(0.005, 0.4),
    beta=st.floats(0.005, 0.4),
    epsilon=st.floats(0.1, 4.0),
    gamma=st.floats(-1e3, 1e3),
    sigma=st.floats(1e-3, 1e3),
    zeta=st.floats(0.05, 1.0),
    rho=st.floats(0.1, 2.0),
    tau=st.integers(1, 6),
)


@settings(max_examples=300, deadline=None)
@given(plan=drawn_plans, certified=st.booleans())
def test_every_written_plan_loads_back(plan, certified):
    """plan_from_dict gives back what plan_to_dict wrote, byte for byte,
    except for a known-variance plan marked certified whose bounds fail."""
    data = plan_to_dict(plan.with_certified(certified))
    if certified and plan.kind == "known":
        bound_a, bound_b = plan.certify()
        if not (bound_a <= plan.alpha and bound_b <= plan.beta):
            with pytest.raises(SessionFormatError, match="^the plan says certified"):
                plan_from_dict(json.loads(dump_json(data)))
            return
    assert dump_json(plan_to_dict(plan_from_dict(json.loads(dump_json(data))))) == dump_json(data)


@settings(max_examples=150, deadline=None)
@given(
    plan=drawn_plans,
    batches=st.lists(st.lists(st.floats(-10.0, 10.0), max_size=8), max_size=6),
)
def test_every_saved_session_loads_back(plan, batches):
    """A session saved after any batches loads back to the same bytes,
    against the plan its embedded copy loads as."""
    session = new_session(plan, allow_uncertified=True)
    for batch in batches:
        if session.is_terminal:
            break
        with contextlib.suppress(DegenerateSampleError):
            feed(session, batch)
    data = json.loads(dump_json(session_to_dict(session)))
    loaded = session_from_dict(data, plan_from_dict(data["plan"]))
    assert dump_json(session_to_dict(loaded)) == dump_json(session_to_dict(session))


class TestOverflow:
    """Finite samples whose sums or statistic overflow are refused with one
    DomainError naming the stage, and no RuntimeWarning (tier-1 turns those
    into errors)."""

    UNKNOWN = build_unknown_plan(0.05, 0.05, 0.5, 0.0, zeta=0.87, rho=0.5, tau=4)

    @pytest.mark.parametrize(
        "plan, samples",
        [
            (make_plan(), [1.5e308] * 20),  # the sum overflows in fsum
            (UNKNOWN, [1e200 * (1 + i) for i in range(20)]),  # squared deviations overflow
            # a deviation of 1.4e-150 about a mean 1e308 above gamma
            (replace(UNKNOWN, gamma=-1e308), [1e-150, 0.0, 0.0, 0.0, 0.0]),
        ],
        ids=["known-sum", "unknown-squares", "unknown-statistic"],
    )
    def test_overflowing_samples_are_a_domain_error(self, plan, samples):
        session = new_session(plan, allow_uncertified=True)
        with pytest.raises(DomainError, match="^stage 1: "):
            feed(session, samples)

    def test_overflowing_statistic_names_its_stage(self):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1e-300, zeta=0.45, rho=0.5, tau=4)
        session = new_session(plan, allow_uncertified=True)
        feed(session, [1e-301, -1e-301] * 2 + [1e-301])
        assert session.status.state == "need_more"
        with pytest.raises(DomainError, match="^stage 2: "):
            feed(session, [1e10] * 10)

    def test_refused_batch_leaves_the_session_as_it_was(self):
        session = new_session(make_plan())
        before = session.status
        with pytest.raises(DomainError, match="^stage 1: "):
            feed(session, [1.5e308] * 20)
        assert session.status == before and before.state == "need_more"
        assert session.samples == [] and session.history == []
        assert not session.is_terminal and session.status.next_n == session.plan.sizes[0]

        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1e-300, zeta=0.45, rho=0.5, tau=4)
        session = new_session(plan, allow_uncertified=True)
        feed(session, [1e-301, -1e-301] * 2 + [1e-301])
        before, next_n = session_to_dict(session), session.status.next_n
        with pytest.raises(DomainError, match="^stage 2: "):
            feed(session, [1e10] * 10)
        assert session_to_dict(session) == before
        assert not session.is_terminal and session.status.next_n == next_n
        feed(session, [0.0] * session.status.next_n)  # the session still takes data
        assert len(session.history) == 2

    def test_stored_overflowing_samples_are_an_integrity_error(self):
        session = new_session(make_plan())
        feed(session, [0.1, 0.2])
        data = session_to_dict(session)
        data["samples"] = [1.5e308] * 5
        with pytest.raises(IntegrityError, match="^stored samples do not replay: stage 1: "):
            session_from_dict(data, session.plan)

    def test_cli_leaves_the_session_file_as_it_was(self, tmp_path):
        plan = build_known_plan(0.05, 0.05, 0.5, 0.0, 1e-300, zeta=0.45, rho=0.5, tau=4)
        plan_path, session_path = tmp_path / "plan.json", tmp_path / "session.json"
        save_plan(plan, plan_path)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_text("1e-301\n-1e-301\n1e-301\n-1e-301\n1e-301\n")
        second.write_text("1e10\n" * 10)
        argv = ["run", str(plan_path), "--session", str(session_path), "--allow-uncertified"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--data", str(first)]) == 4
        before = session_path.read_bytes()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv + ["--data", str(second)]) == 2
        assert err.getvalue() == "run: stage 2: the samples' sums or statistic overflow\n"
        assert session_path.read_bytes() == before


class TestPersistence:
    def test_failed_save_keeps_the_old_file(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        feed(session, [0.1, 0.2])
        path = tmp_path / "session.json"
        save_session(session, path)
        before = path.read_bytes()
        session.samples.append(math.inf)
        with pytest.raises(DomainError, match="non-finite"):
            save_session(session, path)
        assert path.read_bytes() == before

    def test_round_trip_bit_exact(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        rng = np.random.default_rng(3)
        feed(session, list(rng.normal(0.0, 1.0, 7)))
        path = tmp_path / "session.json"
        save_session(session, path)
        text_one = path.read_text()
        loaded = load_session(path, plan)
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
            load_session(path, session.plan)

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
            load_session(path, session.plan)

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
            load_session(path, session.plan)

    def test_version_tag_checked(self, tmp_path):
        plan = make_plan()
        session = new_session(plan)
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(dump_json(data))
        with pytest.raises(SessionFormatError):
            load_session(path, session.plan)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(extra=1), "session has unknown fields ['extra']"),
        (lambda d: d.pop("history"), "session has missing fields ['history']"),
    ], ids=["extra-field", "missing-field"])
    def test_session_file_is_what_saving_writes(self, edit, message):
        session = feed(new_session(make_plan()), [0.1, 0.2])
        data = session_to_dict(session)
        edit(data)
        with pytest.raises(SessionFormatError) as info:
            session_from_dict(data, session.plan)
        assert str(info.value) == message

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer(self, tmp_path, version):
        session = new_session(make_plan())
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(SessionFormatError):
            load_session(path, session.plan)

    def test_retyped_status_is_integrity_error(self, tmp_path):
        session = new_session(make_plan())
        feed(session, [0.1, 0.2])
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        data["status"]["next_n"] = float(data["status"]["next_n"])
        path.write_text(json.dumps(data))
        with pytest.raises(IntegrityError):
            load_session(path, session.plan)

    def test_history_and_status_messages(self, tmp_path):
        session = feed(new_session(make_plan()), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert session.history
        for key, edit in (
            ("history", lambda d: d["history"].pop()),
            ("status", lambda d: d["status"].update(next_n=99)),
        ):
            data = session_to_dict(session)
            edit(data)
            with pytest.raises(IntegrityError) as info:
                session_from_dict(data, session.plan)
            assert str(info.value) == f"stored {key} does not match recomputation from samples"


class TestSessionPlan:
    """A session is loaded against the plan it runs; its embedded copy must equal it."""

    def _doc(self):
        session = feed(new_session(make_plan()), [0.1, 0.2])
        return session.plan, session_to_dict(session)

    @pytest.mark.parametrize("edit", [
        lambda p: p["stages"][0].update(a=p["stages"][0]["a"] - 0.5),
        lambda p: p.update(theta_star=p["theta_star"] + 0.1),
        lambda p: p.update(certified=False),
        lambda p: p.update(gamma=0),  # a real written as an integer
        lambda p: p.update(extra=1),
    ])
    def test_edited_embedded_plan_is_refused(self, edit):
        plan, data = self._doc()
        edit(data["plan"])
        with pytest.raises(SessionFormatError, match="^session was created from a different plan$"):
            session_from_dict(data, plan)

    def test_plan_mismatch_is_reported_before_sample_faults(self):
        plan, data = self._doc()
        data["samples"] = ["x"]
        data["history"] = [{}]
        with pytest.raises(SessionFormatError, match="different plan"):
            session_from_dict(data, make_plan(certified=False))
        with pytest.raises(SessionFormatError, match="samples"):
            session_from_dict(data, plan)

    def test_lone_session_audits_against_its_embedded_plan(self):
        plan, data = self._doc()
        session = session_from_dict(data, plan_from_dict(data["plan"]))
        assert session_to_dict(session) == data

    def test_run_builds_its_plan_once(self, tmp_path, monkeypatch):
        plan_path, session_path, data = (
            tmp_path / "plan.json", tmp_path / "session.json", tmp_path / "data.csv"
        )
        save_plan(make_plan(), plan_path)
        data.write_text("0.1\n")
        argv = ["run", str(plan_path), "--session", str(session_path), "--data", str(data)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 4
        calls = []

        def counting(**design):
            calls.append(design)
            return build_known_plan(**design)

        monkeypatch.setattr(runner, "build_known_plan", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 4
        assert len(calls) == 1
