"""Property: a plan or session file with one field mutated never gets past
the CLI's error handling.  Every command exits 1 or 2 with one stderr line
naming the command, and no exception escapes.

Mutations change a field's JSON type, put a non-finite real where a real
belongs, or put in a value the format rules out.  Derived edits keep every
type but change what the design builds: a stage threshold or size,
theta_star, or the number of stages.  Each one is invalid, so no command
may succeed on the mutated file.  Nor may any succeed on a file nested
past the JSON parser's recursion limit.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqnorm.cli import main
from seqnorm.errors import SessionFormatError
from seqnorm.plan_known import build_known_plan
from seqnorm.plan_unknown import build_unknown_plan
from seqnorm.runner import feed, new_session, plan_to_dict, session_from_dict, session_to_dict

PLANS = {
    "known": build_known_plan(0.05, 0.05, 0.5, 0.0, 1.0, 1 / 3, 1.0, 3).with_certified(True),
    "unknown": build_unknown_plan(0.05, 0.05, 0.5, 0.0, 1 / 3, 1.0, 3).with_certified(True),
}


def _session_doc(plan) -> dict:
    """A session whose first stage continued, so history and status are set."""
    n1 = plan.sizes[0]
    samples = [0.1 * (-1) ** i * (i // 2 + 1) for i in range(n1 - n1 % 2)] + [0.0] * (n1 % 2)
    session = feed(new_session(plan), samples)
    assert session.history and session.status.state == "need_more"
    return session_to_dict(session)


DOCS = {
    **{f"plan.{kind}": plan_to_dict(plan) for kind, plan in PLANS.items()},
    **{f"session.{kind}": _session_doc(plan) for kind, plan in PLANS.items()},
}


def _paths(node, prefix=()):
    """Every path below the document root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _well_typed(value, original) -> bool:
    """True when value would pass the format's type rules in original's place."""
    if isinstance(original, bool):
        return isinstance(value, bool)
    if isinstance(original, int):
        return type(value) is int
    if isinstance(original, float):
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is type(original)


ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
# values of the right type that the format still rules out
INVALID_VALUES = {
    "kind": ["other", "Known"],
    "version": [0, 2],
    "n": [0, -4],
}


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    path = draw(st.sampled_from(list(_paths(doc))))
    original = _get(doc, path)
    choices = ANY_JSON.filter(lambda v: not _well_typed(v, original))
    if path[-1] in INVALID_VALUES:
        choices = st.one_of(choices, st.sampled_from(INVALID_VALUES[path[-1]]))
    _get(doc, path[:-1])[path[-1]] = draw(choices)
    return name, path, doc


@st.composite
def derived_edits(draw):
    """A well-typed edit of a field the plan's design determines."""
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    plan = doc["plan"] if name.startswith("session.") else doc
    stages = plan["stages"]
    index = draw(st.integers(0, len(stages) - 1))
    edit = draw(st.sampled_from(["a", "b", "n", "theta_star", "append", "drop"]))
    if edit in ("a", "b"):
        stages[index][edit] += draw(st.sampled_from([-0.5, 0.5]))
    elif edit == "n":
        stages[index]["n"] += 1
    elif edit == "theta_star":
        plan["theta_star"] += draw(st.sampled_from([-0.1, 0.1]))
    elif edit == "append":
        stages.append(dict(stages[-1], n=stages[-1]["n"] + 1))
    else:
        del stages[index]
    return name, (edit, index), doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutation")
    (path / "data.csv").write_text("0.25\n")
    for kind, plan in PLANS.items():
        (path / f"{kind}.json").write_text(json.dumps(plan_to_dict(plan)))
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_every_command_fails(workdir, name, path, doc, session_plans=()):
    """The (exit code, stderr) of each command; doc is written as JSON, or
    as is when it is text.  session_plans: plan files to run a mutated
    session against, besides its own kind's."""
    role, kind = name.split(".")
    mutated = workdir / "mutated.json"
    mutated.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    data = workdir / "data.csv"
    if role == "plan":
        session = workdir / "fresh.session.json"
        session.unlink(missing_ok=True)
        commands = [
            ["oc", mutated, "--theta-min", "-1", "--theta-max", "1", "--points", "2",
             "--cell-budget", "4"],
            ["asn", mutated, "--theta", "0.5"],
            ["simulate", mutated, "--mu", "0", "--sigma", "1", "--reps", "10", "--seed", "1"],
            ["run", mutated, "--session", session, "--data", data],
        ]
    else:
        plans = [workdir / f"{kind}.json", *session_plans]
        commands = [["run", plan, "--session", mutated, "--data", data] for plan in plans]
    results = []
    for argv in commands:
        code, out, err = _run(argv)
        assert code in (1, 2), (path, argv[0], code, err)
        assert out == ""
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1 and err.endswith("\n")
        results.append((code, err))
    return results


@settings(max_examples=40, deadline=None)
@given(mutations())
def test_mutated_file_fails_with_one_line(workdir, mutation):
    _assert_every_command_fails(workdir, *mutation)


@settings(max_examples=40, deadline=None)
@given(derived_edits())
def test_derived_edit_fails_with_one_line(workdir, mutation):
    name, path, doc = mutation
    session_plans = []
    if name.startswith("session."):
        with pytest.raises(SessionFormatError, match="session was created from a different plan"):
            session_from_dict(doc, PLANS[name.split(".")[1]])
        # a plan file with the same edit agrees with the session's plan, so
        # only the load-time checks can refuse this run
        edited = workdir / "edited.plan.json"
        edited.write_text(json.dumps(doc["plan"]))
        session_plans.append(edited)
    _assert_every_command_fails(workdir, name, path, doc, session_plans)


@pytest.mark.parametrize("name", ["plan.known", "session.known"])
def test_deeply_nested_file_fails_with_one_line(workdir, name):
    """JSON nested past the parser's recursion limit is refused as invalid
    JSON by every command that reads the file; json.dumps cannot write it."""
    deep = "[" * 100_000 + "]" * 100_000
    for code, err in _assert_every_command_fails(workdir, name, "deep", deep):
        assert code == 1 and "not valid JSON" in err, err
