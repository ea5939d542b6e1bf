"""Stage-by-stage execution over real data batches, with persistence.

A session embeds a full copy of its plan, the samples seen so far, and a
history of (stage, statistic, decision) rows, so a saved file is
self-contained and auditable.  A session is loaded against the plan it
runs: the embedded copy must equal that plan exactly, with equal JSON
types.  Loading recomputes every history statistic and decision from the
stored samples and rejects the file on any mismatch; a terminal decision
can therefore never be altered by editing the file.

A stage's statistic is the plan's ``stage_statistics``, the method the
simulator calls; samples whose sums or statistic overflow are refused
with a DomainError before anything is saved, and a stored session whose
samples do is refused on load with an IntegrityError.

Serialized reals carry 17 significant digits, which round-trip doubles
exactly, so the recompute check can demand bit equality.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import (
    DegenerateSampleError,
    DomainError,
    IntegrityError,
    PlanCertificationError,
    SessionFormatError,
    StateError,
    real,
)
from .plan_known import Decision, KnownVarPlan, build_known_plan, decision_code
from .plan_unknown import UnknownVarPlan, build_unknown_plan

SESSION_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSON with fixed-width reals
# ---------------------------------------------------------------------------


def format_real(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same double."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize non-finite real {x!r}")
    s = format(x, ".17g")
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def dump_json(obj) -> str:
    """Deterministic JSON emitter, two-space indented; floats go through format_real."""
    pieces: list[str] = []
    _emit(obj, pieces, 0)
    return "".join(pieces)


def _emit(obj, out: list[str], depth: int) -> None:
    pad = "  " * (depth + 1)
    end_pad = "  " * depth
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_real(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            if i:
                out.append(",\n")
            out.append(pad)
            _emit(item, out, depth + 1)
        out.append("\n" + end_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",\n")
            out.append(pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(val, out, depth + 1)
        out.append("\n" + end_pad + "}")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Plan schema (shared by both plan kinds)
# ---------------------------------------------------------------------------


_PLAN_TYPES = {cls.kind: cls for cls in (KnownVarPlan, UnknownVarPlan)}
# serialized order of the scalar fields; each plan type writes the ones it has
_SCALAR_ORDER = ("alpha", "beta", "epsilon", "gamma", "sigma", "zeta", "rho", "tau", "theta_star")
_SCALARS = {
    cls: tuple(key for key in _SCALAR_ORDER if key in {f.name for f in fields(cls)})
    for cls in _PLAN_TYPES.values()
}


def plan_to_dict(plan) -> dict:
    out = {"kind": plan.kind}
    for key in _SCALARS[type(plan)]:
        out[key] = getattr(plan, key)
    out["stages"] = [{"n": s.n, "a": s.a, "b": s.b} for s in plan.stages]
    out["certified"] = plan.certified
    return out


def _reals(values, name: str) -> list[float]:
    """A JSON array of finite numbers, as floats; checked in bulk for speed."""
    if isinstance(values, list) and set(map(type, values)) <= {int, float}:
        try:
            out = list(map(float, values))
        except OverflowError:
            out = [math.inf]
        if all(map(math.isfinite, out)):
            return out
    raise SessionFormatError(f"{name} must be an array of finite reals")


def _require_fields(data: dict, expected, what: str) -> None:
    """Refuse a file whose fields are not exactly the ones the program writes."""
    found = {"missing": [key for key in expected if key not in data],
             "unknown": [key for key in data if key not in expected]}
    named = [f"{label} fields {keys}" for label, keys in found.items() if keys]
    if named:
        raise SessionFormatError(f"{what} has " + " and ".join(named))


def plan_from_dict(data: dict):
    """The plan a file's design builds, provided the file is what saving that plan writes.

    The file must have the fields plan_to_dict writes for its kind; its design
    fields build the plan, whose builder refuses a field of the wrong type as
    it refuses one out of range, and the plan, written out, must equal the
    file field for field with equal JSON types.
    A known-variance plan that says it is certified has its closed-form
    certificate re-run, and is refused unless both bounds hold.
    """
    if not isinstance(data, dict):
        raise SessionFormatError("plan must be a JSON object")
    kind = data.get("kind")
    cls = _PLAN_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SessionFormatError(f"unknown plan kind {kind!r}")
    scalars = _SCALARS[cls]
    _require_fields(data, ("kind", *scalars, "stages", "certified"), "plan")
    design = {key: data[key] for key in scalars[:-1]}  # theta_star, the last, is derived
    build = build_known_plan if cls is KnownVarPlan else build_unknown_plan
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the builder's clip warning
            plan = build(**design).with_certified(data["certified"] is True)
    except DomainError as exc:
        raise SessionFormatError(str(exc)) from exc
    for key, value in plan_to_dict(plan).items():
        if not _json_equal(value, data[key]):
            raise SessionFormatError(f"the stored {key} field does not match the plan's design")
    if cls is KnownVarPlan and plan.certified:
        bound_a, bound_b = plan.certify()
        if not (bound_a <= plan.alpha and bound_b <= plan.beta):
            raise SessionFormatError(
                f"the plan says certified, but its bounds ({format_real(bound_a)}, "
                f"{format_real(bound_b)}) exceed (alpha, beta)"
            )
    return plan


def _write_json(obj, path: str | os.PathLike) -> None:
    # serialize first: a value dump_json refuses must not truncate the file
    text = dump_json(obj) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)


def save_plan(plan, path: str | os.PathLike) -> None:
    _write_json(plan_to_dict(plan), path)


def _read_json(path: str | os.PathLike, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except (ValueError, RecursionError) as exc:  # undecodable, invalid or too deep
        raise SessionFormatError(f"{what} file is not valid JSON: {exc}") from exc


def load_plan(path: str | os.PathLike):
    return plan_from_dict(_read_json(path, "plan"))


# ---------------------------------------------------------------------------
# Session state machine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryEntry:
    stage: int  # 1-based
    statistic: float
    decision: Decision


@dataclass(frozen=True)
class SessionStatus:
    state: str  # "need_more" | "accepted" | "rejected"
    next_n: int | None = None
    stage: int | None = None
    statistic: float | None = None


class TestSession:
    """Single-writer execution state for one plan over incoming batches.

    Progress is the history: the next stage is len(history), and the
    session is decided once its last row does not continue.
    """

    def __init__(self, plan):
        self.plan = plan
        self.samples: list[float] = []
        self.history: list[HistoryEntry] = []

    @property
    def status(self) -> SessionStatus:
        if self.is_terminal:
            last = self.history[-1]
            state = "accepted" if last.decision == Decision.ACCEPT else "rejected"
            return SessionStatus(state=state, stage=last.stage, statistic=last.statistic)
        need = self.plan.stages[len(self.history)].n - len(self.samples)
        return SessionStatus(state="need_more", next_n=need)

    @property
    def is_terminal(self) -> bool:
        return bool(self.history) and self.history[-1].decision != Decision.CONTINUE

    def _statistic(self, n: int) -> float:
        """The stage statistic of the first n samples, from their fsum and,
        for a studentized plan, the two-pass fsum of squared deviations."""
        window = self.samples[:n]
        squares = None
        try:
            total = math.fsum(window)
            if self.plan.studentized:
                mean = total / n
                squares = math.fsum((x - mean) ** 2 for x in window)
        except OverflowError:
            value = math.inf
        else:
            if squares is not None and squares <= 0.0:
                raise DegenerateSampleError("all samples equal; sample deviation is zero")
            value = float(self.plan.stage_statistics(total, squares, n))
        if not math.isfinite(value):
            stage = len(self.history) + 1
            raise DomainError(f"stage {stage}: the samples' sums or statistic overflow")
        return value

    def _advance(self) -> None:
        while not self.is_terminal:
            index = len(self.history)
            stage = self.plan.stages[index]
            if len(self.samples) < stage.n:
                return
            value = self._statistic(stage.n)
            decision = Decision(decision_code(value, stage.a, stage.b))
            self.history.append(HistoryEntry(stage=index + 1, statistic=value, decision=decision))


def new_session(plan, allow_uncertified: bool = False) -> TestSession:
    """Fresh session; refuses uncertified plans unless explicitly allowed."""
    if not plan.certified and not allow_uncertified:
        raise PlanCertificationError(
            "plan is not certified; pass allow_uncertified=True to run it anyway"
        )
    return TestSession(plan)


def feed(session: TestSession, batch: Sequence[float]) -> TestSession:
    """Append a batch and evaluate every stage it completes.

    Samples arriving in the same batch beyond a terminal decision are kept
    for the record but never consulted; feeding a session that is already
    terminal is a state error.  A refused batch leaves the session as it
    was: its samples and history are restored.
    """
    if session.is_terminal:
        raise StateError("session already reached a terminal decision")
    values = list(batch)
    # a batch of finite floats, as run reads, skips real
    if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
        try:
            values = [real("sample", x) for x in values]
        except DomainError:
            raise DomainError("samples must be finite reals") from None
    seen, rows = len(session.samples), len(session.history)
    session.samples.extend(values)
    try:
        session._advance()
    except BaseException:
        del session.samples[seen:]
        del session.history[rows:]
        raise
    return session


# ---------------------------------------------------------------------------
# Session persistence
# ---------------------------------------------------------------------------


def session_to_dict(session: TestSession) -> dict:
    return {
        "version": SESSION_SCHEMA_VERSION,
        "plan": plan_to_dict(session.plan),
        "samples": list(session.samples),
        "status": {k: v for k, v in vars(session.status).items() if v is not None},
        "history": [
            {
                "stage": h.stage,
                "statistic": h.statistic,
                "decision": h.decision.name.lower(),
            }
            for h in session.history
        ],
    }


def save_session(session: TestSession, path: str | os.PathLike) -> None:
    _write_json(session_to_dict(session), path)


def _json_equal(a, b) -> bool:
    """Equal with equal types throughout, so 3 and 3.0 (or 1 and true) differ."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


def session_from_dict(data: dict, plan) -> TestSession:
    """The session data holds, replayed with plan; its embedded plan must equal plan's.

    To audit a lone session file, pass the plan it embeds:
    session_from_dict(data, plan_from_dict(data["plan"])).
    """
    if not isinstance(data, dict):
        raise SessionFormatError("session must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != SESSION_SCHEMA_VERSION:
        raise SessionFormatError(f"unsupported session schema version {version!r}")
    _require_fields(data, ("version", "plan", "samples", "status", "history"), "session")
    if not _json_equal(data["plan"], plan_to_dict(plan)):
        raise SessionFormatError("session was created from a different plan")
    samples = _reals(data["samples"], "samples")

    # replay the samples through a fresh session, then demand that every
    # stored history row and the status match the recomputation bit for bit
    session = TestSession(plan)
    session.samples = samples
    try:
        session._advance()
    except DomainError as exc:
        # feed refuses such samples before anything is saved
        raise IntegrityError(f"stored samples do not replay: {exc}") from exc

    derived = session_to_dict(session)
    for key in ("history", "status"):
        if not _json_equal(derived[key], data[key]):
            raise IntegrityError(f"stored {key} does not match recomputation from samples")
    return session


def load_session(path: str | os.PathLike, plan) -> TestSession:
    return session_from_dict(_read_json(path, "session"), plan)
