"""Stage-by-stage execution over real data batches, with persistence.

A session embeds a full copy of its plan, the samples seen so far, and a
history of (stage, statistic, decision) rows, so a saved file is
self-contained and auditable.  Loading recomputes every history statistic
and decision from the stored samples and rejects the file on any mismatch;
a terminal decision can therefore never be altered by editing the file.

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
    DomainError,
    IntegrityError,
    PlanCertificationError,
    SeqnormError,
    SessionFormatError,
    StateError,
)
from .plan_known import Decision, KnownVarPlan, build_known_plan, decide_stage
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


def _real(value, name: str) -> float:
    """A finite JSON number; booleans are not numbers here."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise SessionFormatError(f"{name} must be a finite real, got {value!r}")
    return float(value)


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


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SessionFormatError(f"{name} must be an integer, got {value!r}")
    return value


def plan_from_dict(data: dict):
    """The plan a file's design builds, provided its stored stages and theta_star match.

    Stages and theta_star are derived data: they are rebuilt from the design
    fields and compared type-strictly, so an edited threshold or size, or a
    file written by a numerics build that rounds differently, is refused.
    """
    if not isinstance(data, dict):
        raise SessionFormatError("plan must be a JSON object")
    kind = data.get("kind")
    cls = _PLAN_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SessionFormatError(f"unknown plan kind {kind!r}")
    scalars = _SCALARS[cls]
    missing = {"kind", "stages", "certified", *scalars} - set(data)
    if missing:
        raise SessionFormatError(f"plan is missing fields: {sorted(missing)}")
    if not isinstance(data["certified"], bool):
        raise SessionFormatError(f"certified must be true or false, got {data['certified']!r}")
    design = {
        key: (_integer if key == "tau" else _real)(data[key], key)
        for key in scalars
        if key != "theta_star"
    }
    build = build_known_plan if cls is KnownVarPlan else build_unknown_plan
    try:
        with warnings.catch_warnings():
            # the builder warns when it clips stage sizes to 2; loading prints nothing
            warnings.simplefilter("ignore", RuntimeWarning)
            plan = build(**design)
    except DomainError as exc:
        raise SessionFormatError(str(exc)) from exc
    derived = plan_to_dict(plan)
    for key in ("theta_star", "stages"):
        if not _json_equal(derived[key], data[key]):
            raise SessionFormatError(f"the stored {key} field does not match the plan's design")
    return plan.with_certified(data["certified"])


def save_plan(plan, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(dump_json(plan_to_dict(plan)))
        fp.write("\n")


def load_plan(path: str | os.PathLike):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise SessionFormatError(f"plan file is not valid JSON: {exc}") from exc
    return plan_from_dict(data)


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
    """Single-writer execution state for one plan over incoming batches."""

    def __init__(self, plan):
        self.plan = plan
        self.samples: list[float] = []
        self.history: list[HistoryEntry] = []
        self._stage_index = 0  # next stage to evaluate, 0-based
        self._decision: Decision | None = None

    @property
    def status(self) -> SessionStatus:
        if self._decision is not None:
            last = self.history[-1]
            state = "accepted" if self._decision == Decision.ACCEPT else "rejected"
            return SessionStatus(state=state, stage=last.stage, statistic=last.statistic)
        need = self.plan.stages[self._stage_index].n - len(self.samples)
        return SessionStatus(state="need_more", next_n=need)

    @property
    def is_terminal(self) -> bool:
        return self._decision is not None

    def _advance(self) -> None:
        while self._decision is None:
            stage = self.plan.stages[self._stage_index]
            if len(self.samples) < stage.n:
                return
            value = self.plan.statistic(self.samples, stage.n)
            decision = decide_stage(value, stage)
            self.history.append(
                HistoryEntry(stage=self._stage_index + 1, statistic=value, decision=decision)
            )
            if decision == Decision.CONTINUE:
                if self._stage_index + 1 >= len(self.plan.stages):
                    raise SeqnormError(
                        "final stage returned continue; plan thresholds are inconsistent"
                    )
                self._stage_index += 1
            else:
                self._decision = decision


def new_session(plan, allow_uncertified: bool = False) -> TestSession:
    """Fresh session; refuses uncertified plans unless explicitly allowed."""
    if not plan.stages:
        raise DomainError("plan has no stages")
    if not plan.certified and not allow_uncertified:
        raise PlanCertificationError(
            "plan is not certified; pass allow_uncertified=True to run it anyway"
        )
    return TestSession(plan)


def feed(session: TestSession, batch: Sequence[float]) -> TestSession:
    """Append a batch and evaluate every stage it completes.

    Samples arriving in the same batch beyond a terminal decision are kept
    for the record but never consulted; feeding a session that is already
    terminal is a state error.
    """
    if session.is_terminal:
        raise StateError("session already reached a terminal decision")
    values = [float(x) for x in batch]
    if any(not math.isfinite(v) for v in values):
        raise DomainError("samples must be finite reals")
    session.samples.extend(values)
    session._advance()
    return session


# ---------------------------------------------------------------------------
# Session persistence
# ---------------------------------------------------------------------------


def _status_to_dict(status: SessionStatus) -> dict:
    out = {"state": status.state}
    if status.next_n is not None:
        out["next_n"] = status.next_n
    if status.stage is not None:
        out["stage"] = status.stage
    if status.statistic is not None:
        out["statistic"] = status.statistic
    return out


def session_to_dict(session: TestSession) -> dict:
    return {
        "version": SESSION_SCHEMA_VERSION,
        "plan": plan_to_dict(session.plan),
        "samples": list(session.samples),
        "status": _status_to_dict(session.status),
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
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(dump_json(session_to_dict(session)))
        fp.write("\n")


def _json_equal(a, b) -> bool:
    """Equal with equal types throughout, so 3 and 3.0 (or 1 and true) differ."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


def session_from_dict(data: dict) -> TestSession:
    if not isinstance(data, dict):
        raise SessionFormatError("session must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != SESSION_SCHEMA_VERSION:
        raise SessionFormatError(f"unsupported session schema version {version!r}")
    for key in ("plan", "samples", "status", "history"):
        if key not in data:
            raise SessionFormatError(f"session is missing field {key!r}")
    plan = plan_from_dict(data["plan"])
    samples = _reals(data["samples"], "samples")

    # replay the samples through a fresh session, then demand that every
    # stored history row and the status match the recomputation bit for bit
    session = TestSession(plan)
    session.samples = samples
    session._advance()

    derived = session_to_dict(session)
    if not _json_equal(derived["history"], data["history"]):
        raise IntegrityError(
            "stored history does not match recomputation from samples"
        )
    if not _json_equal(derived["status"], data["status"]):
        raise IntegrityError("stored status does not match recomputation from samples")
    return session


def load_session(path: str | os.PathLike) -> TestSession:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise SessionFormatError(f"session file is not valid JSON: {exc}") from exc
    return session_from_dict(data)
