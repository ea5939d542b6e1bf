"""Bench-side tracer: spans and counters around public functions of seqnorm.

The program is not edited.  Each traced function is wrapped, and the wrapper
is bound at every module attribute of the ``seqnorm`` package that holds the
original, so callers that imported the name (``from .quadrature import
integrate``) reach the wrapper too.  Callers must look names up at call time
for this to work, which every seqnorm module does through its globals.

A span is (name, start, end, parent); spans stay in memory until the run ends.
A span's self time is its duration minus the time covered by its children;
calls run on one thread, so children nest inside their parent and do not
overlap.  Counters hold only deterministic values (counts and certified
numbers), kept apart from timings so a traced run's counter section is
byte-identical for a given seed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# spans with this name are the tracer's own bookkeeping; their time is
# removed from the parent's self time and counted only as overhead
BOOKKEEPING = "trace"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.labels: dict[str, str] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def wrap(self, fn, name, prepare=None, after=None, span=True):
        """Return a wrapper of fn that records a span and runs counter hooks.

        name is a string or a callable of (args, kwargs) giving the span
        name.  prepare(args, kwargs) -> (args, kwargs) may replace arguments
        before the call; after(args, kwargs, result) updates counters and runs
        as bookkeeping.  With span=False only the hooks run.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            parent = stack[-1] if stack else -1
            if span:
                label = name(args, kwargs) if callable(name) else name
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (label, start, end, parent)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                t0 = perf_counter()
                after(args, kwargs, result)
                spans.append((BOOKKEEPING, t0, perf_counter(), parent))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, original, wrapper) -> int:
        """Rebind every module attribute of seqnorm that holds original."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seqnorm" or mod_name.startswith("seqnorm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, original))
                    hits += 1
        if hits == 0:
            raise LookupError(f"no module of seqnorm binds {original!r}")
        return hits

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- reduction ---------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        spans = [s for s in self.spans if s is not None]
        covered = [0.0] * len(self.spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, item in enumerate(self.spans):
            if item is None:
                continue
            label, start, end, _ = item
            entry = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered[idx]
        return out

    def dump_spans(self, path) -> None:
        """Write spans as [name index, parent, start ns, end ns] rows."""
        names: dict[str, int] = {}
        rows = []
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        for item in self.spans:
            if item is None:
                continue
            label, start, end, parent = item
            rows.append([
                names.setdefault(label, len(names)),
                parent,
                round((start - origin) * 1e9),
                round((end - origin) * 1e9),
            ])
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"names": list(names), "spans": rows}, fp, separators=(",", ":"))
