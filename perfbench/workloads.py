"""The three benchmark workloads.

Each is a closed loop with one client: an operation starts only after the
previous one has finished.  Building a workload object from the seed is the
set-up; ``run_unit(i)`` runs the i-th unit of work; ``check()`` runs the
oracles after the timed region.  Workloads call seqnorm through module
attributes looked up at call time, so the traced run's wrappers see them.

- unknown-design: ``design --kind unknown --calibrate`` through the library
  on two fixed designs, one on each side of the plan == mirror property.
- known-cli: a seeded sweep of known-variance designs through ``cli.main``,
  the interactive path with many short calls and session replays.
- simulate: Monte Carlo execution of two short and two long plans, which
  separates per-sample from per-replicate cost.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from . import oracles

# unknown-design settings: the full default calibration (cell_budget 256,
# zeta_tol 1e-4) takes over a minute per design, so the budget and the
# tolerance are reduced until both designs repeat about ten times in one run
# (about 0.9-1.3 s for sym and 2-2.5 s for asym on a 2-vCPU VM), which keeps
# their medians steady; both still take 8 calibration probes
CELL_BUDGET = 8
ZETA_TOL = 2e-2
TAIL_MASS = 1e-4
MC_REPS = 100_000

# simulate replicates per plan: a pass over the two short plans takes about
# 0.65 s and one over the two long plans about 2 s on a 2-vCPU VM, so a run
# times about a dozen passes of each
SHORT_REPS = 250_000
LONG_REPS = 50_000

DESIGNS = {
    # the test suite's design; its final stage has d_cur = 0 and plan == mirror
    "sym": dict(alpha=0.05, beta=0.05, epsilon=0.5, rho=1.0, tau=3),
    # every term is a hyperbola-cone and the plan differs from its mirror
    "asym": dict(alpha=0.05, beta=0.10, epsilon=0.5, rho=0.5, tau=4),
}

# zeta of the default-settings calibration of "sym" (cell_budget 256,
# zeta_tol 1e-4), used for the simulated unknown-variance plans
ZETA_SYM_DEFAULT = 0.87777

# known-cli design grid: (alpha, beta, rho, tau), 128 points
KNOWN_GRID = list(itertools.product(
    (0.01, 0.025, 0.05, 0.1), (0.01, 0.025, 0.05, 0.1), (0.5, 1.0), range(2, 6)
))


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


class _Workload:
    name = ""
    # units alternate between the workload's two kinds of work (short and
    # long), so each sample is short and the host-speed reference runs close
    # to it; the timed loop always runs one of each
    min_units = 2  # units the timed loop always runs
    trace_units = 2  # fixed units of the traced run, so its counters repeat

    def __init__(self, sn, seed: int, workdir: Path | None = None):
        self.sn = sn
        self.seed = seed
        self.workdir = workdir
        self.labels: dict[str, str] = {}
        self.ops = 0
        self.op_failures: list[str] = []

    def _op_failed(self, what: str) -> None:
        msg = f"{what}: {traceback.format_exc(limit=3)}"
        self.op_failures.append(msg)
        print(msg, file=sys.stderr)



class UnknownDesign(_Workload):
    name = "unknown-design"

    def __init__(self, sn, seed, workdir=None, cell_budget=CELL_BUDGET,
                 zeta_tol=ZETA_TOL, mc_reps=MC_REPS):
        super().__init__(sn, seed, workdir)
        self.cell_budget = cell_budget
        self.zeta_tol = zeta_tol
        self.mc_reps = mc_reps
        self.times: dict[str, list[float]] = {name: [] for name in DESIGNS}
        self.records: dict[str, dict] = {}
        self.plans: dict[str, tuple] = {}

    def settings(self):
        return {"cell_budget": self.cell_budget, "zeta_tol": self.zeta_tol,
                "tail_mass": TAIL_MASS, "mc_reps": self.mc_reps,
                "designs": DESIGNS}

    def run_unit(self, i):
        name = list(DESIGNS)[i % len(DESIGNS)]
        self.ops += 1
        try:
            rec, plans, seconds = self._design(name, DESIGNS[name])
        except Exception:
            self._op_failed(f"{name} design")
            return
        self.times[name].append(seconds)
        self.records.setdefault(name, rec)
        self.plans.setdefault(name, plans)

    def _design(self, name, d):
        sn = self.sn
        eps = d["epsilon"]
        tm, cb = TAIL_MASS, self.cell_budget
        t0 = perf_counter()
        cal = sn.calibrate_unknown(d["alpha"], d["beta"], eps, d["rho"], d["tau"],
                                   zeta_tol=self.zeta_tol, tail_mass=tm, cell_budget=cb)
        plan = sn.build_unknown_plan(d["alpha"], d["beta"], eps, 0.0, cal.zeta,
                                     d["rho"], d["tau"]).with_certified(cal.certified)
        self.labels["certify"] = name
        try:
            lo, hi = sn.oc_upper_P(-eps, plan, tm, cb)
            mirror = sn.mirror_unknown_plan(plan)
            mlo, mhi = sn.oc_upper_P(-eps, mirror, tm, cb)
        finally:
            del self.labels["certify"]
        seconds = perf_counter() - t0
        rec = {
            "name": name, "alpha": d["alpha"], "beta": d["beta"],
            "zeta": cal.zeta, "probes": cal.iterations, "certified": cal.certified,
            "sizes": list(plan.sizes), "mirror_sizes": list(mirror.sizes),
            "lower": lo, "upper": hi, "mirror_lower": mlo, "mirror_upper": mhi,
            "gap": max(hi - lo, mhi - mlo),
        }
        return rec, (plan, mirror), seconds

    def check(self) -> oracles.Checks:
        checks: oracles.Checks = []
        for name, rec in self.records.items():
            plan, mirror = self.plans[name]
            eps = DESIGNS[name]["epsilon"]
            for side, p in (("", plan), ("mirror_", mirror)):
                mc = self.sn.mc_transition_sums(p, -eps, 1.0, self.mc_reps, self.seed)
                rec[f"{side}mc_reject_sum"] = mc.reject_sum
                rec[f"{side}mc_reject_se"] = mc.reject_se
            checks += oracles.check_unknown_design(rec)
        return checks

    def named_metrics(self):
        out = {}
        for name in DESIGNS:
            rec = self.records.get(name, {})
            out[f"{name}.design_s"] = (_median(self.times[name]), "s")
            out[f"{name}.gap"] = (rec.get("gap", 0.0), "prob")
            out[f"{name}.zeta"] = (rec.get("zeta", 0.0), "1")
        return out

    def contract_metrics(self, norm):
        zetas = [rec["zeta"] for rec in self.records.values()]
        return {
            "short_norm": _median(norm["sym"]),
            "long_norm": _median(norm["asym"]),
            "zeta": statistics.fmean(zetas) if zetas else 0.0,
        }


class KnownCli(_Workload):
    name = "known-cli"

    def __init__(self, sn, seed, workdir=None, min_designs=len(KNOWN_GRID)):
        super().__init__(sn, seed, workdir)
        # the first full pass over the grid is always run and gives `zeta`:
        # a mean over every grid point varies little with the seed
        self.min_units = self.trace_units = min_designs
        self._orders: dict[int, np.ndarray] = {}
        self.designs = [self._design_params(i) for i in range(min_designs)]
        self.times: dict[str, list[float]] = {"design": [], "oc": [], "asn": [], "run": []}
        self.records: list[dict] = []

    def settings(self):
        return {"min_designs": self.min_units, "oc_points": 13, "asn_thetas": 3,
                "sessions_per_design": 2, "batch_sizes": [1, 29]}

    def _design_params(self, i: int) -> dict:
        """Design i: grid point order[i % len] of a seeded permutation, with
        epsilon drawn from U(0.1, 0.6)."""
        cycle, pos = divmod(i, len(KNOWN_GRID))
        if cycle not in self._orders:
            self._orders[cycle] = np.random.default_rng([self.seed, cycle]).permutation(len(KNOWN_GRID))
        alpha, beta, rho, tau = KNOWN_GRID[self._orders[cycle][pos]]
        eps = float(np.random.default_rng([self.seed, cycle, pos]).uniform(0.1, 0.6))
        return {"alpha": alpha, "beta": beta, "epsilon": eps, "rho": rho, "tau": tau}

    def _cli(self, argv: list[str]) -> tuple[int | None, str]:
        """One timed call of cli.main; returns (exit code, stdout)."""
        self.ops += 1
        out = io.StringIO()
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sn.cli.main(argv)
        except Exception:
            self._op_failed(" ".join(argv))
            return None, ""
        self.times[argv[0]].append(perf_counter() - t0)
        if code not in (0, 3, 4):
            self.op_failures.append(f"{' '.join(argv)} -> {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def run_unit(self, i):
        d = self.designs[i] if i < len(self.designs) else self._design_params(i)
        eps = d["epsilon"]
        base = self.workdir / f"d{i}"
        plan = f"{base}.plan.json"
        rec = {"index": i, "params": d, "plan": plan, "oc": f"{base}.oc.csv",
               "asn": f"{base}.asn.csv", "exit": {}, "sessions": []}
        code, out = self._cli([
            "design", "--kind", "known", "--alpha", repr(d["alpha"]), "--beta", repr(d["beta"]),
            "--epsilon", repr(eps), "--gamma", "0", "--sigma", "1", "--rho", repr(d["rho"]),
            "--tau", str(d["tau"]), "--calibrate", "--out", plan,
        ])
        rec["exit"]["design"] = code
        rec["zeta"] = next(
            (float(line.split()[1]) for line in out.splitlines() if line.startswith("zeta ")), None
        )
        code, _ = self._cli(["oc", plan, "--theta-min", repr(-3 * eps), "--theta-max",
                             repr(3 * eps), "--points", "13", "--out", rec["oc"]])
        rec["exit"]["oc"] = code
        code, _ = self._cli(["asn", plan, "--theta", repr(-eps), "--theta", "0",
                             "--theta", repr(eps), "--out", rec["asn"]])
        rec["exit"]["asn"] = code
        for j, theta in enumerate((-eps, eps)):
            rec["sessions"].append(self._session(plan, f"{base}.s{j}", theta, [self.seed, i, j]))
        self.records.append(rec)

    def _session(self, plan: str, base: str, theta: float, key) -> dict:
        """Feed seeded batches of 1-29 N(theta, 1) samples until a decision."""
        rng = np.random.default_rng(key)
        session, data = f"{base}.session.json", f"{base}.data.csv"
        Path(session).unlink(missing_ok=True)
        samples: list[float] = []
        codes: list[int | None] = []
        decision = None
        while len(codes) < 1000:
            batch = rng.normal(theta, 1.0, size=int(rng.integers(1, 30))).tolist()
            with open(data, "w", encoding="utf-8") as fp:
                fp.write("".join(f"{x!r}\n" for x in batch))
            samples += batch
            code, out = self._cli(["run", plan, "--session", session, "--data", data])
            codes.append(code)
            if code != oracles.RUN_EXIT["need_more"]:
                words = out.split()
                if len(words) >= 4 and words[0] in ("Accepted", "Rejected"):
                    decision = {"state": words[0].lower(), "stage": int(words[3])}
                break
        return {"samples": samples, "codes": codes, "decision": decision}

    def check(self) -> oracles.Checks:
        sn = self.sn
        checks: oracles.Checks = []
        for rec in self.records:
            rec["oc_csv"] = Path(rec["oc"]).read_text(encoding="utf-8") if rec["exit"]["oc"] == 0 else ""
            rec["asn_csv"] = Path(rec["asn"]).read_text(encoding="utf-8") if rec["exit"]["asn"] == 0 else ""
            plan = sn.load_plan(rec["plan"]) if rec["exit"]["design"] == 0 else None
            for sess in rec["sessions"]:
                if plan is None:
                    sess["oneshot"] = {"state": "no plan"}
                    continue
                status = sn.feed(sn.new_session(plan), sess["samples"]).status
                sess["oneshot"] = {"state": status.state, "stage": status.stage}
            checks += oracles.check_known_cli(rec)
        return checks

    def named_metrics(self):
        lat = {k: [1e3 * v for v in vals] for k, vals in self.times.items()}
        return {
            "design_p50_ms": (_median(lat["design"]), "ms"),
            "design_p90_ms": (_p90(lat["design"]), "ms"),
            "oc_p50_ms": (_median(lat["oc"]), "ms"),
            "asn_p50_ms": (_median(lat["asn"]), "ms"),
            "run_p50_ms": (_median(lat["run"]), "ms"),
            "designs": (len(self.records), "count"),
            "design_samples": (len(lat["design"]), "count"),
            "run_samples": (len(lat["run"]), "count"),
        }

    def contract_metrics(self, norm):
        zetas = [r["zeta"] for r in self.records[: self.min_units] if r["zeta"] is not None]
        return {
            "short_norm": _median(norm["run"]),
            "long_norm": _median(norm["design"]),
            "zeta": statistics.fmean(zetas) if zetas else 0.0,
        }


class Simulate(_Workload):
    name = "simulate"

    def __init__(self, sn, seed, workdir=None, short_reps=SHORT_REPS, long_reps=LONG_REPS):
        super().__init__(sn, seed, workdir)
        self.short_reps = short_reps
        self.long_reps = long_reps
        self.plans = []  # (name, class, plan, reps)
        self.known_zetas = []
        for cls, eps, reps in (("short", 0.5, short_reps), ("long", 0.1, long_reps)):
            cal = sn.calibrate_known(0.05, 0.05, eps, 1.0, 3)
            self.known_zetas.append(cal.zeta)
            known = sn.build_known_plan(0.05, 0.05, eps, 0.0, 1.0, cal.zeta, 1.0, 3)
            unknown = sn.build_unknown_plan(0.05, 0.05, eps, 0.0, ZETA_SYM_DEFAULT, 1.0, 3)
            self.plans += [(f"known-{cls}", cls, known, reps), (f"unknown-{cls}", cls, unknown, reps)]
        self.times: dict[str, list[float]] = {"short": [], "long": []}
        self.reports: dict[str, dict] = {}

    def settings(self):
        return {
            "plans": {name: {"kind": p.kind, "sizes": list(p.sizes), "zeta": p.zeta, "reps": reps}
                      for name, _, p, reps in self.plans},
            "theta": "-epsilon", "cell_budget": CELL_BUDGET, "tail_mass": TAIL_MASS,
        }

    def _sim_seed(self, k: int) -> int:
        return self.seed * len(self.plans) + k

    def run_unit(self, i):
        """One pass over the two short plans (even i) or the two long ones."""
        unit_cls = ("short", "long")[i % 2]
        seconds = 0.0
        for k, (name, cls, plan, reps) in enumerate(self.plans):
            if cls != unit_cls:
                continue
            self.ops += 1
            self.labels["sim_class"] = cls
            t0 = perf_counter()
            try:
                rep = self.sn.simulate_plan(plan, -plan.epsilon, 1.0, reps, self._sim_seed(k))
            except Exception:
                self._op_failed(f"simulate {name}")
                continue
            seconds += perf_counter() - t0
            self.reports.setdefault(name, rep.to_dict())
        self.times[unit_cls].append(seconds)

    def check(self) -> oracles.Checks:
        sn = self.sn
        checks: oracles.Checks = []
        for k, (name, _, plan, reps) in enumerate(self.plans):
            if name not in self.reports:
                continue
            eps = plan.epsilon
            if plan.kind == "known":
                envelope = sn.oc_upper_phi(-eps, plan)
            else:
                envelope = sn.oc_upper_P(-eps, plan, TAIL_MASS, CELL_BUDGET)[1]
            previous = os.environ.get("SEQNORM_THREADS")
            os.environ["SEQNORM_THREADS"] = "2"
            try:
                again = sn.simulate_plan(plan, -eps, 1.0, reps, self._sim_seed(k)).to_dict()
            finally:
                if previous is None:
                    del os.environ["SEQNORM_THREADS"]
                else:
                    os.environ["SEQNORM_THREADS"] = previous
            rec = {"name": name, "reps": reps, "report": self.reports[name],
                   "envelope": envelope, "report_threads2": again}
            checks += oracles.check_simulate(rec)
        return checks

    def _reps(self, cls):
        return sum(reps for _, c, _, reps in self.plans if c == cls)

    def named_metrics(self):
        out = {}
        for cls in ("short", "long"):
            t = _median(self.times[cls])
            out[f"sim_{cls}_reps_per_s"] = (self._reps(cls) / t if t else 0.0, "1/s")
        for name, rep in self.reports.items():
            out[f"{name}.asn"] = (rep["asn"], "samples")
            out[f"{name}.reject_rate"] = (rep["reject_rate"], "prob")
        return out

    def contract_metrics(self, norm):
        return {
            "short_norm": _median(norm["short"]),
            "long_norm": _median(norm["long"]),
            "zeta": statistics.fmean(self.known_zetas),
        }


WORKLOADS = {w.name: w for w in (UnknownDesign, KnownCli, Simulate)}
