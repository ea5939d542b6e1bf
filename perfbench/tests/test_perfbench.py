"""Tests of the benchmark itself: repeatable traces, host-speed factors for
every timed sample, oracles that catch corrupted results, and a run that
refuses a checkout without sources."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import seqnorm  # noqa: E402
import seqnorm.cli  # noqa: E402

from perfbench import layers, oracles, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import DESIGNS, TAIL_MASS, WORKLOADS  # noqa: E402


SMALL = {
    "unknown-design": dict(cell_budget=4, zeta_tol=0.2, mc_reps=2000),
    "known-cli": dict(min_designs=3),
    "simulate": dict(short_reps=4000, long_reps=500),
}


def _small(name, tmp_path):
    return WORKLOADS[name](seqnorm, 3, tmp_path, **SMALL[name])


def _traced_counters(name, tmp_path):
    tmp_path.mkdir()
    w = _small(name, tmp_path)
    tracer = Tracer()
    tracer.labels = w.labels
    layers.install(tracer, seqnorm)
    try:
        for i in range(w.trace_units):
            w.run_unit(i)
    finally:
        tracer.uninstall()
    assert not w.op_failures
    assert all(ok for _, ok in w.check())
    return tracer


@pytest.mark.parametrize("name", ["unknown-design", "known-cli", "simulate"])
def test_traced_counters_repeat(name, tmp_path):
    first = _traced_counters(name, tmp_path / "a")
    second = _traced_counters(name, tmp_path / "b")
    assert json.dumps(first.counters, sort_keys=True) == json.dumps(second.counters, sort_keys=True)
    values = layers.per_layer_metrics(first, 0.0)
    assert list(values) == [m for m, _, _ in layers.PER_LAYER]
    assert any(first.counters.values())


def test_install_rebinds_every_binding_and_restores():
    original = seqnorm.quadrature.integrate
    tracer = Tracer()
    layers.install(tracer, seqnorm)
    try:
        wrapped = seqnorm.geometry.integrate
        assert wrapped is not original
        assert seqnorm.special.integrate is wrapped
        assert seqnorm.quadrature.integrate is wrapped
        assert seqnorm.plan_unknown.hyperbola_cone_prob is seqnorm.geometry.hyperbola_cone_prob
        assert seqnorm.plan_unknown.hyperbola_cone_prob.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert seqnorm.geometry.integrate is original
    assert seqnorm.special.integrate is original


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = tracer.span_totals()
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"], abs=1e-12
    )


def test_timed_loop_gives_every_sample_a_reference_factor():
    class Alternating:
        min_units = 2

        def __init__(self):
            self.times = {"short": [], "long": []}

        def run_unit(self, i):
            self.times[("short", "long")[i % 2]].append(float(i))

    w = Alternating()
    refs, factors = run._timed_loop(w, 0.05)
    assert len(refs) == len(w.times["short"]) + len(w.times["long"]) + 1
    assert {k: len(v) for k, v in factors.items()} == {k: len(v) for k, v in w.times.items()}
    assert all(min(refs) <= f <= max(refs) for v in factors.values() for f in v)


def test_unknown_design_matches_library(tmp_path):
    w = _small("unknown-design", tmp_path)
    for i in range(w.trace_units):
        w.run_unit(i)
    tm, cb = TAIL_MASS, w.cell_budget
    for name, d in DESIGNS.items():
        cal = seqnorm.calibrate_unknown(**d, zeta_tol=w.zeta_tol, tail_mass=tm, cell_budget=cb)
        plan = seqnorm.build_unknown_plan(gamma=0.0, zeta=cal.zeta, **d)
        eps = d["epsilon"]
        lo, hi = seqnorm.oc_upper_P(-eps, plan, tm, cb)
        mlo, mhi = seqnorm.oc_upper_P(-eps, seqnorm.mirror_unknown_plan(plan), tm, cb)
        rec = w.records[name]
        assert rec["zeta"] == cal.zeta
        assert rec["gap"] == max(hi - lo, mhi - mlo)


# ---------------------------------------------------------------------------
# oracles report corrupted results
# ---------------------------------------------------------------------------

GOOD_DESIGN = {
    "name": "sym", "alpha": 0.05, "beta": 0.05, "certified": True,
    "lower": 0.035, "upper": 0.049, "mirror_lower": 0.035, "mirror_upper": 0.049,
    "mc_reject_sum": 0.045, "mc_reject_se": 0.0007,
    "mirror_mc_reject_sum": 0.044, "mirror_mc_reject_se": 0.0007,
}


def _failed(checks):
    return [desc for desc, ok in checks if not ok]


@pytest.mark.parametrize("field, value", [
    ("certified", False),
    ("lower", 0.06),
    ("upper", 0.051),
    ("mirror_upper", 0.07),
    ("mc_reject_sum", 0.06),
    ("mirror_mc_reject_sum", 0.02),
])
def test_unknown_design_oracle_catches(field, value):
    assert _failed(oracles.check_unknown_design(GOOD_DESIGN)) == []
    bad = dict(GOOD_DESIGN, **{field: value})
    assert _failed(oracles.check_unknown_design(bad))


GOOD_SIM = {
    "name": "known-short", "reps": 10, "envelope": 0.05,
    "report": {"stage_histogram": [4, 3, 3], "reject_rate": 0.1, "mc_se": 0.0949},
}
GOOD_SIM["report_threads2"] = copy.deepcopy(GOOD_SIM["report"])


@pytest.mark.parametrize("corrupt", [
    lambda r: r["report"]["stage_histogram"].__setitem__(0, 3),
    lambda r: r["report_threads2"].__setitem__("reject_rate", 0.2),
    lambda r: r.__setitem__("envelope", 0.1 - 4 * 0.0949 - 1e-3),
])
def test_simulate_oracle_catches(corrupt):
    assert _failed(oracles.check_simulate(GOOD_SIM)) == []
    bad = copy.deepcopy(GOOD_SIM)
    corrupt(bad)
    assert _failed(oracles.check_simulate(bad))


GOOD_CLI = {
    "index": 0,
    "exit": {"design": 0, "oc": 0, "asn": 0},
    "oc_csv": "theta,oc_lower,oc_upper\n-1,0.9,1\n0,,\n1,0,0.05\n",
    "asn_csv": "theta,tail_1\n-1,0.2\n",
    "sessions": [{
        "codes": [4, 4, 3],
        "decision": {"state": "rejected", "stage": 2},
        "oneshot": {"state": "rejected", "stage": 2},
    }],
}


@pytest.mark.parametrize("corrupt", [
    lambda r: r["exit"].__setitem__("oc", 1),
    lambda r: r.__setitem__("oc_csv", "theta,oc_lower,oc_upper\n-1,0.9,1.2\n"),
    lambda r: r.__setitem__("oc_csv", "theta,oc_lower,oc_upper\n-1,0.9,0.8\n"),
    lambda r: r.__setitem__("asn_csv", "theta,tail_1\n-1,-0.1\n"),
    lambda r: r["sessions"][0].__setitem__("codes", [4, 0, 3]),
    lambda r: r["sessions"][0].__setitem__("codes", [4, 4, 0]),
    lambda r: r["sessions"][0]["oneshot"].__setitem__("stage", 3),
])
def test_known_cli_oracle_catches(corrupt):
    assert _failed(oracles.check_known_cli(GOOD_CLI)) == []
    bad = copy.deepcopy(GOOD_CLI)
    corrupt(bad)
    assert _failed(oracles.check_known_cli(bad))


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
