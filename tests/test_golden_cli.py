"""Golden CLI transcript: a fixed command sequence must reproduce its
recorded stdout, stderr, exit codes and written files byte for byte.

The commands run in order in one directory, so later commands read the
plans and sessions earlier ones wrote.  The recording holds the numpy and
scipy versions it was made with; other builds may round differently, so
the replay skips when either differs.

To record again (only when a byte change is intended and explained):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

GOLDEN = Path(__file__).with_name("golden_cli.json")

_KNOWN = ["design", "--kind", "known", "--alpha", "0.05", "--epsilon", "0.5", "--gamma", "0"]
_SYM = ["--beta", "0.05", "--rho", "1", "--tau", "3"]
_ASYM = ["--beta", "0.10", "--rho", "0.5", "--tau", "4"]
_UNKNOWN = ["design", "--kind", "unknown", "--alpha", "0.05", "--epsilon", "0.5", "--gamma", "0"]
_GRID = ["--theta-min", "-1", "--theta-max", "1", "--points", "9"]
_CELLS = ["--cell-budget", "16"]

# the plan "design-known-uncertified" writes to ku.json
_KU_PLAN = {
    "kind": "known", "alpha": 0.05, "beta": 0.05, "epsilon": 0.5, "gamma": 0.0, "sigma": 1.0,
    "zeta": 1.0, "rho": 1.0, "tau": 3, "theta_star": 0.0,
    "stages": [
        {"n": 3, "a": -0.77882822316703426, "b": 0.77882822316703426},
        {"n": 6, "a": -0.42010875555988392, "b": 0.42010875555988392},
        {"n": 11, "a": 0.0, "b": 0.0},
    ],
    "certified": False,
}

# the plan of design --kind known --alpha 0.05 --beta 0.05 --epsilon
# 1.2529022636642626 --gamma 0 --sigma 1 --rho 1 --tau 3 --zeta 0.3, whose
# final thresholds used to come out an ulp apart (-4.4e-16, +4.4e-16)
_KC_PLAN = {
    "kind": "known", "alpha": 0.05, "beta": 0.05, "epsilon": 1.2529022636642626, "gamma": 0.0,
    "sigma": 1.0, "zeta": 0.3, "rho": 1.0, "tau": 3, "theta_star": 0.0,
    "stages": [
        {"n": 1, "a": -0.91718811392029798, "b": 0.91718811392029798},
        {"n": 2, "a": -0.39821900398260879, "b": 0.39821900398260879},
        {"n": 3, "a": 0.0, "b": 0.0},
    ],
    "certified": True,
}

# the plan of design --kind unknown --alpha 0.05 --beta 0.05 --epsilon 0.5
# --gamma 0 --rho 1 --tau 2 --zeta 0.5; its stage 2 term is a cone
_U2_PLAN = {
    "kind": "unknown", "alpha": 0.05, "beta": 0.05, "epsilon": 0.5, "gamma": 0.0, "zeta": 0.5,
    "rho": 1.0, "tau": 2, "theta_star": 0.0,
    "stages": [
        {"n": 10, "a": -0.76215716279820533, "b": 0.76215716279820533},
        {"n": 19, "a": 0.0, "b": 0.0},
    ],
    "certified": True,
}

# data files the run sessions read
INPUTS = {
    "first.csv": "-0.4\n0.3\n-1.2\n0.05\n",
    "rest.csv": "\n".join(format(0.1 * i - 0.9, ".17g") for i in range(40)) + "\n",
    "high.csv": "\n".join(format(0.25 * i + 1.0, ".17g") for i in range(60)) + "\n",
    "bad.csv": "0.5\nnot-a-number\n",
    # finite samples whose sum, or whose squared deviations, overflow a double
    "huge.csv": "1.5e308\n" * 20,
    "spread.csv": "\n".join(format(1e200 * (1 + i), ".17g") for i in range(20)) + "\n",
    # ku.json edited to claim the certificate its bounds do not give
    "kt.json": json.dumps({**_KU_PLAN, "certified": True}),
    # a session of ku.json whose stored samples overflow on replay
    "overflow.json": json.dumps({
        "version": 1, "plan": _KU_PLAN, "samples": [1.5e308] * 3,
        "status": {"state": "need_more", "next_n": 3}, "history": [],
    }),
    "zeros.csv": "0\n0\n0\n",
    "kc.json": json.dumps(_KC_PLAN),
    "u2.json": json.dumps(_U2_PLAN),
}

COMMANDS = {
    "design-known-sym": _KNOWN + _SYM + ["--sigma", "1", "--calibrate", "--out", "ks.json"],
    "design-known-asym": _KNOWN + _ASYM + ["--sigma", "1", "--calibrate", "--out", "ka.json"],
    "design-known-shift": [
        "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05", "--epsilon", "0.4",
        "--gamma", "1.3", "--sigma", "0.7", "--calibrate", "--out", "kg.json",
    ],
    "design-known-uncertified": _KNOWN + _SYM + ["--sigma", "1", "--zeta", "1", "--out", "ku.json"],
    "design-unknown-sym": _UNKNOWN + _SYM + ["--zeta", "0.8777669270833333", *_CELLS, "--out", "us.json"],
    "design-unknown-asym": _UNKNOWN + _ASYM + ["--zeta", "0.703369140625", *_CELLS, "--out", "ua.json"],
    "oc-known-sym": ["oc", "ks.json", *_GRID],
    "oc-known-asym-out": ["oc", "ka.json", *_GRID, "--out", "oc_ka.csv"],
    "oc-known-shift-mu": ["oc", "kg.json", "--mu-units", "--theta-min", "0", "--theta-max", "2.6",
                          "--points", "7"],
    "oc-known-sym-mu": ["oc", "ks.json", "--mu-units", *_GRID],
    "oc-unknown-sym": ["oc", "us.json", "--theta-min", "-1", "--theta-max", "1", "--points", "5",
                       *_CELLS],
    "oc-unknown-asym-out": ["oc", "ua.json", "--theta-min", "-1", "--theta-max", "1",
                            "--points", "5", *_CELLS, "--out", "oc_ua.csv"],
    "asn-known-sym": ["asn", "ks.json", "--theta", "-0.5", "--theta", "0", "--theta", "0.5"],
    "asn-known-shift": ["asn", "kg.json", "--theta", "-0.4", "--theta", "0.1"],
    "asn-unknown-sym": ["asn", "us.json", "--theta", "-0.5", "--theta", "0.25"],
    "asn-unknown-asym-out": ["asn", "ua.json", "--theta", "0", "--theta", "0.5", "--out", "asn_ua.csv"],
    "simulate-known-sym": ["simulate", "ks.json", "--mu", "-0.5", "--reps", "2000", "--seed", "5"],
    "simulate-known-shift": ["simulate", "kg.json", "--mu", "1.0", "--sigma", "0.7",
                             "--reps", "2000", "--seed", "7"],
    "simulate-unknown-sym": ["simulate", "us.json", "--mu", "0.5", "--sigma", "2",
                             "--reps", "2000", "--seed", "3"],
    "simulate-unknown-asym-out": ["simulate", "ua.json", "--mu", "-0.5", "--sigma", "1",
                                  "--reps", "2000", "--seed", "4", "--out", "sim_ua.json"],
    "run-known-need-more": ["run", "ks.json", "--session", "s1.json", "--data", "first.csv"],
    "run-known-decide": ["run", "ks.json", "--session", "s1.json", "--data", "rest.csv"],
    "run-known-terminal": ["run", "ks.json", "--session", "s1.json", "--data", "rest.csv"],
    "run-other-plan": ["run", "ka.json", "--session", "s1.json", "--data", "rest.csv"],
    "run-unknown-need-more": ["run", "us.json", "--session", "s2.json", "--data", "first.csv",
                              "--allow-uncertified"],
    "run-unknown-reject": ["run", "us.json", "--session", "s2.json", "--data", "high.csv"],
    "run-uncertified": ["run", "ku.json", "--session", "s3.json", "--data", "first.csv"],
    "run-uncertified-allowed": ["run", "ku.json", "--session", "s3.json", "--data", "high.csv",
                                "--allow-uncertified"],
    "run-bad-data": ["run", "ks.json", "--session", "s4.json", "--data", "bad.csv"],
    "error-design-no-sigma": _KNOWN + _SYM + ["--calibrate", "--out", "x.json"],
    "error-design-zeta-and-calibrate": _KNOWN + _SYM + ["--sigma", "1", "--zeta", "0.3",
                                                        "--calibrate", "--out", "x.json"],
    "error-design-tau": _KNOWN + ["--beta", "0.05", "--sigma", "1", "--tau", "1001",
                                  "--zeta", "0.5", "--out", "x.json"],
    "error-oc-points": ["oc", "ks.json", "--theta-min", "-1", "--theta-max", "1", "--points", "1"],
    "error-oc-mu-unknown": ["oc", "us.json", "--mu-units", *_GRID],
    "error-oc-missing-plan": ["oc", "missing.json", *_GRID],
    "error-simulate-no-sigma": ["simulate", "us.json", "--mu", "0", "--reps", "10", "--seed", "1"],
    "error-simulate-seed": ["simulate", "ks.json", "--mu", "0", "--reps", "10", "--seed", "-1"],
    "error-design-zeta-tol": _KNOWN + _SYM + ["--sigma", "1", "--zeta", "0.5", "--zeta-tol", "-1",
                                              "--out", "x.json"],
    "error-design-calibration-failed": _UNKNOWN + ["--beta", "0.05", "--calibrate",
                                                   "--tail-mass", "0.5", "--cell-budget", "4",
                                                   "--out", "x.json"],
    "error-run-known-overflow": ["run", "ks.json", "--session", "s5.json", "--data", "huge.csv"],
    "error-run-unknown-overflow": ["run", "us.json", "--session", "s6.json", "--data", "spread.csv",
                                   "--allow-uncertified"],
    "error-simulate-scale": ["simulate", "us.json", "--mu", "1e160", "--sigma", "1e160",
                             "--reps", "10", "--seed", "1"],
    "error-run-session-overflow": ["run", "ku.json", "--session", "overflow.json",
                                   "--data", "first.csv"],
    "run-known-tampered-certified": ["run", "kt.json", "--session", "s7.json",
                                     "--data", "first.csv"],
    # sqrt(n) theta overflows at the last stage of the mirror plan
    "error-oc-known-overflow": ["oc", "ks.json", "--theta-min=5e307", "--theta-max=5.1e307",
                                "--points", "2"],
    # the stage 2 hyperbola offset's square overflows
    "error-oc-unknown-overflow": ["oc", "us.json", "--theta-min=-1e200", "--theta-max=-0.9",
                                  "--points", "2", *_CELLS],
    # sqrt(n) theta overflows at the first stage
    "error-asn-overflow": ["asn", "us.json", "--theta", "1e308"],
    "error-design-unknown-sigma": _UNKNOWN + _SYM + ["--sigma", "-5", "--zeta", "0.5",
                                                     "--out", "x.json"],
    # a statistic of 0.0 on the closed final stage (a = b = 0.0) decides
    "run-known-closed-final": ["run", "kc.json", "--session", "s8.json", "--data", "zeros.csv"],
    # nctdtr gives NaN at |sqrt(n) theta| >= 1e10, where the noncentral t CDF
    # is its limit 0 or 1 to within 1e-12
    "oc-unknown-huge-theta": ["oc", "u2.json", "--theta-min=-1e12", "--theta-max=-0.9",
                              "--points", "2", *_CELLS],
    "asn-unknown-huge-theta": ["asn", "u2.json", "--theta", "1e12"],
}


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


def replay(directory: Path) -> dict:
    """Run COMMANDS in order inside directory; each case's outputs and changed files."""
    from seqnorm.cli import main

    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case, argv in COMMANDS.items():
            before = _snapshot(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            after = _snapshot(directory)
            results[case] = {
                "exit": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    finally:
        os.chdir(cwd)
    return results


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def test_cli_transcript_is_byte_identical(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"golden transcript recorded with {recorded['versions']}, running {versions()}")
    assert list(recorded["cases"]) == list(COMMANDS)
    got = replay(tmp_path)
    differing = [case for case in COMMANDS if got[case] != recorded["cases"][case]]
    assert not differing, differing


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        cases = replay(Path(work))
    GOLDEN.write_text(
        json.dumps({"versions": versions(), "cases": cases}, indent=1, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(cases)} commands in {GOLDEN}", file=sys.stderr)
