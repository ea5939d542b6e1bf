"""Correctness oracles, one per workload.

Each takes plain records produced by a workload (after its timed region)
and returns a list of (check description, passed) pairs.  Every failed check
counts in the run's failed total, next to failed operations.
"""

from __future__ import annotations

import csv
import io

Checks = list[tuple[str, bool]]

# documented exit codes of `seqnorm run`
RUN_EXIT = {"accepted": 0, "rejected": 3, "need_more": 4}


def check_unknown_design(rec: dict) -> Checks:
    """Calibrated and certified, ordered interval ends, bounds within budget,
    and the Monte Carlo transition sum inside the widened interval."""
    name = rec["name"]
    checks: Checks = [
        (f"{name}: calibration certified", rec["certified"] is True),
        (f"{name}: plan lower <= upper", rec["lower"] <= rec["upper"]),
        (f"{name}: mirror lower <= upper", rec["mirror_lower"] <= rec["mirror_upper"]),
        (f"{name}: plan upper <= alpha", rec["upper"] <= rec["alpha"]),
        (f"{name}: mirror upper <= beta", rec["mirror_upper"] <= rec["beta"]),
    ]
    for side in ("", "mirror_"):
        mc, se = rec[f"{side}mc_reject_sum"], rec[f"{side}mc_reject_se"]
        lo, hi = rec[f"{side}lower"], rec[f"{side}upper"]
        checks.append((
            f"{name}: {side}MC reject sum {mc} in [{lo} - 4se, {hi} + 4se]",
            lo - 4.0 * se <= mc <= hi + 4.0 * se,
        ))
    return checks


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def check_known_cli(rec: dict) -> Checks:
    """Exit codes as documented, probabilities in [0, 1] with lower <= upper,
    and each session's decision equal to a one-batch replay."""
    tag = f"design {rec['index']}"
    checks: Checks = [
        (f"{tag}: {cmd} exit 0", rec["exit"][cmd] == 0) for cmd in ("design", "oc", "asn")
    ]
    bounds_ok = True
    for row in _csv_rows(rec["oc_csv"]):
        if row[1] == "" and row[2] == "":
            continue  # inside the indifference zone no bound is stated
        lo, hi = float(row[1]), float(row[2])
        bounds_ok &= 0.0 <= lo <= hi <= 1.0
    checks.append((f"{tag}: oc bounds in [0, 1], lower <= upper", bounds_ok))
    tails_ok = all(0.0 <= float(v) <= 1.0 for row in _csv_rows(rec["asn_csv"]) for v in row[1:])
    checks.append((f"{tag}: asn tails in [0, 1]", tails_ok))
    for i, sess in enumerate(rec["sessions"]):
        codes = sess["codes"]
        final = sess["oneshot"]["state"]
        checks.append((
            f"{tag} session {i}: exit codes {codes} end in {final}",
            bool(codes)
            and all(c == RUN_EXIT["need_more"] for c in codes[:-1])
            and codes[-1] == RUN_EXIT.get(final),
        ))
        checks.append((
            f"{tag} session {i}: decision equals one-batch replay",
            sess["decision"] == sess["oneshot"],
        ))
    return checks


def check_simulate(rec: dict) -> Checks:
    """Histogram total, reject rate under the certified envelope, and a
    report bit-identical under two worker threads."""
    name = rec["name"]
    rep = rec["report"]
    checks: Checks = [
        (f"{name}: histogram sums to reps", sum(rep["stage_histogram"]) == rec["reps"]),
        (f"{name}: report identical with 2 threads", rep == rec["report_threads2"]),
    ]
    if rec.get("envelope") is not None:
        checks.append((
            f"{name}: reject rate {rep['reject_rate']} <= envelope + 4 mc_se",
            rep["reject_rate"] <= rec["envelope"] + 4.0 * rep["mc_se"],
        ))
    return checks
