"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload unknown-design --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Lines before it list the environment, the settings and the workload's
own named metrics.  A detailed result (and, when traced, the spans) is
written under ``.perfbench_out/``.  The exit code is 1 when an operation or
an oracle check fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh-interpreter set-ups per run, besides the run's own
# reference runs this close to a unit give its host-speed factor: at least
# the runs just before and after it, and for short units several more, so
# the noise of a single 3-5 ms reference run averages out
REF_WINDOW_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "ok_frac": "ratio", "short_norm": "ref",
                    "long_norm": "ref", "zeta": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("unknown-design", "known-cli", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the import and input set-up, print the seconds, exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _import_program():
    """Import seqnorm and the benchmark modules from this checkout."""
    if not (SRC / "seqnorm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no seqnorm sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import seqnorm
    import seqnorm.cli

    where = Path(seqnorm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"seqnorm was imported from {where}, not from {SRC}")
    from perfbench import workloads

    return seqnorm, workloads


def _setup(workload: str, seed: int, workdir=None):
    t0 = perf_counter()
    sn, workloads = _import_program()
    w = workloads.WORKLOADS[workload](sn, seed, workdir)
    return w, perf_counter() - t0


def _setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _environment(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "seqnorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "SEQNORM_THREADS": os.environ.get("SEQNORM_THREADS"),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def _reference_s(data) -> float:
    """Seconds for a fixed task of pure-Python arithmetic and NumPy passes,
    the two kinds of work the workloads do.  The program takes no part in
    it, so its time changes only with the host's speed."""
    t0 = perf_counter()
    s = 0
    for k in range(30_000):
        s += k * k
    for _ in range(3):
        np.cumsum(data)
        np.sort(data)
    return perf_counter() - t0


def _timed_loop(w, seconds: float) -> tuple[list[float], dict[str, list[float]]]:
    """Run units until the next one would end past the deadline.

    The reference task runs before the first unit and after every unit.
    Returns the reference times and, for every sample in ``w.times``, the
    median time of the reference runs within REF_WINDOW_S of its unit.
    """
    data = np.random.default_rng(0).standard_normal(50_000)
    refs: list[tuple[float, float]] = []  # (midpoint, seconds) of each reference run
    units = []  # (start, end, sample counts before, sample counts after)

    def reference():
        t0 = perf_counter()
        took = _reference_s(data)
        refs.append((t0 + took / 2, took))

    start = perf_counter()
    reference()
    i = 0
    while True:
        counts = {k: len(v) for k, v in w.times.items()}
        t0 = perf_counter()
        w.run_unit(i)
        t1 = perf_counter()
        units.append((t0, t1, counts, {k: len(v) for k, v in w.times.items()}))
        reference()
        i += 1
        median_unit = statistics.median(end - begin for begin, end, _, _ in units)
        if i >= w.min_units and (perf_counter() - start) + median_unit > seconds:
            break
    mids = [mid for mid, _ in refs]
    factors: dict[str, list[float]] = {k: [] for k in w.times}
    for t0, t1, before, after in units:
        near = refs[bisect_left(mids, t0 - REF_WINDOW_S):bisect_right(mids, t1 + REF_WINDOW_S)]
        factor = statistics.median(ref for _, ref in near)
        for k in factors:
            factors[k] += [factor] * (after[k] - before[k])
    return [ref for _, ref in refs], factors


def _warm_up(w) -> None:
    """Run the first two units (one of each kind where a workload alternates
    two) on a throwaway copy of the workload, so lazy set-up, first
    allocations and the memory allocator's state have settled before
    anything is timed."""
    warm = w.workdir / "warm-up"
    warm.mkdir()
    copy = type(w)(w.sn, w.seed, warm)
    for i in range(2):
        copy.run_unit(i)


def _fixed_units(w) -> float:
    t0 = perf_counter()
    for i in range(w.trace_units):
        w.run_unit(i)
    return perf_counter() - t0


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ["SEQNORM_THREADS"] = "1"
    if args.setup_only:
        _, seconds = _setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    try:
        w, setup_s = _setup(args.workload, args.seed, workdir)
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            # the same fixed units run untraced, traced, then untraced again;
            # the traced time is compared with the mean of the two around it
            _warm_up(w)
            plain_s = [_fixed_units(w)]
            traced = WORKLOADS[args.workload](w.sn, args.seed, workdir)
            tracer = Tracer()
            tracer.labels = traced.labels
            layers.install(tracer, w.sn)
            try:
                traced_s = _fixed_units(traced)
            finally:
                tracer.uninstall()
            after = WORKLOADS[args.workload](w.sn, args.seed, workdir)
            plain_s.append(_fixed_units(after))
            ops = w.ops + traced.ops + after.ops
            op_failures = w.op_failures + traced.op_failures + after.op_failures
            w = traced
        else:
            _warm_up(w)
            refs, factors = _timed_loop(w, args.seconds)
            norm = {k: [t / f for t, f in zip(w.times[k], factors[k])] for k in w.times}
            ops, op_failures = w.ops, w.op_failures
        checks = w.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    failed_checks = [desc for desc, ok in checks if not ok]
    attempted = ops + len(checks)
    failed = len(op_failures) + len(failed_checks)
    correct = failed == 0
    named = {"failed_frac": (failed / attempted, "ratio")}
    named.update(w.named_metrics())

    if args.trace:
        plain_mean = statistics.fmean(plain_s)
        overhead = (traced_s - plain_mean) / plain_mean
        # the overhead is resolved only when it exceeds the untraced runs' own spread
        plain_spread = abs(plain_s[1] - plain_s[0]) / plain_mean
        named["trace.overhead_frac"] = (overhead, "ratio")
        named["trace.untraced_spread_frac"] = (plain_spread, "ratio")
        named["trace.overhead_resolved"] = (int(abs(overhead) > plain_spread), "bool")
        values = layers.per_layer_metrics(tracer, overhead)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        tracer.dump_spans(outdir / f"{tag}.spans.json")
        detail_layers = {"counters": dict(sorted(tracer.counters.items())),
                         "timings": tracer.span_totals()}
    else:
        setups = [setup_s] + [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        named = {"setup_s": (statistics.median(setups), "s"), **named}
        named["ref_ms"] = (1e3 * statistics.median(refs), "ms")
        values = {"setup_s": statistics.median(setups), "ok_frac": 1.0 - failed / attempted,
                  **w.contract_metrics(norm)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail_layers = None

    env = _environment(args)
    settings = w.settings()
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# settings " + json.dumps(settings, sort_keys=True))
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")
    for desc in failed_checks:
        print(f"FAILED {desc}")
    detail = {"env": env, "settings": settings, "named_metrics": named, "samples": w.times,
              "failed_checks": failed_checks, "op_failures": op_failures,
              "metrics": metrics, "layers": detail_layers}
    (outdir / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
