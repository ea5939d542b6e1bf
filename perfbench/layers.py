"""Which seqnorm functions the traced run wraps, and the per-layer metrics.

Layers follow the modules: special -> quadrature -> geometry ->
plan_known / plan_unknown -> calibrate -> cli, with simulate and runner as
side paths.  Every workload reports every metric in PER_LAYER; a layer a
workload never reaches reports 0.
"""

from __future__ import annotations

import math
import os

SPECIAL = (
    "noncentral_t_cdf",
    "student_t_critical",
    "chi_square_cdf",
    "chi_square_quantile",
    "std_normal_critical",
    "std_normal_cdf",
)
LEAVES = (
    "zero",
    "np1", "np2", "np3", "np4", "np5",
    "pp1", "pp2", "pp3",
    "n1", "n2", "n3", "n4", "n5",
    "p1", "p2", "p3",
)
# stage terms (stage index >= 2) of the two unknown-variance designs
TERM_GAPS = ("sym.s2", "sym.s3", "asym.s2", "asym.s3", "asym.s4")
CLI_COMMANDS = ("design", "oc", "asn", "run")
RUNNER = ("load_plan", "load_session", "feed", "save_session")


def _timed(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


def _metric_table() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    for fn in SPECIAL:
        rows += _timed(f"special.{fn}")
    rows += _timed("quadrature.integrate")
    rows += [("quadrature.panels", "count", "lower"),
             ("quadrature.panels_per_call", "count", "lower")]
    rows += _timed("geometry.cone_prob") + _timed("geometry.hyperbola_cone_prob")
    rows += [(f"geometry.leaf.{leaf}", "count", "lower") for leaf in LEAVES]
    rows += _timed("plan_unknown.oc_upper_P")
    rows += [("plan_unknown.cell_evals", "count", "lower")]
    rows += [(f"plan_unknown.term_gap.{t}", "prob", "lower") for t in TERM_GAPS]
    rows += _timed("plan_known.oc_upper_phi") + _timed("plan_known.build_known_plan")
    rows += [("calibrate.probes", "count", "lower"), ("calibrate.probe_s", "s", "lower")]
    rows += [(f"runner.{fn}.self_s", "s", "lower") for fn in RUNNER]
    rows += [("runner.samples_replayed", "count", "lower"),
             ("runner.session_bytes", "B", "lower")]
    rows += [(f"cli.{cmd}.self_s", "s", "lower") for cmd in CLI_COMMANDS]
    rows += [("simulate.simulate_plan.short_s", "s", "lower"),
             ("simulate.simulate_plan.long_s", "s", "lower"),
             ("simulate.normals_drawn", "count", "lower"),
             ("simulate.bytes_computed", "B", "lower"),
             ("simulate.useful_frac.short", "ratio", "higher"),
             ("simulate.useful_frac.long", "ratio", "higher"),
             ("trace.overhead_frac", "ratio", "lower")]
    return rows


PER_LAYER = _metric_table()


def install(tracer, seqnorm) -> None:
    """Wrap every traced function at every binding seqnorm callers use."""
    geometry = seqnorm.geometry
    classify = geometry.classify_branch
    t = tracer

    def wrap(module, fn_name, **kw):
        original = getattr(module, fn_name)
        layer = module.__name__.rsplit(".", 1)[-1]
        kw.setdefault("name", f"{layer}.{fn_name}")
        t.install(original, t.wrap(original, **kw))

    for fn in SPECIAL:
        wrap(seqnorm.special, fn)

    def count_panels(args, kwargs):
        f = args[0]

        def counted(x):
            t.counters["quadrature.panels"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    wrap(seqnorm.quadrature, "integrate", prepare=count_panels)

    wrap(geometry, "cone_prob")

    def leaf(args, kwargs, result):
        t.count(f"geometry.leaf.{classify(args[0])}")

    wrap(geometry, "hyperbola_cone_prob", after=leaf)

    wrap(seqnorm.plan_unknown, "oc_upper_P")

    def cells(args, kwargs, result):
        cell_list, _, spans = result
        initial = 4 if spans[1] > 0.0 else 2
        t.count("plan_unknown.cell_evals", initial + 2 * (len(cell_list) - initial))
        design = t.labels.get("certify")
        if design is not None:
            gap = math.fsum(c.p_upper for c in cell_list) - math.fsum(c.p_lower for c in cell_list)
            key = f"plan_unknown.term_gap.{design}.s{args[2]}"
            t.counters[key] = max(t.counters.get(key, 0.0), gap)

    wrap(seqnorm.plan_unknown, "stage_term_cells", span=False, after=cells)

    wrap(seqnorm.plan_known, "oc_upper_phi")
    wrap(seqnorm.plan_known, "build_known_plan")

    def probes(args, kwargs, result):
        t.count("calibrate.probes", result.iterations)

    wrap(seqnorm.calibrate, "calibrate_known", name="calibrate.run", after=probes)
    wrap(seqnorm.calibrate, "calibrate_unknown", name="calibrate.run", after=probes)

    def replayed(args, kwargs, result):
        t.count("runner.samples_replayed", len(result.samples))

    def written(args, kwargs, result):
        t.count("runner.session_bytes", os.path.getsize(args[1]))

    wrap(seqnorm.runner, "load_plan")
    wrap(seqnorm.runner, "load_session", after=replayed)
    wrap(seqnorm.runner, "feed")
    wrap(seqnorm.runner, "save_session", after=written)

    wrap(seqnorm.cli, "main", name=lambda args, kwargs: f"cli.{args[0][0]}")

    def simulated(args, kwargs, result):
        plan, reps = args[0], args[3]
        n_max = plan.sizes[-1]
        drawn = reps * 4 * math.ceil(n_max / 4)
        t.count("simulate.normals_drawn", drawn)
        t.count("simulate.bytes_computed", 8 * drawn)
        cls = t.labels["sim_class"]
        t.count(f"simulate.useful_sum.{cls}", result.asn / n_max)
        t.count(f"simulate.useful_n.{cls}")

    wrap(
        seqnorm.simulate, "simulate_plan",
        name=lambda args, kwargs: f"simulate.simulate_plan.{t.labels['sim_class']}",
        after=simulated,
    )


def per_layer_metrics(tracer, overhead_frac: float) -> dict[str, float]:
    """Reduce a tracer's spans and counters to the PER_LAYER values."""
    totals = tracer.span_totals()
    counters = tracer.counters
    values: dict[str, float] = {}

    def span(name, field):
        return totals.get(name, {}).get(field, 0)

    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = span(name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            values[name] = span(name[: -len(".self_s")], "self_s")
        elif name in counters:
            values[name] = counters[name]
    calls = span("quadrature.integrate", "calls")
    values["quadrature.panels"] = counters.get("quadrature.panels", 0)
    values["quadrature.panels_per_call"] = values["quadrature.panels"] / calls if calls else 0.0
    probes = counters.get("calibrate.probes", 0)
    values["calibrate.probes"] = probes
    values["calibrate.probe_s"] = span("calibrate.run", "total_s") / probes if probes else 0.0
    for cls in ("short", "long"):
        values[f"simulate.simulate_plan.{cls}_s"] = span(f"simulate.simulate_plan.{cls}", "total_s")
        n = counters.get(f"simulate.useful_n.{cls}", 0)
        values[f"simulate.useful_frac.{cls}"] = (
            counters[f"simulate.useful_sum.{cls}"] / n if n else 0.0
        )
    values["trace.overhead_frac"] = overhead_frac
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
