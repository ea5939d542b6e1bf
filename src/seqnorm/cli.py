"""Command-line surface: design, oc, asn, simulate, run.

All output is deterministic given the flags (plus the seed where one
applies): reals print with 17 significant digits, newlines are "\n", and
no timestamps or environment details leak into files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache, partial

from .calibrate import _check_zeta_tol, calibrate_known, calibrate_unknown
from .errors import CalibrationError, DomainError, SeqnormError, SessionFormatError, real
from .plan_known import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_TAIL_MASS,
    _check_interval_settings,
    build_known_plan,
)
from .plan_unknown import build_unknown_plan
from .runner import (
    feed,
    format_real,
    dump_json,
    load_plan,
    load_session,
    new_session,
    plan_to_dict,
    save_plan,
    save_session,
)
from .simulate import simulate_plan

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_NEED_MORE = 4

DEFAULT_RHO = 0.5
DEFAULT_TAU = 4
DEFAULT_ZETA_TOL = 1e-4


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqnorm",
        description="Multistage hypothesis tests for the mean of a normal distribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct (and optionally calibrate) a plan")
    p_design.add_argument("--kind", choices=("known", "unknown"), required=True)
    p_design.add_argument("--alpha", type=float, required=True)
    p_design.add_argument("--beta", type=float, required=True)
    p_design.add_argument("--epsilon", type=float, required=True)
    p_design.add_argument("--gamma", type=float, required=True)
    p_design.add_argument("--sigma", type=float)
    p_design.add_argument("--rho", type=float, default=DEFAULT_RHO)
    p_design.add_argument("--tau", type=int, default=DEFAULT_TAU)
    p_design.add_argument("--zeta", type=float)
    p_design.add_argument("--calibrate", action="store_true")
    p_design.add_argument("--zeta-tol", type=float, default=DEFAULT_ZETA_TOL)
    p_design.add_argument("--tail-mass", type=float, default=DEFAULT_TAIL_MASS)
    p_design.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)
    p_design.add_argument("--out", required=True, help="plan JSON output path")
    p_design.set_defaults(func=cmd_design)

    p_oc = sub.add_parser("oc", help="tabulate certified OC bounds over a grid")
    p_oc.add_argument("plan", help="plan JSON path")
    p_oc.add_argument("--theta-min", type=float, required=True)
    p_oc.add_argument("--theta-max", type=float, required=True)
    p_oc.add_argument("--points", type=int, required=True)
    p_oc.add_argument("--mu-units", action="store_true")
    p_oc.add_argument("--tail-mass", type=float, default=DEFAULT_TAIL_MASS)
    p_oc.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET)
    p_oc.add_argument("--out")
    p_oc.set_defaults(func=cmd_oc)

    p_asn = sub.add_parser("asn", help="tabulate per-stage continuation bounds")
    p_asn.add_argument("plan", help="plan JSON path")
    p_asn.add_argument("--theta", type=float, action="append", required=True)
    p_asn.add_argument("--out")
    p_asn.set_defaults(func=cmd_asn)

    p_sim = sub.add_parser("simulate", help="Monte Carlo execution of a plan")
    p_sim.add_argument("plan", help="plan JSON path")
    p_sim.add_argument("--mu", type=float, required=True)
    p_sim.add_argument("--sigma", type=float)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="feed a data file into a persistent session")
    p_run.add_argument("plan", help="plan JSON path")
    p_run.add_argument("--session", required=True, help="session JSON path")
    p_run.add_argument("--data", required=True, help="CSV with one real per line")
    p_run.add_argument("--allow-uncertified", action="store_true")
    p_run.set_defaults(func=cmd_run)

    return parser


def _read_plan(path: str):
    try:
        return load_plan(path)
    except (OSError, SessionFormatError) as exc:
        raise SeqnormError(f"cannot read plan: {exc}") from exc


def cmd_design(args) -> int:
    if (args.zeta is None) == (not args.calibrate):
        raise DomainError("exactly one of --zeta or --calibrate is required")
    _check_zeta_tol(args.zeta_tol)
    design = (args.alpha, args.beta, args.epsilon, args.rho, args.tau)
    if args.kind == "known":
        if args.sigma is None:
            raise DomainError("--sigma is required for --kind known")
        calibrate = partial(calibrate_known, *design, zeta_tol=args.zeta_tol)
        build = partial(
            build_known_plan, args.alpha, args.beta, args.epsilon, args.gamma, args.sigma
        )
    else:
        if args.sigma is not None:
            raise DomainError("--sigma does not apply to --kind unknown")
        calibrate = partial(
            calibrate_unknown, *design, zeta_tol=args.zeta_tol,
            tail_mass=args.tail_mass, cell_budget=args.cell_budget,
        )
        build = partial(build_unknown_plan, args.alpha, args.beta, args.epsilon, args.gamma)
    _check_interval_settings(args.tail_mass, args.cell_budget)

    if args.calibrate:
        try:
            result = calibrate()
        except CalibrationError as exc:
            raise CalibrationError(f"calibration failed: {exc}") from exc
        plan = build(zeta=result.zeta, rho=args.rho, tau=args.tau)
        # the envelope involves neither gamma nor sigma, so the bounds the
        # search certified its returned zeta with are this plan's
        bound_a, bound_b = result.phi_at_theta0, result.phi_mirror_at_theta1
    else:
        plan = build(zeta=args.zeta, rho=args.rho, tau=args.tau)
        bound_a, bound_b = plan.certify(args.tail_mass, args.cell_budget)
    plan = plan.with_certified(bound_a <= plan.alpha and bound_b <= plan.beta)

    # the design fields, in the order the plan file stores them; the summary
    # is formatted before the plan is saved so a failure leaves no file
    lines = []
    for key, value in plan_to_dict(plan).items():
        if key == "theta_star":
            break
        lines.append(f"{key:<12}{format_real(value) if isinstance(value, float) else value}")
    lines += [
        f"tail_mass   {format_real(args.tail_mass)}",
        f"cell_budget {args.cell_budget}",
        f"zeta_tol    {format_real(args.zeta_tol)}",
        f"bound[a]    {format_real(bound_a)}",
        f"bound[b]    {format_real(bound_b)}",
        f"certified   {str(plan.certified).lower()}",
        "stage        n            a            b",
    ]
    for i, st in enumerate(plan.stages, start=1):
        lines.append(f"{i:5d} {st.n:10d} {st.a:+.6f}    {st.b:+.6f}")
    save_plan(plan, args.out)
    print("\n".join(lines))
    return EXIT_OK


def _grid(lo: float, hi: float, points: int) -> list[float]:
    if points < 2:
        raise DomainError("points must be >= 2")
    if not (hi > lo):
        raise DomainError("grid needs max > min")
    step = (hi - lo) / (points - 1)
    if not math.isfinite(step):
        raise DomainError(f"grid from {lo!r} to {hi!r} overflows double precision")
    # the last point is max itself: lo + (points - 1) * step can cancel to 0
    return [lo + i * step for i in range(points - 1)] + [hi]


def cmd_oc(args) -> int:
    plan = _read_plan(args.plan)
    if args.mu_units and not hasattr(plan, "sigma"):
        raise DomainError("--mu-units needs a plan with a known sigma")
    lines = ["theta,oc_lower,oc_upper"]
    for value in _grid(args.theta_min, args.theta_max, args.points):
        theta = (value - plan.gamma) / plan.sigma if args.mu_units else value
        if abs(theta) < plan.epsilon:
            lines.append(f"{format_real(value)},,")  # no bound inside the indifference zone
            continue
        lo, hi = plan.oc_bounds(theta, args.tail_mass, args.cell_budget)
        lines.append(f"{format_real(value)},{format_real(lo)},{format_real(hi)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_asn(args) -> int:
    plan = _read_plan(args.plan)
    lines = [",".join(["theta", *(f"tail_{ell}" for ell in range(1, plan.num_stages))])]
    for theta in args.theta:
        theta = real("theta", theta)  # a one-stage plan has no tail to refuse NaN or inf
        tails = [plan.sample_tail(ell, theta) for ell in range(1, plan.num_stages)]
        lines.append(",".join(format_real(x) for x in [theta, *tails]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    plan = _read_plan(args.plan)
    sigma = args.sigma if args.sigma is not None else getattr(plan, "sigma", None)
    if sigma is None:
        raise DomainError("--sigma is required for unknown-variance plans")
    report = simulate_plan(plan, args.mu, sigma, args.reps, args.seed)
    _write_text(args.out, dump_json(report.to_dict()) + "\n")
    return EXIT_OK


def _read_data_file(path: str) -> list[float]:
    values = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise DomainError(f"line {lineno}: not a real number: {text!r}")
            if not math.isfinite(value):
                raise DomainError(f"line {lineno}: non-finite value {text!r}")
            values.append(value)
    return values


def cmd_run(args) -> int:
    plan = _read_plan(args.plan)
    try:
        batch = _read_data_file(args.data)
    except (OSError, UnicodeDecodeError) as exc:
        raise SeqnormError(f"cannot read data: {exc}") from exc
    if os.path.exists(args.session):
        session = load_session(args.session, plan)
    else:
        session = new_session(plan, allow_uncertified=args.allow_uncertified)
    feed(session, batch)
    save_session(session, args.session)

    status = session.status
    if status.state == "need_more":
        print(f"NeedMore {status.next_n}")
        return EXIT_NEED_MORE
    print(
        f"{status.state.capitalize()} at stage {status.stage} "
        f"(statistic={format_real(status.statistic)})"
    )
    return EXIT_OK if status.state == "accepted" else EXIT_REJECTED


def main(argv=None) -> int:
    """Run one subcommand; a failure prints one "<command>: <message>" line.

    Domain errors (bad arguments or data) exit 2; every other package error,
    any file that cannot be read or written, and running out of memory exit
    1.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SeqnormError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return EXIT_FAILURE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
