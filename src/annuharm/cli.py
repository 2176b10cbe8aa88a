"""Command-line front end.

Commands: solve, critical, eval, verify, sweep.  JSON goes to stdout (or
--out) for solve/critical/verify; eval and sweep emit CSV by default.
Exit codes: 0 success, 1 usage error, 2 infeasible configuration,
3 verification failure, 4 numerical failure (a JSON payload {error, stage,
detail} names the error, the library call that raised it and its message).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from .errors import (
    AnnuharmError,
    BelowCritical,
    DivergentIntegral,
    DivergentModulus,
    NoConvergence,
    ProfileMismatch,
)
from .fields import (
    PolarGrid,
    energy,
    field_arrays,
    kk_constants,
    lipschitz_constant,
)
from .metrics import area, parse_metric
from .solver import (
    ProblemSpec,
    SolverConfig,
    _sharing_roots,
    build_profile,
    critical_constant,
    critical_inner_radius,
    solve_c,
)
from .verify import run_full_suite

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INFEASIBLE = 2
_EXIT_VERIFY_FAILED = 3
_EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (NoConvergence, DivergentModulus, DivergentIntegral,
                     ProfileMismatch)

_EVAL_HEADER = "s,t,re_w,im_w,re_wz,im_wz,re_wzb,im_wzb,jac,opnorm,lonorm,re_hopf,im_hopf"
_SWEEP_HEADER = "r,c,classification,energy,lipschitz_sup,lonorm_inf,mod_domain,mod_target"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cell(value) -> str:
    """CSV cell: a number with 17 significant digits (round-trip exact), a
    label as it is, a missing value empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value) + 0.0, ".17g")


def _tolerance(text: str) -> float:
    """A --tol value: a positive finite float."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need 0 < tol < inf, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="annuharm",
        description="Energy-minimal radial harmonic maps between circular "
                    "annuli: solve for the profile constant, locate the "
                    "critical configuration, evaluate fields, verify the "
                    "analytic identities, and sweep the inner radius.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_r=True):
        p.add_argument("--metric", "--metric_spec", dest="metric", required=True,
                       help='metric spec: euclidean, inverse_r, sphere, '
                            'hyperbolic, or power:a')
        p.add_argument("--q", type=float, required=True,
                       help="target inner radius")
        p.add_argument("--Q", type=float, required=True,
                       help="target outer radius")
        if need_r:
            p.add_argument("--r", type=float, required=True,
                           help="domain inner radius (outer normalized to 1)")
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="classification / check tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for randomized checks (default 42)")
        p.add_argument("--out", "--out_path", dest="out", default="",
                       help="output path (default stdout)")

    p_solve = sub.add_parser("solve", help="solve one configuration")
    add_common(p_solve)
    p_solve.add_argument("--format", choices=["json"], default="json")

    p_crit = sub.add_parser("critical", help="critical constant and radius")
    add_common(p_crit, need_r=False)
    p_crit.add_argument("--format", choices=["json"], default="json")

    p_eval = sub.add_parser("eval", help="field table on a polar grid")
    add_common(p_eval)
    p_eval.add_argument("--grid_s", type=int, default=32)
    p_eval.add_argument("--grid_t", type=int, default=64)
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    add_common(p_verify)
    p_verify.add_argument("--format", choices=["json"], default="json")

    p_sweep = sub.add_parser("sweep", help="sweep the domain inner radius")
    add_common(p_sweep, need_r=False)
    p_sweep.add_argument("--r_min", type=float, required=True)
    p_sweep.add_argument("--r_max", type=float, required=True)
    p_sweep.add_argument("--r_steps", type=int, required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(header: str, rows: list[dict], fmt: str, out_path: str) -> None:
    """Rows keyed by the header's names, as JSON records or as CSV."""
    if fmt == "json":
        text = json.dumps(rows, indent=2)
    else:
        keys = header.split(",")
        text = "\n".join([header] + [",".join(_cell(row[key]) for key in keys)
                                     for row in rows])
    _emit(text + "\n", out_path)


def _solver_config(args) -> SolverConfig:
    # the solver's equation tolerance stays floored at a resolvable level;
    # the raw --tol still reaches classification ties and check tolerances
    return SolverConfig(tol_c=max(args.tol, 1e-12), seed=args.seed)


def _problem(args) -> ProblemSpec:
    metric = parse_metric(args.metric)
    return ProblemSpec(metric=metric, q=args.q, Q=args.Q, r=args.r)


def _solve_summary(spec: ProblemSpec, config: SolverConfig) -> dict:
    c = solve_c(spec, config)
    profile = build_profile(spec, c, config)
    metric = spec.metric
    total_energy = energy(profile, metric)
    sup_op, inf_lo = lipschitz_constant(profile, metric)
    k, k_prime = kk_constants(profile, metric)
    crit_c = profile.critical_c
    crit_r = critical_inner_radius(metric, spec.q, spec.Q)
    return {
        "c": c,
        "hopf_constant": c / 4.0,
        "classification": profile.classification,
        "modulus_domain": math.log(1.0 / spec.r),
        "modulus_target": math.log(spec.Q / spec.q),
        "energy": total_energy,
        "energy_lower_bound": 2.0 * area(metric, spec.q, spec.Q),
        "lipschitz_sup": sup_op,
        "lonorm_inf": inf_lo,
        "K": k,
        "K_prime": k_prime,
        "critical_c": crit_c,
        "critical_r": crit_r if crit_r > 0.0 else None,
    }


def cmd_solve(args) -> int:
    payload = _solve_summary(_problem(args), _solver_config(args))
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return _EXIT_OK


def cmd_critical(args) -> int:
    metric = parse_metric(args.metric)
    crit_c = critical_constant(metric, args.q, args.Q)
    crit_r = critical_inner_radius(metric, args.q, args.Q)
    payload = {
        "critical_c": crit_c,
        "critical_r": crit_r if crit_r > 0.0 else None,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return _EXIT_OK


def cmd_eval(args) -> int:
    spec = _problem(args)
    config = _solver_config(args)
    profile = build_profile(spec, solve_c(spec, config), config)
    grid = PolarGrid(n_s=args.grid_s, n_t=args.grid_t, s_range=(spec.r, 1.0))
    arrays = field_arrays(profile, spec.metric, grid.s_values, grid.t_values)
    keys = _EVAL_HEADER.split(",")
    columns = []
    for key in keys:
        # re_x and im_x are the parts of the complex column x
        part, _, name = key.partition("_")
        column = arrays[key] if not name else \
            arrays[name].real if part == "re" else arrays[name].imag
        columns.append(column.ravel().tolist())
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    _emit_table(_EVAL_HEADER, rows, args.format, args.out)
    return _EXIT_OK


def cmd_verify(args) -> int:
    spec = _problem(args)
    config = _solver_config(args)
    report = run_full_suite(spec, config, check_tol=args.tol)
    _emit(report.to_json() + "\n", args.out)
    if report.all_passed:
        return _EXIT_OK
    solvable = report["solvable_configuration"]
    if not solvable.passed:
        return _EXIT_INFEASIBLE
    return _EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    if not (args.r_min < args.r_max) or args.r_steps < 2:
        sys.stderr.write("sweep: need r_min < r_max and r_steps >= 2\n")
        return _EXIT_USAGE
    if not (0.0 < args.r_min and args.r_max < 1.0):
        sys.stderr.write("sweep: radii must lie in (0, 1)\n")
        return _EXIT_USAGE
    metric = parse_metric(args.metric)
    config = _solver_config(args)
    mod_target = math.log(args.Q / args.q)
    rows = []
    for i in range(args.r_steps):
        r = args.r_min + i * (args.r_max - args.r_min) / (args.r_steps - 1)
        spec = ProblemSpec(metric=metric, q=args.q, Q=args.Q, r=r)
        try:
            c = solve_c(spec, config)
        except BelowCritical:
            solved = (None, "none", None, None, None)
        else:
            profile = build_profile(spec, c, config)
            sup_op, inf_lo = lipschitz_constant(profile, metric)
            solved = (c, profile.classification, energy(profile, metric),
                      sup_op, inf_lo)
        values = (r, *solved, math.log(1.0 / r), mod_target)
        rows.append(dict(zip(_SWEEP_HEADER.split(","), values)))
    _emit_table(_SWEEP_HEADER, rows, args.format, args.out)
    return _EXIT_OK


def _failed_stage(exc: BaseException) -> str:
    """module.function of the library call that raised: the first
    traceback frame outside this module."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("annuharm.") and module != __name__:
            return f"{module[len('annuharm.'):]}.{frame.f_code.co_name}"
    return "cli"


_COMMANDS = {
    "solve": cmd_solve,
    "critical": cmd_critical,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command reads its profile from the Psi table solve_c built
        with _sharing_roots():
            return _COMMANDS[args.command](args)
    except BelowCritical as exc:
        payload = {"error": "BelowCritical", "critical_r": exc.critical_r}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return _EXIT_INFEASIBLE
    except _NUMERICAL_ERRORS as exc:
        payload = {"error": type(exc).__name__, "stage": _failed_stage(exc),
                   "detail": str(exc)}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return _EXIT_NUMERICAL
    except AnnuharmError as exc:
        sys.stderr.write(f"annuharm {args.command}: {exc}\n")
        return _EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"annuharm {args.command}: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
