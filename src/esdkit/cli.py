"""Command-line interface.

Subcommands: evolve (trajectory CSV, Kraus vs master cross-check), sweep
(concurrence surface CSV + death-time summary JSON), td (death time for one
family parameter), bound (decay-bound Monte Carlo), check (invariant suites).

Exit codes: 0 success, 2 bad arguments or unreadable input, 3 numerical
failure, 4 invariant or bound violation.

A config file (--config) holds "key = value" lines, '#' comments; keys are
the long option names with hyphens or underscores.  Explicit flags win over
config values, config values win over built-in defaults.

CSV output: comma-separated, LF line endings, '.' decimal separator, floats
at 17 significant digits, one '#' summary line at the end where noted.
Times are reported in units of 1/rate by default (--no-natural-units for raw
model time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from .channel import apply_channel, coefficients_from_gammas, coefficients_markov
from .entanglement import check_bound, concurrence, concurrence_x
from .errors import NumericalError
from .esd import disentanglement_time, disentanglement_time_exact, sweep
from .master import (
    AtomParams,
    integrate_master,
    interaction_trajectory,
    markov_rates,
    table_rates,
)
from .memory import (
    ExponentialKernel,
    full_solution,
    load_kernel_table,
    uniform_grid,
)
from .selfcheck import run_all
from .states import random_state, standard_family, xstate_to_dense


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_gammas(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad gamma list {raw!r}") from exc
    if not values:
        raise ValueError("empty gamma list")
    for g in values:
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma {g} outside [0, 1]")
    return values


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _resolve(args: argparse.Namespace, spec: dict[str, tuple[Callable[[str], Any], Any]]) -> None:
    """Fill unset options from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for name, (convert, default) in spec.items():
        if getattr(args, name, None) is None:
            if name in cfg:
                setattr(args, name, convert(cfg[name]))
            else:
                setattr(args, name, default)


# (state, channel) pairs per stacked pass in evolve and bound.  It bounds the
# working set of the stacked channel and concurrence calls, whatever the run
# length; results do not depend on it, since stacked calls are bit-equal to
# single ones.
STACK_BLOCK = 128


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most size items covering range(n)."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- evolve

EVOLVE_SPEC: dict[str, tuple[Callable[[str], Any], Any]] = {
    "a": (float, 1.0),
    "rate": (float, 1.0),
    "t_max": (float, 3.0),
    "dt": (float, 1e-3),
    "omega_a": (float, 1.0),
    "omega_b": (float, 1.0),
    "memory_rate": (float, None),
    "kernel_center": (float, 0.0),
    "kernel_file": (str, None),
    "mem_dt": (float, None),
    "mem_tol": (float, 1e-8),
    "natural_units": (_parse_bool, True),
    "output": (str, "evolve.csv"),
}


def cmd_evolve(args: argparse.Namespace) -> int:
    _resolve(args, EVOLVE_SPEC)
    if args.rate < 0.0:
        raise ValueError(f"negative rate {args.rate}")
    if args.memory_rate is not None and args.kernel_file is not None:
        raise ValueError("choose either --memory-rate or --kernel-file, not both")

    x0 = standard_family(args.a)
    rho0 = xstate_to_dense(x0)
    c0 = concurrence_x(x0)
    grid = uniform_grid(args.t_max, args.dt)

    if args.memory_rate is None and args.kernel_file is None:
        rates = markov_rates(args.rate, args.rate)
        ga = np.exp(-0.5 * args.rate * grid)
        gb = ga
    else:
        if args.kernel_file is not None:
            kernel = load_kernel_table(args.kernel_file)
            target = args.mem_dt if args.mem_dt is not None else kernel.step
        else:
            kernel = ExponentialKernel(args.rate, args.memory_rate, args.kernel_center)
            target = args.mem_dt if args.mem_dt is not None else min(
                args.dt, 0.005 / args.memory_rate
            )
        steps = max(1, math.ceil(args.t_max / target - 1e-9))
        mem_dt = args.t_max / steps
        sol_a = full_solution(kernel, args.omega_a, args.t_max, mem_dt, tol=args.mem_tol)
        sol_b = sol_a if args.omega_b == args.omega_a else full_solution(
            kernel, args.omega_b, args.t_max, mem_dt, tol=args.mem_tol
        )
        rates = table_rates(sol_a, sol_b)
        ga = np.interp(grid, sol_a.t, sol_a.gamma)
        gb = np.interp(grid, sol_b.t, sol_b.gamma)

    traj = interaction_trajectory(
        integrate_master(rho0, rates, AtomParams(args.omega_a, args.omega_b),
                         args.t_max, args.dt)
    )
    traces = np.einsum("tii->t", traj.states)

    scale = args.rate if (args.natural_units and args.rate > 0.0) else 1.0
    header = "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
    lines = [header]
    for block in _blocks(grid.size, STACK_BLOCK):
        evolved = apply_channel(rho0, coefficients_from_gammas(ga[block], gb[block]))
        conc = concurrence(evolved).value
        maxdiff = np.max(np.abs(evolved - traj.states[block]), axis=(-2, -1))
        for k, i in enumerate(range(grid.size)[block]):
            trace_err = abs(float(traces[i].real) - 1.0)
            bound_rhs = c0 * float(ga[i] * gb[i])
            lines.append(",".join(_fmt(v) for v in (
                grid[i] * scale, conc[k], ga[i], gb[i], trace_err, bound_rhs, maxdiff[k],
            )))
    _write_lines(args.output, lines)
    print(f"wrote {args.output} ({grid.size} rows)")
    return 0


# ---------------------------------------------------------------- sweep

SWEEP_SPEC: dict[str, tuple[Callable[[str], Any], Any]] = {
    "a_min": (float, 0.0),
    "a_max": (float, 1.0),
    "a_steps": (int, 101),
    "t_max": (float, 3.0),
    "t_steps": (int, 200),
    "rate": (float, 1.0),
    "natural_units": (_parse_bool, True),
    "output": (str, "sweep.csv"),
}


def _summary_path(output: str) -> str:
    stem, _ext = os.path.splitext(output)
    return f"{stem}_summary.json"


def cmd_sweep(args: argparse.Namespace) -> int:
    _resolve(args, SWEEP_SPEC)
    if args.a_steps < 1 or args.t_steps < 1:
        raise ValueError("a_steps and t_steps must be at least 1")
    if args.rate <= 0.0:
        raise ValueError(f"rate must be positive, got {args.rate}")
    a_grid = np.linspace(args.a_min, args.a_max, args.a_steps)
    t_grid = np.linspace(0.0, args.t_max, args.t_steps)
    surface = sweep(a_grid, t_grid, args.rate)

    scale = args.rate if args.natural_units else 1.0
    lines = ["a,t,concurrence"]
    for i, a in enumerate(a_grid):
        for j, t in enumerate(t_grid):
            lines.append(f"{_fmt(a)},{_fmt(t * scale)},{_fmt(surface[i, j])}")
    _write_lines(args.output, lines)

    summary = []
    for a in a_grid:
        verdict = disentanglement_time(float(a), args.rate)
        summary.append({
            "a": float(a),
            "kind": verdict.kind,
            "t_d": None if verdict.t_d is None else verdict.t_d * scale,
            "gamma_rate": args.rate,
        })
    spath = _summary_path(args.output)
    with open(spath, "w", newline="") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output} ({a_grid.size * t_grid.size} rows) and {spath}")
    return 0


# ---------------------------------------------------------------- td

TD_SPEC: dict[str, tuple[Callable[[str], Any], Any]] = {
    "a": (float, 1.0),
    "rate": (float, 1.0),
    "method": (str, "bisect"),
    "natural_units": (_parse_bool, True),
    "output": (str, None),
}


def cmd_td(args: argparse.Namespace) -> int:
    _resolve(args, TD_SPEC)
    if args.method not in ("bisect", "exact"):
        raise ValueError(f'method must be "bisect" or "exact", got {args.method!r}')
    solver = disentanglement_time if args.method == "bisect" else disentanglement_time_exact
    verdict = solver(args.a, args.rate)
    scale = args.rate if args.natural_units else 1.0
    payload = {
        "a": args.a,
        "kind": verdict.kind,
        "t_d": None if verdict.t_d is None else verdict.t_d * scale,
        "gamma_rate": args.rate,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- bound

BOUND_SPEC: dict[str, tuple[Callable[[str], Any], Any]] = {
    "samples": (int, 200),
    "seed": (int, 0),
    "gammas": (_parse_gammas, (0.9, 0.5, 0.1)),
    "slack": (float, 1e-10),
    "output": (str, "bound.csv"),
}


def cmd_bound(args: argparse.Namespace) -> int:
    _resolve(args, BOUND_SPEC)
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    lines = ["seed,gamma,lhs,rhs,satisfied,first_branch_gap,side_branch_max"]
    gammas = np.array(args.gammas)
    coeffs = coefficients_from_gammas(gammas, gammas)
    violations = 0
    worst_gap = -math.inf
    seeds = range(args.seed, args.seed + args.samples)
    for block in _blocks(args.samples, max(1, STACK_BLOCK // len(args.gammas))):
        rhos = np.stack([random_state(seed) for seed in seeds[block]])
        # Rows are seed-major, then gamma: the report arrays have shape (seeds, gammas).
        rep = check_bound(rhos[:, None], coeffs, slack=args.slack)
        worst_gap = max(worst_gap, float(np.max(rep.lhs - rep.rhs)))
        violations += int(np.count_nonzero(~rep.satisfied))
        for k, seed in enumerate(seeds[block]):
            for j, g in enumerate(args.gammas):
                lines.append(",".join((
                    str(seed), _fmt(g), _fmt(rep.lhs[k, j]), _fmt(rep.rhs[k, j]),
                    str(int(rep.satisfied[k, j])), _fmt(rep.first_branch_gap[k, j]),
                    _fmt(rep.side_branch_max[k, j]),
                )))
    total = args.samples * len(args.gammas)
    lines.append(
        f"# satisfied {total - violations}/{total}, worst lhs-rhs gap {worst_gap:.3e}"
    )
    _write_lines(args.output, lines)
    print(f"wrote {args.output} ({total} checks, {violations} violations)")
    return 4 if violations else 0


# ---------------------------------------------------------------- check

def cmd_check(args: argparse.Namespace) -> int:
    results = run_all()
    failures = 0
    for res in results:
        if res.passed:
            print(f"ok - {res.name} ({res.detail})")
        else:
            failures += 1
            print(f"FAIL - {res.name} ({res.detail})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 4 if failures else 0


# ---------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file; flags win over it")
    parser.add_argument(
        "--natural-units", action=argparse.BooleanOptionalAction, default=None,
        help="report times as rate*t (default on)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdkit",
        description="Two-qubit damping trajectories, concurrence, sudden death.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="trajectory CSV with Kraus vs master cross-check")
    p.add_argument("--a", type=float, help="family parameter in [0, 1] (default 1)")
    p.add_argument("--rate", type=float, help="damping rate (default 1)")
    p.add_argument("--t-max", type=float, dest="t_max", help="final time (default 3)")
    p.add_argument("--dt", type=float, help="integration step (default 1e-3)")
    p.add_argument("--omega-a", type=float, dest="omega_a", help="atom A frequency")
    p.add_argument("--omega-b", type=float, dest="omega_b", help="atom B frequency")
    p.add_argument("--memory-rate", type=float, dest="memory_rate",
                   help="reservoir memory rate; enables the structured kernel")
    p.add_argument("--kernel-center", type=float, dest="kernel_center",
                   help="reservoir center frequency (default 0)")
    p.add_argument("--kernel-file", dest="kernel_file",
                   help="tabulated kernel: rows 'tau alpha_re alpha_im'")
    p.add_argument("--mem-dt", type=float, dest="mem_dt", help="amplitude-solver step")
    p.add_argument("--mem-tol", type=float, dest="mem_tol",
                   help="amplitude-solver convergence gate (default 1e-8)")
    p.add_argument("--output", help="CSV path (default evolve.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="concurrence surface CSV + death-time summary JSON")
    p.add_argument("--a-min", type=float, dest="a_min")
    p.add_argument("--a-max", type=float, dest="a_max")
    p.add_argument("--a-steps", type=int, dest="a_steps")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-steps", type=int, dest="t_steps")
    p.add_argument("--rate", type=float)
    p.add_argument("--output", help="CSV path (default sweep.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("td", help="death time for one family parameter (JSON)")
    p.add_argument("--a", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--method", choices=("bisect", "exact"))
    p.add_argument("--output", help="JSON path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_td)

    p = sub.add_parser("bound", help="decay-bound Monte Carlo over random states")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gammas", type=_parse_gammas,
                   help="comma-separated residual amplitudes (default 0.9,0.5,0.1)")
    p.add_argument("--slack", type=float)
    p.add_argument("--output", help="CSV path (default bound.csv)")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="run the module invariant suites")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
