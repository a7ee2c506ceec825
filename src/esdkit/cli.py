"""Command-line interface.

Subcommands: evolve (trajectory CSV, Kraus vs master cross-check), sweep
(concurrence surface CSV + death-time summary JSON), td (death time for one
family parameter), bound (decay-bound Monte Carlo), check (invariant suites).

Exit codes: 0 success, 2 bad arguments, unreadable input or a grid too
large to allocate, 3 numerical failure, 4 invariant or bound violation.

Each subcommand's options are declared once, in its option table: the name,
converter, built-in default and help text give the flag --name-with-hyphens
and the config key.  A config file (--config) holds "key = value" lines, '#'
comments; keys are the long option names with hyphens or underscores.
Explicit flags win over config values, config values win over built-in
defaults.

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

from .channel import coefficients_from_gammas
from .entanglement import check_bound, concurrence_x
from .errors import NumericalError
from .esd import death_time_s, disentanglement_time_exact, family_concurrence, family_image, sweep
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
from .states import random_states, standard_family, xstate_to_dense


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _float(raw: str) -> float:
    """float(raw), with -0.0 read as 0.0, so no output echoes a negative zero."""
    return float(raw) + 0.0


_float.__name__ = "float"  # argparse names it in "invalid float value"


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class _BadValue(ValueError, argparse.ArgumentTypeError):
    """A converter's refusal.  argparse prints the message of an
    ArgumentTypeError for a flag, and _resolve's config route reports it like
    any other ValueError."""


def _parse_gammas(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(_float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise _BadValue(f"bad gamma list {raw!r}") from exc
    if not values:
        raise _BadValue("empty gamma list")
    for g in values:
        if not 0.0 <= g <= 1.0:
            raise _BadValue(f"gamma {g} outside [0, 1]")
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


# Option name (underscores) -> (converter, built-in default, help text).
Spec = dict[str, tuple[Callable[[str], Any], Any, str]]


def _resolve(args: argparse.Namespace, spec: Spec) -> None:
    """Fill unset options from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for name, (convert, default, _help) in spec.items():
        if getattr(args, name) is None:
            setattr(args, name, convert(cfg[name]) if name in cfg else default)


# Rows per block of evolve's image-vs-master differences and (state, channel)
# pairs per stacked check_bound pass: it bounds the working set, whatever the
# run length.  Results do not depend on it.
STACK_BLOCK = 128


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most size items covering range(n)."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _write_text(path: str, chunks: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------- evolve

EVOLVE_SPEC: Spec = {
    "a": (_float, 1.0, "family parameter in [0, 1]"),
    "rate": (_float, 1.0, "damping rate"),
    "t_max": (_float, 3.0, "final time"),
    "dt": (_float, 1e-3, "integration step"),
    "omega_a": (_float, 1.0, "atom A frequency"),
    "omega_b": (_float, 1.0, "atom B frequency"),
    "memory_rate": (_float, None, "reservoir memory rate; enables the structured kernel"),
    "kernel_center": (_float, 0.0, "reservoir center frequency"),
    "kernel_file": (str, None, "tabulated kernel: rows 'tau alpha_re alpha_im'"),
    "mem_dt": (_float, None, "amplitude-solver step"),
    "mem_tol": (_float, 1e-8, "amplitude-solver convergence gate"),
    "natural_units": (_parse_bool, True, "report times as rate*t"),
    "output": (str, "evolve.csv", "CSV path"),
}


EVOLVE_ROW = ",".join(["%.17g"] * 7) + "\n"


def cmd_evolve(args: argparse.Namespace) -> int:
    if not 0.0 <= args.rate < math.inf:
        raise ValueError(f"rate must be finite and non-negative, got {args.rate}")
    if not (math.isfinite(args.omega_a) and math.isfinite(args.omega_b)):
        raise ValueError(f"omega_a={args.omega_a} and omega_b={args.omega_b} must be finite")
    if args.mem_dt is not None and not 0.0 < args.mem_dt < math.inf:
        raise ValueError(f"mem_dt must be finite and positive, got {args.mem_dt}")
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
        ratio = args.t_max / target
        if ratio == math.inf:
            raise ValueError(
                f"t_max={args.t_max} / amplitude step {target} overflows: too many steps"
            )
        # At least two steps: gamma is interpolated linearly between them.
        mem_dt = args.t_max / max(2, math.ceil(ratio - 1e-9))
        sol_a = full_solution(kernel, args.omega_a, args.t_max, mem_dt, tol=args.mem_tol)
        sol_b = sol_a if args.omega_b == args.omega_a else full_solution(
            kernel, args.omega_b, args.t_max, mem_dt, tol=args.mem_tol
        )
        rates = table_rates(sol_a, sol_b)
        ga, gb = (np.interp(grid, sol.t, sol.gamma) for sol in (sol_a, sol_b))

    traj = interaction_trajectory(
        integrate_master(rho0, rates, AtomParams(args.omega_a, args.omega_b),
                         args.t_max, args.dt)
    )
    # Per row p1..p4 for the diagonal, then z23 for (1, 2) and (2, 1).
    image = np.stack(family_image(args.a, ga, gb), axis=-1)[:, [0, 1, 2, 3, 4, 4]]
    conc = family_concurrence(args.a, ga, gb)
    traces = np.einsum("tii->t", traj.states)

    scale = args.rate if (args.natural_units and args.rate > 0.0) else 1.0
    t_col = grid * scale
    trace_err = np.abs(traces.real - 1.0)
    bound_rhs = c0 * (ga * gb)
    header = "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
    chunks = [header + "\n"]
    for block in _blocks(grid.size, STACK_BLOCK):
        diff = traj.states[block].copy()  # the image is zero off the X pattern
        diff[:, [0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]] -= image[block]
        maxdiff = np.max(np.abs(diff), axis=(-2, -1))
        rows = np.stack([t_col[block], conc[block], ga[block], gb[block], trace_err[block],
                         bound_rhs[block], maxdiff], axis=-1)
        chunks.append("".join([EVOLVE_ROW % tuple(row) for row in rows.tolist()]))
    _write_text(args.output, chunks)
    print(f"wrote {args.output} ({grid.size} rows)")
    return 0


# ---------------------------------------------------------------- sweep

SWEEP_SPEC: Spec = {
    "a_min": (_float, 0.0, "least family parameter"),
    "a_max": (_float, 1.0, "greatest family parameter"),
    "a_steps": (int, 101, "family parameters on the grid"),
    "t_max": (_float, 3.0, "final time"),
    "t_steps": (int, 200, "times on the grid"),
    "rate": (_float, 1.0, "damping rate"),
    "natural_units": (_parse_bool, True, "report times as rate*t"),
    "output": (str, "sweep.csv", "CSV path; the summary goes to <stem>_summary.json"),
}


def _summary_path(output: str) -> str:
    stem, _ext = os.path.splitext(output)
    return f"{stem}_summary.json"


# One summary record as json.dump(indent=2) lays out a dict in a list, with
# kind, t_d and gamma_rate still to fill; json writes floats by repr, so a and
# a finite t_d go in by %r.
SUMMARY_RECORD = '  {\n    "a": %%r,\n    "kind": "%s",\n    "t_d": %s,\n    "gamma_rate": %s\n  }'


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.a_steps < 1 or args.t_steps < 1:
        raise ValueError("a_steps and t_steps must be at least 1")
    if not (math.isfinite(args.rate) and args.rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {args.rate}")
    for name in ("a_min", "a_max"):
        if not 0.0 <= getattr(args, name) <= 1.0:
            raise ValueError(f"{name} must be finite and in [0, 1], got {getattr(args, name)}")
    if args.a_min > args.a_max:
        raise ValueError(f"a_min {args.a_min} must not exceed a_max {args.a_max}")
    if not (math.isfinite(args.t_max) and args.t_max >= 0.0):
        raise ValueError(f"t_max must be finite and nonnegative, got {args.t_max}")
    try:
        a_grid = np.linspace(args.a_min, args.a_max, args.a_steps)
        t_grid = np.linspace(0.0, args.t_max, args.t_steps)
    except ValueError as exc:  # beyond numpy's index range
        raise ValueError(f"a_steps={args.a_steps}, t_steps={args.t_steps}: {exc}") from None
    surface = sweep(a_grid, t_grid, args.rate)
    s_d = death_time_s(a_grid)
    finite = np.isfinite(s_d)
    with np.errstate(over="ignore"):  # an overflowing time or t_d is reported below
        t_col = t_grid * args.rate if args.natural_units else t_grid
        t_d = s_d if args.natural_units else s_d / args.rate
    if not math.isfinite(t_col[-1]):
        raise NumericalError(f"time t_max*rate overflows at t_max {args.t_max!r}, "
                             f"rate {args.rate!r}")
    if not np.all(np.isfinite(t_d[finite])):
        raise NumericalError(f"death times overflow model time at rate {args.rate!r}")
    # sweep() admitted only a in [0, 1] and a finite rate, and t_d is finite
    # where it is reported, so no NaN or Infinity can reach the summary.
    gamma_rate = json.dumps(args.rate, allow_nan=False)
    finite_record = SUMMARY_RECORD % ("finite", "%r", gamma_rate)
    asymptotic_record = SUMMARY_RECORD % ("asymptotic", "null", gamma_rate)

    # Nothing is written until every number is in hand, so a failed run
    # leaves no partial output.  Each CSV row of one a is one % on a template
    # holding the formatted times.
    row_template = "".join(["%%s,%s,%%.17g\n" % _fmt(t) for t in t_col.tolist()])
    with open(args.output, "w", newline="") as fh:
        fh.write("a,t,concurrence\n")
        for a, row in zip(a_grid.tolist(), surface):
            cells = [_fmt(a)] * (2 * t_grid.size)
            cells[1::2] = row.tolist()
            fh.write(row_template % tuple(cells))
    spath = _summary_path(args.output)
    with open(spath, "w", newline="") as fh:
        fh.write("[\n")
        fh.write(",\n".join([
            finite_record % (a, t) if fin else asymptotic_record % (a,)
            for a, fin, t in zip(a_grid.tolist(), finite.tolist(), t_d.tolist())
        ]))
        fh.write("\n]\n")
    print(f"wrote {args.output} ({a_grid.size * t_grid.size} rows) and {spath}")
    return 0


# ---------------------------------------------------------------- td

TD_SPEC: Spec = {
    "a": (_float, 1.0, "family parameter in [0, 1]"),
    "rate": (_float, 1.0, "damping rate"),
    "natural_units": (_parse_bool, True, "report times as rate*t"),
    "output": (str, None, "JSON path; stdout when unset"),
}


def cmd_td(args: argparse.Namespace) -> int:
    """Death time from the closed form; the bisection in esdkit.reference cross-checks it."""
    if not (math.isfinite(args.rate) and args.rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {args.rate}")
    # In natural units the reported rate*t_d is the death time at unit rate,
    # finite however small the rate; a model-time t_d that overflows raises
    # NumericalError.
    verdict = disentanglement_time_exact(args.a, 1.0 if args.natural_units else args.rate)
    payload = {"a": args.a, "kind": verdict.kind, "t_d": verdict.t_d, "gamma_rate": args.rate}
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if args.output:
        _write_text(args.output, [text])
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- bound

BOUND_SPEC: Spec = {
    "samples": (int, 200, "random states drawn"),
    "seed": (int, 0, "seed of the first state; the rest count up"),
    "gammas": (_parse_gammas, (0.9, 0.5, 0.1), "comma-separated residual amplitudes"),
    "slack": (_float, 1e-10, "tolerance of each bound check"),
    "output": (str, "bound.csv", "CSV path"),
}


BOUND_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g\n"


def cmd_bound(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    chunks = ["seed,gamma,lhs,rhs,satisfied,first_branch_gap,side_branch_max\n"]
    gammas = np.array(args.gammas)
    coeffs = coefficients_from_gammas(gammas, gammas)
    try:
        # Every check's numbers, filled block by block: a sample count too
        # large to hold fails here, before any state is drawn.
        table = np.empty((args.samples, gammas.size, 6))
    except ValueError as exc:  # beyond numpy's index range
        raise ValueError(f"samples={args.samples}: {exc}") from None
    seeds = range(args.seed, args.seed + args.samples)
    for block in _blocks(args.samples, max(1, STACK_BLOCK // gammas.size)):
        rhos = random_states(seeds[block])
        # Rows are seed-major, then gamma: the report arrays have shape (seeds, gammas).
        rep = check_bound(rhos[:, None], coeffs, slack=args.slack)
        table[block] = np.stack(np.broadcast_arrays(
            gammas, rep.lhs, rep.rhs, rep.satisfied, rep.first_branch_gap, rep.side_branch_max,
        ), axis=-1)
        # Seeds stay Python ints: a float column would round seeds above 2**53.
        row_seeds = [seed for seed in seeds[block] for _ in args.gammas]
        chunks.append("".join([BOUND_ROW % (seed, *row) for seed, row in
                               zip(row_seeds, table[block].reshape(-1, 6).tolist())]))
    violations = int(np.count_nonzero(table[..., 3] == 0.0))
    worst_gap = float(np.max(table[..., 1] - table[..., 2]))
    total = args.samples * len(args.gammas)
    chunks.append(
        f"# satisfied {total - violations}/{total}, worst lhs-rhs gap {worst_gap:.3e}\n"
    )
    _write_text(args.output, chunks)
    print(f"wrote {args.output} ({total} checks, {violations} violations)")
    return 4 if violations else 0


# ---------------------------------------------------------------- check

def cmd_check(args: argparse.Namespace) -> int:
    # The probes and the cross-check routes they call load only for check.
    from .selfcheck import run_all

    results = run_all()
    failures = sum(not res.passed for res in results)
    for res in results:
        print(f"{'ok' if res.passed else 'FAIL'} - {res.name} ({res.detail})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 4 if failures else 0


# ---------------------------------------------------------------- parser

COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], Spec, str]] = {
    "evolve": (cmd_evolve, EVOLVE_SPEC, "trajectory CSV with Kraus vs master cross-check"),
    "sweep": (cmd_sweep, SWEEP_SPEC, "concurrence surface CSV + death-time summary JSON"),
    "td": (cmd_td, TD_SPEC, "death time for one family parameter (JSON)"),
    "bound": (cmd_bound, BOUND_SPEC, "decay-bound Monte Carlo over random states"),
    "check": (cmd_check, {}, "run the module invariant suites"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, one flag per option-table entry.

    Every flag defaults to None, so _resolve can tell an unset option from
    an explicit one.
    """
    parser = argparse.ArgumentParser(
        prog="esdkit",
        description="Two-qubit damping trajectories, concurrence, sudden death.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, spec, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func, spec=spec, config=None)
        if spec:
            p.add_argument("--config", help="key = value file; flags win over it")
        for name, (convert, default, text) in spec.items():
            flag = "--" + name.replace("_", "-")
            if default is not None:
                text = f"{text} (default {default})"
            if convert is _parse_bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=convert, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve(args, args.spec)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation: "Unable to allocate 711. PiB for an array ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, Warning) as exc:
        # A Warning arrives here only when warnings are errors (python -W error).
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
