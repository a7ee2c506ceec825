"""Command-line interface.

Subcommands: evolve (trajectory CSV, Kraus vs master cross-check), sweep
(concurrence surface CSV + death-time summary JSON), td (death time for one
family parameter), bound (decay-bound Monte Carlo), check (invariant suites).

Exit codes: 0 success, 2 bad arguments, unreadable input or a grid too
large to allocate, 3 numerical failure, 4 invariant or bound violation.

Each subcommand's options are declared once, in its option table: the name,
converter, built-in default and help text give the flag --name-with-hyphens,
its -h line and the config key, and parse_args reads argv off the tables.
A config file (--config) holds "key = value" lines, '#' comments; keys are
the long option names with hyphens or underscores.  Explicit flags win over
config values, config values win over built-in defaults.

CSV output: comma-separated, LF line endings, '.' decimal separator, floats
at 17 significant digits, one '#' summary line at the end where noted.
Times are reported in units of 1/rate by default (--no-natural-units for raw
model time).

bound and sweep split their blocks into contiguous parts, one per usable CPU
(os.sched_getaffinity, which does not see a CFS CPU quota): the process
computes the first part, and each other part runs in a child forked before
any output file is opened, which pipes its results back and leaves by
os._exit.  Only the parent writes; a part whose child fails is recomputed by
the parent, and every child is killed and reaped on every exit path.  Outputs,
messages and exit codes are byte-identical for any block size and any number
of usable CPUs.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import sys
import warnings
from types import SimpleNamespace
from typing import Any, BinaryIO, Callable, Iterator, TextIO

import numpy as np

from .channel import DampingCoefficients
from .entanglement import check_bound, concurrence_x
from .errors import NumericalError
from .esd import death_time_s, family_concurrence, family_image
from .master import integrate_master
from .memory import (DEFAULT_TOL, ExponentialKernel, coefficient_f, load_kernel_table,
                     solve_amplitude, uniform_grid)
from .states import random_states, standard_family, xstate_to_dense


def _float(raw: str) -> float:
    """float(raw), with -0.0 read as 0.0, so no output echoes a negative zero."""
    return float(raw) + 0.0


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_gammas(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(_float(tok) for tok in raw.split(",") if tok.strip())
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


# Option name (underscores) -> (converter, built-in default, help text).
Spec = dict[str, tuple[Callable[[str], Any], Any, str]]


def _resolve(args: SimpleNamespace, spec: Spec) -> None:
    """Fill unset options from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    for name, (convert, default, _help) in spec.items():
        if getattr(args, name) is None:
            try:
                setattr(args, name, convert(cfg[name]) if name in cfg else default)
            except ValueError as exc:  # the converter refused the config value
                raise ValueError(f"{args.config}: {name}: {exc}") from None


# Rows per block of evolve's image-vs-master differences, (state, channel)
# pairs per stacked check_bound pass, and rows or records per % of the text
# writers: it bounds the working set, whatever the run length.  Results do
# not depend on it.
STACK_BLOCK = 128


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most size items covering range(n)."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


# CSV rows a forked part of `sweep` formats, at the least: about 5 ms of
# work at ~1 us a row, against the ~3 ms round trip of a fork.
SWEEP_FORK_ROWS = 4096
_SIGKILL = 9  # fixed by POSIX; the signal module is not loaded


def _fork_map(fn: Callable[[Any], Any], items: list, least: int) -> Iterator[Any]:
    """Yield fn(item) for each item, in order, over contiguous parts: one per
    usable CPU, each of at least `least` items.

    The parent computes the first part.  Each other part runs in a forked
    child, which computes all its results and only then pipes them back, one
    pickle per item; the parent reads them one at a time as it reaches them.
    A part whose child delivers fewer than all its items (it raised or
    warned, was killed, or could not be forked) is finished by the parent,
    so results, errors and warnings are those of the serial loop.  Every
    child is killed and reaped when the generator ends, closed included.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, len(items) // least))
    bounds = [len(items) * k // n for k in range(n + 1)]
    parts = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for part in parts[1:]:
            fds: tuple[int, ...] = ()
            try:
                fds = os.pipe()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")  # held back until the pid is known
                    pid = os.fork()
            except OSError:  # no descriptor or no process (EAGAIN): the parent goes on alone
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                _fork_child(fn, part, *fds)
            os.close(fds[1])
            pids.append(pid)
            pipes.append(open(fds[0], "rb"))
            try:  # Python 3.12 warns of a fork in a process with threads
                for warning in caught:
                    warnings.warn(warning.message)
            except Warning:  # an error here: the parent computes this part and the rest
                os.kill(pid, _SIGKILL)
                break
        yield from map(fn, parts[0])
        for k, part in enumerate(parts[1:]):
            done = 0
            while k < len(pipes) and done < len(part):
                try:
                    result = pickle.load(pipes[k])
                except (EOFError, pickle.UnpicklingError):  # the child stopped short
                    break
                done += 1
                yield result
            yield from map(fn, part[done:])
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, _SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_child(fn: Callable[[Any], Any], part: list, read: int, write: int) -> None:
    """The child's side of _fork_map: every result of fn over part, then one
    pickle each down the pipe.  It leaves by os._exit whatever happens, so it
    never returns into the caller nor flushes a buffer it inherited."""
    code = 1
    try:
        os.close(read)
        # A warning fails the part, which the parent then computes and warns of.
        warnings.simplefilter("error")
        results = [fn(item) for item in part]
        with open(write, "wb") as pipe:
            for result in results:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _all_or_nothing() -> Iterator[Callable[[str], TextIO]]:
    """Yield an opener of text outputs; if the block raises, every file it
    opened is removed, so a failed run leaves no output."""
    made: list[str] = []

    def create(path: str) -> TextIO:
        fh = open(path, "w", newline="")
        made.append(path)
        return fh

    try:
        yield create
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_text(path: str, chunks: list[str]) -> None:
    with _all_or_nothing() as create, create(path) as fh:
        fh.writelines(chunks)


def _death_times(s_d: np.ndarray, rate: float, natural_units: bool) -> np.ndarray:
    """Death times of `td` and `sweep` in the reported unit, elementwise over
    the array s_d = rate*t_d: s_d itself in natural units, finite however
    small the rate, else the model time s_d/rate; +inf where death is only
    asymptotic.  The rate must be finite and positive; a model time that
    overflows is a NumericalError, never an infinite t_d."""
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")
    if natural_units:
        return s_d
    with np.errstate(over="ignore"):
        t_d = s_d / rate
    lost = np.isfinite(s_d) & ~np.isfinite(t_d)
    if lost.any():
        raise NumericalError(f"death time {float(s_d[lost].flat[0])!r}/rate overflows "
                             f"at rate {rate!r}")
    return t_d


# ---------------------------------------------------------------- evolve

EVOLVE_SPEC: Spec = {
    "a": (_float, 1.0, "family parameter in [0, 1]"),
    "rate": (_float, 1.0, "damping rate; a --kernel-file table sets its own"),
    "t_max": (_float, 3.0, "final time"),
    "dt": (_float, 1e-3, "integration step"),
    "omega_a": (_float, 1.0, "atom A frequency"),
    "omega_b": (_float, 1.0, "atom B frequency"),
    "memory_rate": (_float, None, "reservoir memory rate; enables the structured kernel"),
    "kernel_center": (_float, 0.0, "reservoir center frequency"),
    "kernel_file": (str, None, "tabulated kernel: rows 'tau alpha_re alpha_im'"),
    "mem_dt": (_float, None, "largest amplitude-solver step; the step used divides dt/2"),
    "mem_tol": (_float, DEFAULT_TOL, "tabulated-kernel solver convergence gate"),
    "natural_units": (_parse_bool, True, "report times as rate*t"),
    "output": (str, "evolve.csv", "CSV path"),
}


EVOLVE_ROW = ",".join(["%.17g"] * 7) + "\n"


def _memory_rates(args: SimpleNamespace) -> tuple[np.ndarray, ...]:
    """Re F and Re G at the master's 2n + 1 RK4 stages and both local
    coherences on the n-step evolve grid, read off one amplitude solve per
    distinct atom frequency, each in that atom's rotating frame: its step is
    dt/2 divided by the least k that keeps it at most --mem-dt, else the
    table's step, else dt (a single pole is exact at any step), so every k-th
    point is a stage and every 2k-th a grid point.  The samples are copies:
    the kernel and the solutions die on return, before the master runs."""
    if args.kernel_file is not None:
        kernel = load_kernel_table(args.kernel_file)
        target = kernel.step
    else:
        kernel = ExponentialKernel(args.rate, args.memory_rate, args.kernel_center)
        target = args.dt
    if args.mem_dt is not None:
        target = args.mem_dt
    if args.t_max / target == math.inf:
        raise ValueError(
            f"t_max={args.t_max} / amplitude step {target} overflows: too many steps"
        )
    k = max(1, math.ceil(0.5 * args.dt / target - 1e-9))
    mem_dt = 0.5 * args.dt / k
    rates = {}
    for omega in dict.fromkeys((args.omega_a, args.omega_b)):
        sol = solve_amplitude(kernel, args.t_max, mem_dt, omega, tol=args.mem_tol)
        rates[omega] = coefficient_f(sol).real[::k].copy(), sol.gamma[::2 * k].copy()
    (re_f, ga), (re_g, gb) = rates[args.omega_a], rates[args.omega_b]
    return re_f, re_g, ga, gb


def cmd_evolve(args: SimpleNamespace) -> int:
    if not 0.0 <= args.rate < math.inf:
        raise ValueError(f"rate must be finite and non-negative, got {args.rate}")
    if not (math.isfinite(args.omega_a) and math.isfinite(args.omega_b)):
        raise ValueError(f"omega_a={args.omega_a} and omega_b={args.omega_b} must be finite")
    if args.mem_dt is not None and not 0.0 < args.mem_dt < math.inf:
        raise ValueError(f"mem_dt must be finite and positive, got {args.mem_dt}")
    if not args.mem_tol >= 0.0:
        raise ValueError(f"mem_tol must be non-negative (inf skips the gate), got {args.mem_tol}")
    if not math.isfinite(args.kernel_center):
        raise ValueError(f"kernel_center must be finite, got {args.kernel_center}")
    if args.memory_rate is not None and args.kernel_file is not None:
        raise ValueError("choose either --memory-rate or --kernel-file, not both")
    if args.kernel_file is not None and args.kernel_center != 0.0:
        # A table holds its own center; the flag would be dropped silently.
        raise ValueError("choose either --kernel-center or --kernel-file, not both")
    if args.kernel_file is not None and args.rate != 1.0:
        # A table sets its own decay strength; the rate would only rescale t.
        raise ValueError("choose either --rate or --kernel-file, not both")

    x0 = standard_family(args.a)
    rho0 = xstate_to_dense(x0)
    c0 = concurrence_x(x0)
    grid = uniform_grid(args.t_max, args.dt)

    if args.memory_rate is None and args.kernel_file is None:
        re_f = re_g = 0.5 * args.rate
        ga = np.exp(-0.5 * args.rate * grid)
        gb = ga
    else:
        re_f, re_g, ga, gb = _memory_rates(args)

    traj = integrate_master(rho0, re_f, re_g, args.t_max, args.dt)
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
        chunks.append((EVOLVE_ROW * len(rows)) % tuple(rows.ravel().tolist()))
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


# One death-time record as json.dumps(indent=2) lays out a dict, with kind,
# t_d and gamma_rate still to fill; json writes floats by repr, so the rate,
# then a and a finite t_d, go in by %r.  In the sweep summary each record is
# an item of a list, two spaces further in.
TD_RECORD = '{\n  "a": %%r,\n  "kind": "%s",\n  "t_d": %s,\n  "gamma_rate": %r\n}'
SUMMARY_RECORD = "  " + TD_RECORD.replace("\n", "\n  ")


def cmd_sweep(args: SimpleNamespace) -> int:
    if args.a_steps < 1 or args.t_steps < 1:
        raise ValueError("a_steps and t_steps must be at least 1")
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
    t_d = _death_times(death_time_s(a_grid), args.rate, args.natural_units)
    finite = np.isfinite(t_d)
    with np.errstate(over="ignore"):  # an overflowing time is reported below
        t_col = t_grid * args.rate if args.natural_units else t_grid
        gamma = np.exp(-0.5 * args.rate * t_grid)  # exactly 0 where rate*t overflows
    if not math.isfinite(t_col[-1]):
        raise NumericalError(f"time t_max*rate overflows at t_max {args.t_max!r}, "
                             f"rate {args.rate!r}")
    surface = family_concurrence(a_grid[:, None], gamma, gamma)
    # a in [0, 1] and the rate are finite, and t_d is finite where it is
    # reported, so no NaN or Infinity can reach the summary.
    finite_record = SUMMARY_RECORD % ("finite", "%r", args.rate)
    asymptotic_record = SUMMARY_RECORD % ("asymptotic", "null", args.rate)

    # Nothing is written until every number is in hand, and a failed write
    # removes both files, so a failed run leaves no output.  A block of a
    # values, at most STACK_BLOCK CSV rows or one a-row, gives its rows as
    # one % on a template holding the formatted a and t strings, and its
    # summary records as one % over the numbers they take: each a, then its
    # t_d where it is finite.
    pieces = ["", *[",%.17g,%%.17g\n" % t for t in t_col.tolist()]]
    records = [finite_record if fin else asymptotic_record for fin in finite.tolist()]
    numbers = np.stack([a_grid, t_d], axis=-1)
    taken = np.stack([np.ones_like(finite), finite], axis=-1)

    def block_text(block: slice) -> tuple[str, str]:
        template = "".join([("%.17g" % a).join(pieces) for a in a_grid[block].tolist()])
        return (template % tuple(surface[block].ravel().tolist()),
                ",\n".join(records[block]) % tuple(numbers[block][taken[block]].tolist()))

    a_rows = max(1, STACK_BLOCK // t_grid.size)
    texts = _fork_map(block_text, _blocks(a_grid.size, a_rows),
                      math.ceil(SWEEP_FORK_ROWS / (a_rows * t_grid.size)))
    spath = _summary_path(args.output)
    with contextlib.closing(texts):
        rows, summary = next(texts)  # the forks happen here, before any file is opened
        with _all_or_nothing() as create, create(args.output) as fh, create(spath) as sh:
            fh.write("a,t,concurrence\n" + rows)
            sh.write("[\n" + summary)
            for rows, summary in texts:
                fh.write(rows)
                sh.write(",\n" + summary)
            sh.write("\n]\n")
    print(f"wrote {args.output} ({a_grid.size * t_grid.size} rows) and {spath}")
    return 0


# ---------------------------------------------------------------- td

TD_SPEC: Spec = {
    "a": (_float, 1.0, "family parameter in [0, 1]"),
    "rate": (_float, 1.0, "damping rate"),
    "natural_units": (_parse_bool, True, "report times as rate*t"),
    "output": (str, None, "JSON path; stdout when unset"),
}


def cmd_td(args: SimpleNamespace) -> int:
    """Death time from the closed form; the bisection in esdkit.reference cross-checks it."""
    t_d = float(_death_times(death_time_s(args.a), args.rate, args.natural_units))
    # a is in [0, 1] and the rate finite, so no NaN or Infinity reaches the record.
    if t_d == math.inf:
        text = TD_RECORD % ("asymptotic", "null", args.rate) % args.a + "\n"
    else:
        text = TD_RECORD % ("finite", "%r", args.rate) % (args.a, t_d) + "\n"
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


# One row after its seed, which is inlined in the block's template.
BOUND_ROW = ",%.17g,%.17g,%.17g,%d,%.17g,%.17g\n"


def cmd_bound(args: SimpleNamespace) -> int:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    chunks = ["seed,gamma,lhs,rhs,satisfied,first_branch_gap,side_branch_max\n"]
    gammas = np.array(args.gammas)
    coeffs = DampingCoefficients(gammas, gammas)
    try:
        # Every check's numbers, filled block by block: a sample count too
        # large to hold fails here, before any state is drawn.
        table = np.empty((args.samples, gammas.size, 6))
    except ValueError as exc:  # beyond numpy's index range
        raise ValueError(f"samples={args.samples}: {exc}") from None
    seeds = range(args.seed, args.seed + args.samples)
    pieces = ["", *[BOUND_ROW] * gammas.size]

    def block_rows(block: slice) -> tuple[str, np.ndarray]:
        rhos = random_states(seeds[block])
        # Rows are seed-major, then gamma: the report arrays have shape (seeds, gammas).
        rep = check_bound(rhos[:, None], coeffs, slack=args.slack)
        rows = np.stack(np.broadcast_arrays(
            gammas, rep.lhs, rep.rhs, rep.satisfied, rep.first_branch_gap, rep.side_branch_max,
        ), axis=-1)
        # Seeds stay Python ints: a float column would round seeds above 2**53.
        template = "".join([("%d" % seed).join(pieces) for seed in seeds[block]])
        return template % tuple(rows.ravel().tolist()), rows

    # numpy loads numpy.random on first use: load it once, here, so that the
    # children forked below inherit it instead of each importing it again.
    import numpy.random  # noqa: F401

    # A block of checks takes milliseconds, more than a fork's round trip.
    blocks = _blocks(args.samples, max(1, STACK_BLOCK // gammas.size))
    with contextlib.closing(_fork_map(block_rows, blocks, 1)) as results:
        for block, (text, rows) in zip(blocks, results):
            chunks.append(text)
            table[block] = rows
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

def cmd_check(args: SimpleNamespace) -> int:
    # The probes and the cross-check routes they call load only for check.
    from .selfcheck import run_all

    results = run_all()
    failures = sum(not res.passed for res in results)
    for res in results:
        print(f"{'ok' if res.passed else 'FAIL'} - {res.name} ({res.detail})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 4 if failures else 0


# ---------------------------------------------------------------- parser

COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], Spec, str]] = {
    "evolve": (cmd_evolve, EVOLVE_SPEC, "trajectory CSV with Kraus vs master cross-check"),
    "sweep": (cmd_sweep, SWEEP_SPEC, "concurrence surface CSV + death-time summary JSON"),
    "td": (cmd_td, TD_SPEC, "death time for one family parameter (JSON)"),
    "bound": (cmd_bound, BOUND_SPEC, "decay-bound Monte Carlo over random states"),
    "check": (cmd_check, {}, "run the module invariant suites"),
}


class _Exit(Exception):
    """Parsing stops: help, exit 0, or a usage error, exit 2; the text says which."""

    def __init__(self, code: int, text: str) -> None:
        super().__init__(text)
        self.code = code


# Flag -> (option name, converter, value): a flag with a converter takes one
# value, a flag without one sets the option to its value.
Flags = dict[str, tuple[str, Callable[[str], Any] | None, Any]]


def _flags(spec: Spec) -> Flags:
    flags: Flags = {"-h": ("help", None, None), "--help": ("help", None, None)}
    if spec:
        flags["--config"] = ("config", str, None)
    for name, (convert, _default, _text) in spec.items():
        flag = "--" + name.replace("_", "-")
        if convert is _parse_bool:
            flags[flag], flags["--no-" + flag[2:]] = (name, None, True), (name, None, False)
        else:
            flags[flag] = (name, convert, None)
    return flags


def _help(command: str | None) -> str:
    """Usage line; then each command, or each flag with its help and default."""
    if command is None:
        lines = [f"usage: esdkit [-h] {{{','.join(COMMANDS)}}} ...", "",
                 "Two-qubit damping trajectories, concurrence, sudden death.", "", "commands:"]
        rows = [(name, text) for name, (_func, _spec, text) in COMMANDS.items()]
    else:
        _func, spec, about = COMMANDS[command]
        lines = [f"usage: esdkit {command} [-h] [--option VALUE ...]", "", about, "", "options:"]
        rows = [("-h, --help", "show this help and exit")]
        if spec:
            rows.append(("--config CONFIG", "key = value file; flags win over it"))
        for name, (convert, default, text) in spec.items():
            flag = "--" + name.replace("_", "-")
            flag += f", --no-{flag[2:]}" if convert is _parse_bool else f" {name.upper()}"
            rows.append((flag, text if default is None else f"{text} (default {default})"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(lines + [f"  {left:<{width}}{right}" for left, right in rows])


def _usage_error(command: str | None, message: str) -> _Exit:
    usage = _help(command).partition("\n")[0]
    prog = "esdkit" if command is None else f"esdkit {command}"
    return _Exit(2, f"{usage}\n{prog}: error: {message}")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _match(token: str, flags: Flags, command: str | None) -> str | None:
    """The flag a token names, "" for an unknown option, None for a value.

    Up to any "=value", a token names the flag it equals or, after "--",
    the one flag it is a prefix of; a prefix of several is a usage error.
    A number (-1e-3 too), "-" and a token with a space that names no flag
    are values, as is every token not starting with "-"."""
    if not token.startswith("-") or token == "-" or _is_number(token):
        return None
    name = token.partition("=")[0]
    if name in flags:
        return name
    long = len(name) > 2 and name.startswith("--")
    hits = [flag for flag in flags if flag.startswith(name)] if long else []
    if len(hits) > 1:
        raise _usage_error(command, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0]
    return None if " " in token else ""


def _act(tokens: list[str], flags: Flags, command: str | None, values: dict) -> list[str]:
    """Set values from the flags among tokens, in order, and return the
    tokens no flag takes.  Help raises _Exit(0); a missing or refused value
    raises _Exit(2).  Every token is matched before the first flag acts, so
    an ambiguous prefix is reported first."""
    matched = [_match(token, flags, command) for token in tokens]
    extras = []
    i = 0
    while i < len(tokens):
        token, flag = tokens[i], matched[i]
        i += 1
        if not flag:
            extras.append(token)
            continue
        name, convert, const = flags[flag]
        _name, eq, raw = token.partition("=")
        if convert is None:
            if eq:
                raise _usage_error(command, f"argument {flag}: ignored explicit argument {raw!r}")
            if name == "help":
                raise _Exit(0, _help(command))
            values[name] = const
            continue
        if not eq:
            if i == len(tokens) or matched[i] is not None:
                raise _usage_error(command, f"argument {flag}: expected one argument")
            raw = tokens[i]
            i += 1
        try:
            values[name] = convert(raw)
        except ValueError as exc:
            raise _usage_error(command, f"argument {flag}: {exc}") from None
    return extras


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv -> the command's options, each None where argv does not set it.

    esdkit [-h] COMMAND [OPTION ...]: the first value names the command.  An
    option is --name VALUE or --name=VALUE, or --name / --no-name for a
    boolean; a unique prefix of a flag names it, the last of repeated flags
    wins, and a number is always a value, -1e-3 too.  Unknown options and
    stray values are reported together, once every flag has acted.
    """
    top = _flags({})
    pos = next((i for i, token in enumerate(argv) if _match(token, top, None) is None),
               len(argv))
    extras = _act(argv[:pos], top, None, {})
    if pos == len(argv):
        raise _usage_error(None, "the following arguments are required: command")
    command = argv[pos]
    if command not in COMMANDS:
        raise _usage_error(None, f"argument command: invalid choice: {command!r} "
                                 f"(choose from {', '.join(map(repr, COMMANDS))})")
    func, spec, _text = COMMANDS[command]
    values: dict[str, Any] = {"config": None, **dict.fromkeys(spec)}
    extras += _act(argv[pos + 1:], _flags(spec), command, values)
    if extras:
        raise _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, func=func, spec=spec, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:
        print(exc, file=sys.stderr if exc.code else sys.stdout)
        return exc.code
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
