import ast
import dataclasses
import errno
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdkit import channel, cli, entanglement, memory, reference, selfcheck
from esdkit.channel import DampingCoefficients
from esdkit.entanglement import check_bound, concurrence, concurrence_x
from esdkit.errors import NumericalError
from esdkit.esd import death_time_s, family_concurrence
from esdkit.master import integrate_master
from esdkit.memory import (
    ExponentialKernel, coefficient_f, load_kernel_table, solve_amplitude, uniform_grid,
)
from esdkit.reference import apply_channel, family_trajectory
from esdkit.states import random_state, standard_family, xstate_to_dense
from esdkit.selfcheck import CheckResult
from test_esd import TD_ORACLE, mp_death_time

EVOLVE_HEADER = (
    "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
)

TD_A1 = TD_ORACLE[1.0]


def run(*argv: str) -> int:
    return cli.main(list(argv))


def load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def quoted(x: float) -> str:
    """x to the two significant digits docs/reproduction.md quotes."""
    return f"{x:.1e}"


# Run in a fresh interpreter: what importing esdkit.cli loads of the
# modules only some runs need, what was loaded at each fork (two usable CPUs
# claimed, so bound forks on any host), and what was loaded after the run.
IMPORT_PROBE = """
import os, sys
import esdkit.cli
def loaded():
    return [m for m in ("scipy", "numpy.random", "numpy.fft", "json") if m in sys.modules]
at_import, at_fork, fork = loaded(), [], os.fork
def logged_fork():
    at_fork.append(loaded())
    return fork()
os.fork, os.sched_getaffinity = logged_fork, lambda pid: {0, 1}
code = esdkit.cli.main(sys.argv[1:])
print(repr([at_import, at_fork, loaded()]))
sys.exit(code)
"""


def test_cli_import_needs_no_scipy_and_each_run_loads_only_what_it_uses(tmp_path):
    # numpy >= 2 loads numpy.random and numpy.fft on first attribute access,
    # so only bound (numpy.random, before it forks, so that its children
    # inherit it) and a table kernel (numpy.fft) load them; td and sweep
    # write their JSON from templates, and nothing needs scipy
    (tmp_path / "kern.txt").write_text("0 1 0\n0.001 1 0\n0.002 1 0\n")
    runs = {
        "evolve": ["evolve", "--t-max", "0.002"],
        "evolve --kernel-file": ["evolve", "--kernel-file", "kern.txt", "--t-max", "0.002",
                                 "--mem-tol", "inf"],
        "sweep": ["sweep", "--a-steps", "3", "--t-steps", "2"],
        "td": ["td"],
        "bound": ["bound", "--samples", "100"],
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    seen = {}
    for name, argv in runs.items():
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv, "--output", "out.csv"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                             check=True)
        seen[name] = ast.literal_eval(out.stdout.splitlines()[-1])
    assert seen == {
        "evolve": [[], [], []],
        "evolve --kernel-file": [[], [], ["numpy.fft"]],
        "sweep": [[], [], []],
        "td": [[], [], []],
        "bound": [[], [["numpy.random"]], ["numpy.random"]],
    }


LAYERS = ("linalg", "states", "channel", "entanglement", "memory", "master", "esd")


def esdkit_modules_after_import(module: str) -> set[str]:
    """The esdkit modules a fresh interpreter holds once it imports module."""
    probe = (
        f"import json, sys, {module}; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'esdkit')))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(out.stdout))


def test_cli_import_loads_every_layer_and_no_cross_check_code():
    loaded = esdkit_modules_after_import("esdkit.cli")
    assert {f"esdkit.{layer}" for layer in LAYERS} <= loaded
    assert not loaded & {"esdkit.reference", "esdkit.selfcheck"}


@pytest.mark.parametrize("module", ["esdkit.selfcheck", "esdkit.memory"])
def test_selfcheck_and_memory_import_no_cli(module):
    # the atom's rotating frame is formed in esdkit.memory, so neither the
    # amplitude solver nor the check suites reach into the CLI
    assert "esdkit.cli" not in esdkit_modules_after_import(module)


def imported_modules(node: ast.AST, package: str) -> set[str]:
    """Absolute names of the modules and package members an AST imports."""
    names = set()
    for imp in ast.walk(node):
        if isinstance(imp, ast.Import):
            names.update(alias.name for alias in imp.names)
        elif isinstance(imp, ast.ImportFrom):
            base = package if imp.level else ""
            base = ".".join(filter(None, [base, imp.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in imp.names)
    return names


def test_no_production_module_imports_the_cross_check_routes():
    pkg = Path(cli.__file__).resolve().parent
    for path in sorted(pkg.glob("*.py")):
        if path.stem in ("reference", "selfcheck"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "esdkit.reference" not in imported_modules(tree, "esdkit"), path.name
    # cli reaches selfcheck only inside cmd_check, when check runs.
    tree = ast.parse((pkg / "cli.py").read_text())
    cmd_check = next(s for s in tree.body
                     if isinstance(s, ast.FunctionDef) and s.name == "cmd_check")
    rest = ast.Module(body=[s for s in tree.body if s is not cmd_check], type_ignores=[])
    assert "esdkit.selfcheck" not in imported_modules(rest, "esdkit")
    assert "esdkit.selfcheck" in imported_modules(cmd_check, "esdkit")


def test_evolve_header_format_and_units(tmp_path):
    out = tmp_path / "run.csv"
    assert run("evolve", "--t-max", "0.5", "--output", str(out)) == 0
    text = out.read_bytes()
    assert b"\r" not in text
    lines = text.decode().splitlines()
    assert lines[0] == EVOLVE_HEADER
    # 17-significant-digit floats; bound_rhs at t = 0 is the exact initial value
    first = lines[1].split(",")
    assert first[5] == "0.66666666666666663"
    assert abs(float(first[1]) - 2.0 / 3.0) < 1e-12
    assert len(lines) == 502


def test_evolve_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ("evolve", "--a", "0.7", "--t-max", "0.5")
    assert run(*argv, "--output", str(first)) == 0
    assert run(*argv, "--output", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_evolve_death_point_and_cross_check(tmp_path):
    out = tmp_path / "death.csv"
    assert run("evolve", "--output", str(out)) == 0
    data = load_csv(out)
    t, conc = data[:, 0], data[:, 1]
    trace_err, bound_rhs, maxdiff = data[:, 4], data[:, 5], data[:, 6]
    dead = conc == 0.0
    assert dead.any()
    first_zero = t[np.argmax(dead)]
    assert abs(first_zero - TD_A1) < 2e-3
    # once dead, dead for good
    assert np.all(conc[np.argmax(dead):] == 0.0)
    assert np.max(trace_err) <= 4 * np.finfo(float).eps
    assert np.max(maxdiff) < 1e-8
    assert np.all(conc <= bound_rhs + 1e-10)


@pytest.mark.parametrize("omega_a", ["50", "300", "1000", "3000", "1e308"])
def test_evolve_markov_cross_check_ignores_detuning(tmp_path, omega_a):
    # the atom frequencies only turn local phases, which the master's frame
    # strips exactly: however far the atoms are detuned, the Markov
    # cross-check stays at round-off and nothing overflows
    out = tmp_path / "evolve.csv"
    assert run("evolve", "--omega-a", omega_a, "--omega-b", "0", "--output", str(out)) == 0
    assert np.max(load_csv(out)[:, 6]) <= 1e-13


def test_evolve_without_death_is_exponential(tmp_path):
    out = tmp_path / "a0.csv"
    assert run("evolve", "--a", "0", "--t-max", "2", "--output", str(out)) == 0
    data = load_csv(out)
    want = (2.0 / 3.0) * np.exp(-data[:, 0])
    np.testing.assert_allclose(data[:, 1], want, atol=1e-8)
    assert np.all(data[:, 1] > 0.0)


def test_evolve_fast_reservoir_close_to_markov(tmp_path):
    mark = tmp_path / "markov.csv"
    kern = tmp_path / "kernel.csv"
    assert run("evolve", "--t-max", "1", "--output", str(mark)) == 0
    c_mark = load_csv(mark)[:, 1]
    # the default amplitude step, then the near-Markov run of
    # docs/reproduction.md, whose gap it quotes as "1.8 percent measured"
    gaps = []
    for mem_dt in ((), ("--mem-dt", "1e-5")):
        assert run(
            "evolve", "--t-max", "1", "--memory-rate", "1000", *mem_dt, "--output", str(kern)
        ) == 0
        gaps.append(np.max(np.abs(load_csv(kern)[:, 1] - c_mark)) / np.max(c_mark))
    assert max(gaps) < 0.02
    assert f"{100 * gaps[1]:.1f}" == "1.8"


def test_fastest_reservoir_is_the_markov_limit(tmp_path):
    # memory rate 1e308 is the memoryless limit: |b| is e^{-t/2} to rounding.
    # Re F jumps from 0 to 1/2 inside the master's first stage, so maxdiff
    # reads the master's own error on that step (measured 1.1e-4 at t = dt),
    # not the amplitude's
    out = tmp_path / "fast.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--memory-rate", "1e308", "--output", str(out)) == 0
    data = load_csv(out)
    assert data.shape == (3001, 7)
    assert np.max(np.abs(data[:, 2:4] - np.exp(-0.5 * data[:, :1]))) <= 1.2e-16
    assert np.argmax(data[:, 6]) == 1
    assert quoted(np.max(data[:, 6])) == "1.1e-04"


@pytest.mark.parametrize("memory_rate", [1e-3, 5.0, 1e4, 1e8])
def test_memory_rates_solve_the_stages_at_any_memory_rate(monkeypatch, memory_rate):
    # a single pole is solved exactly at the master's 2n + 1 stages, however
    # fast its memory decays: no grid sized by the memory rate
    sizes = []

    def recording(kernel, t_max, dt, omega, tol):
        sol = solve_amplitude(kernel, t_max, dt, omega, tol=tol)
        sizes.append(sol.t.size)
        return sol

    monkeypatch.setattr(cli, "solve_amplitude", recording)
    args = SimpleNamespace(kernel_file=None, memory_rate=memory_rate, rate=1.0, mem_dt=None,
                           dt=1e-3, t_max=3.0, mem_tol=1e-8, omega_a=1.0, omega_b=1.3,
                           kernel_center=0.0)
    re_f, re_g, ga, gb = cli._memory_rates(args)
    assert sizes == [6001, 6001]
    assert re_f.shape == re_g.shape == (6001,) and ga.shape == gb.shape == (3001,)


def test_backflow_runs_and_strong_coupling_exits_3(tmp_path, capsys):
    # memory rate 5 > 2 x strength 1 is weak coupling; detuned by 30, Re F
    # dips below zero (backflow, min -2.389e-02), and the run is valid with
    # warnings as errors.  Strong coupling is refused by the master's
    # positivity check, not by the sign of Re F
    argv = ("--memory-rate", "5", "--omega-a", "30", "--omega-b", "30", "--mem-dt", "2e-5")
    args = SimpleNamespace(kernel_file=None, memory_rate=5.0, rate=1.0, mem_dt=2e-5,
                           dt=1e-3, t_max=3.0, mem_tol=1e-8, omega_a=30.0, omega_b=30.0,
                           kernel_center=0.0)
    assert f"{np.min(cli._memory_rates(args)[0]):.3e}" == "-2.389e-02"
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", *argv, "--output", str(out)) == 0
        out.unlink()
        for strong in (("--memory-rate", "1", "--t-max", "6"),
                       ("--rate", "100", "--memory-rate", "50", "--t-max", "0.3")):
            capsys.readouterr()
            assert run("evolve", *strong, "--omega-a", "0", "--omega-b", "0",
                       "--output", str(out)) == 3
            assert capsys.readouterr().err.startswith(
                "numerical failure: integration produced eigenvalue -")
            assert not out.exists()


def test_evolve_kernel_file_round_trip(tmp_path):
    kernel = ExponentialKernel(1.0, 5.0)
    tau = np.arange(1001) * 1e-3
    alpha = kernel.evaluate(tau)
    table = tmp_path / "ktab.dat"
    rows = ["# tau alpha_re alpha_im"]
    rows += [f"{t:.17e} {a.real:.17e} {a.imag:.17e}" for t, a in zip(tau, alpha)]
    table.write_text("\n".join(rows) + "\n")

    from_table = tmp_path / "table.csv"
    from_pole = tmp_path / "pole.csv"
    assert run(
        "evolve", "--t-max", "1", "--kernel-file", str(table),
        "--mem-tol", "1e-3", "--output", str(from_table),
    ) == 0
    assert run(
        "evolve", "--t-max", "1", "--memory-rate", "5", "--output", str(from_pole)
    ) == 0
    c_table = load_csv(from_table)[:, 1]
    c_pole = load_csv(from_pole)[:, 1]
    assert np.max(np.abs(c_table - c_pole)) < 1e-4


def write_table(path, tau, alpha) -> None:
    rows = ["# tau alpha_re alpha_im"]
    rows += [f"{t:.17e} {a.real:.17e} {a.imag:.17e}" for t, a in zip(tau, alpha)]
    path.write_text("\n".join(rows) + "\n")


def test_tabulated_kernel_matches_exponential_and_gates(tmp_path, capsys):
    # the tabulated/exponential recipe of docs/reproduction.md
    tau = np.arange(0, 1.0 + 5e-4, 1e-3)
    table = tmp_path / "kern.txt"
    write_table(table, tau, ExponentialKernel(1.0, 5.0, 0.0).evaluate(tau))
    tab, pole = tmp_path / "tab.csv", tmp_path / "exp.csv"
    common = ("evolve", "--a", "1", "--t-max", "1", "--mem-dt", "1e-3")
    assert run(*common, "--kernel-file", str(table), "--mem-tol", "1e-3",
               "--output", str(tab)) == 0
    assert run(*common, "--memory-rate", "5", "--output", str(pole)) == 0
    gap = np.max(np.abs(load_csv(tab) - load_csv(pole)), axis=0)
    assert np.all(gap[1:4] < 1e-6)  # concurrence, local_coh_A, local_coh_B
    assert [quoted(g) for g in gap[1:4]] == ["3.7e-07", "5.5e-07", "5.5e-07"]
    capsys.readouterr()
    # without --mem-tol the default 1e-8 gate rejects the 1e-3 table step
    assert run(*common, "--kernel-file", str(table),
               "--output", str(tmp_path / "gated.csv")) == 3
    assert "accumulated local-error" in capsys.readouterr().err


def lab_frame_pair(lam: float, centre: float, omega: float, dt: float,
                   rows: int) -> tuple[np.ndarray, np.ndarray]:
    """b and z at k dt, k < rows, of the lab-frame pair b' = -i omega b - z,
    z' = (lam/2) b - (lam + i centre) z, (b, z)(0) = (1, 0): strength 1, an
    atom at omega, stepped by its exact propagator expm(m dt) in 30 digits.
    The decay coefficient is F = -(b' + i omega b)/b = z/b."""
    with mpmath.workdps(30):
        m = mpmath.matrix([[-1j * omega, -1], [0.5 * lam, -(lam + 1j * centre)]])
        step, y, out = mpmath.expm(m * dt), mpmath.matrix([1, 0]), []
        for _ in range(rows):
            out.append((complex(y[0]), complex(y[1])))
            y = step * y
    return tuple(np.array(out).T)


@pytest.mark.parametrize("omega", ["100", "1000"])
def test_resonant_memory_run_is_the_zero_frequency_run(tmp_path, omega):
    # each amplitude is solved in its atom's rotating frame, where an atom at
    # the reservoir centre reads the kernel at zero detuning whatever omega is
    runs = {}
    for w in ("0", omega):
        out = tmp_path / f"res{w}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("evolve", "--memory-rate", "5", "--omega-a", w, "--omega-b", w,
                       "--kernel-center", w, "--output", str(out)) == 0
        runs[w] = out.read_bytes()
    assert runs[omega] == runs["0"]


@settings(max_examples=25, deadline=None)
@given(omega=st.floats(-1e3, 1e3), detuning=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
       log_lam=st.floats(-3.0, 8.0))
@example(omega=1e3, detuning=0.0, log_lam=np.log10(5.0))
@example(omega=-1e3, detuning=15.0, log_lam=np.log10(5.0))
@example(omega=0.0, detuning=0.0, log_lam=8.0)
def test_memory_rates_match_the_lab_frame_pair(omega, detuning, log_lam):
    # |b| and Re F of evolve's solve, in each atom's rotating frame, against
    # the exact lab-frame amplitude: rounding apart at any frequency and any
    # memory rate from 1e-3 to 1e8, on resonance and detuned, with no warning
    lam = 10.0 ** log_lam
    args = SimpleNamespace(kernel_file=None, memory_rate=lam, rate=1.0, mem_dt=None,
                           dt=1e-3, t_max=2.0, mem_tol=1e-8, omega_a=omega, omega_b=omega,
                           kernel_center=omega + detuning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        re_f, _, gamma, _ = cli._memory_rates(args)
    b, z = lab_frame_pair(lam, args.kernel_center, omega, 0.25, 9)
    assert np.max(np.abs(gamma[::250] - np.abs(b))) < 1e-12
    assert np.max(np.abs(re_f[::500] - (z / b).real)) < 1e-12


def test_tabulated_rotation_refuses_an_aliasing_step(tmp_path, capsys):
    # the table recipe of docs/reproduction.md: below pi rad per amplitude
    # step the rotated table stays near the exact solution; from pi rad on
    # its samples alias onto another detuning, and the run exits 3
    tau = np.arange(0, 1.0 + 5e-4, 1e-3)
    table = tmp_path / "kern.txt"
    write_table(table, tau, ExponentialKernel(1.0, 5.0, 0.0).evaluate(tau))
    common = ("evolve", "--a", "1", "--kernel-file", str(table), "--t-max", "1",
              "--mem-dt", "1e-3", "--mem-tol", "1e-3")
    out = tmp_path / "tab.csv"
    for omega in ("30", "100", "1000"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*common, "--omega-a", omega, "--omega-b", omega,
                       "--output", str(out)) == 0
        b, _ = lab_frame_pair(5.0, 0.0, float(omega), 1e-3, 1001)
        assert np.max(np.abs(load_csv(out)[:, 2:4] - np.abs(b)[:, None])) < 2.1e-7
    out.unlink()
    capsys.readouterr()
    for omega in ("1e5", "1e308"):
        assert run(*common, "--omega-a", omega, "--output", str(out)) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: step too coarse: at omega {float(omega)!r} the rotating "
            f"frame turns the kernel {float(omega) * 5e-4:.3g} rad per amplitude step "
            "0.0005, and pi rad aliases; reduce --mem-dt\n")
        assert not out.exists()


@pytest.mark.parametrize("t_max, extra", [("0.001", ("--dt", "0.001")), ("0.002", ())])
def test_one_step_amplitude_grid_runs(tmp_path, t_max, extra):
    # --mem-dt = --t-max asks for one amplitude step; the solve takes the
    # master's two half steps per step, and every row is a solved point
    out = tmp_path / "one.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--memory-rate", "5", "--t-max", t_max, "--mem-dt", t_max,
                   *extra, "--output", str(out)) == 0
    rows = load_csv(out)
    fine = solve_amplitude(ExponentialKernel(1.0, 5.0, -1.0), float(t_max), 1e-6)
    gamma = np.interp(rows[:, 0], fine.t, fine.gamma)
    assert np.max(np.abs(rows[:, 2:4] - gamma[:, None])) < 1e-6


def test_evolve_memory_runs_take_no_differences(tmp_path, monkeypatch):
    # f and gamma come from the solver's own b and db/dt; the centered
    # differences serve only volterra_residual
    def refuse(sol):
        raise AssertionError("evolve differentiated b")

    monkeypatch.setattr(reference, "_bdot", refuse)
    tau = np.arange(0, 1.0 + 5e-4, 1e-3)
    table = tmp_path / "kern.txt"
    write_table(table, tau, ExponentialKernel(1.0, 5.0, 0.0).evaluate(tau))
    assert run("evolve", "--memory-rate", "5", "--mem-dt", "1e-3",
               "--output", str(tmp_path / "pole.csv")) == 0
    assert run("evolve", "--a", "1", "--kernel-file", str(table), "--t-max", "1",
               "--mem-dt", "1e-3", "--mem-tol", "1e-3", "--output", str(tmp_path / "tab.csv")) == 0


def clipped_abs_b(sol) -> np.ndarray:
    gamma = np.abs(sol.b)
    gamma[(gamma > 1.0) & (gamma <= 1.0 + memory.CONTRACTIVITY_SLACK)] = 1.0
    return gamma


@pytest.mark.parametrize("source", ["pole", "table"])
def test_evolve_local_coherences_are_the_solved_abs_b(tmp_path, source):
    # --mem-dt 1e-3 at dt 1e-3 solves at dt/2: every second point is a row
    grid = uniform_grid(1.0, 1e-3)
    argv = ["--t-max", "1", "--mem-dt", "1e-3", "--omega-b", "1.3"]
    if source == "pole":
        kernel, tol = ExponentialKernel(1.0, 5.0), 1e-8
        argv += ["--memory-rate", "5"]
    else:
        table = tmp_path / "kern.txt"
        write_table(table, grid, ExponentialKernel(1.0, 5.0, 0.5).evaluate(grid))
        kernel, tol = load_kernel_table(table), 1e-3
        argv += ["--kernel-file", str(table), "--mem-tol", "1e-3"]
    out = tmp_path / "evolve.csv"
    assert run("evolve", *argv, "--output", str(out)) == 0
    rows = load_csv(out)
    for col, omega in ((2, 1.0), (3, 1.3)):
        sol = solve_amplitude(kernel, 1.0, 5e-4, omega, tol=tol)
        assert np.array_equal(rows[:, col], clipped_abs_b(sol)[::2])


def largest_maxdiff(tmp_path, *argv) -> float:
    out = tmp_path / "evolve.csv"
    assert run("evolve", *argv, "--output", str(out)) == 0
    return float(np.max(load_csv(out)[:, 6]))


@pytest.mark.parametrize("argv", [
    ["--memory-rate", "5", "--mem-dt", "1e-3"],
    ["--memory-rate", "5", "--mem-dt", "2e-4"],
    ["--memory-rate", "5", "--omega-b", "1.3"],
])
def test_evolve_memory_maxdiff_is_at_round_off(tmp_path, argv):
    # the master reads Re f at its stages off the amplitude solve, so on a
    # smooth kernel it meets the image from |b| to round-off (measured 2.7e-14,
    # 2.7e-14 and 2.7e-14)
    assert largest_maxdiff(tmp_path, *argv) <= 1e-12


def test_evolve_memory_maxdiff_does_not_depend_on_the_amplitude_grid(tmp_path):
    # every amplitude grid holds the exact |b| and Re F at the master's
    # stages, so maxdiff is the master's own error whatever --mem-dt asks
    # (measured 2.712e-14 on each grid).  The same scalar RK4 recursion in
    # 30-digit arithmetic on the exact F has truncation error 2.583e-14; the
    # float master is within 1.7e-15 of it and the image within 5.3e-16 of
    # the exact state, which covers the 1.3e-15 between the two
    maxdiff = [largest_maxdiff(tmp_path, "--memory-rate", "5", "--mem-dt", mem_dt)
               for mem_dt in ("1e-3", "2e-4", "1e-5")]
    assert max(maxdiff) - min(maxdiff) <= 1e-15
    assert quoted(maxdiff[0]) == "2.7e-14"


def test_evolve_memory_maxdiff_is_the_masters_fourth_order_error(tmp_path):
    # the image is built from |b|, the master from f: two routes, whose gap
    # at memory rate 1000 is the master's own RK4 error.  The amplitude grid
    # (step 1e-5) is the same at every dt; halving dt divides the gap by
    # about 16 (2.25e-7, 1.44e-8, 9.0e-10; docs/reproduction.md).
    argv = ("--a", "1", "--memory-rate", "1000", "--t-max", "1", "--mem-dt", "1e-5")
    maxdiff = [largest_maxdiff(tmp_path, *argv, "--dt", dt) for dt in ("1e-3", "5e-4")]
    assert 1e-9 < maxdiff[0] < 1e-6
    assert 12.0 <= maxdiff[0] / maxdiff[1] <= 20.0
    assert [quoted(m) for m in maxdiff] == ["2.2e-07", "1.4e-08"]


def test_evolve_master_rates_are_strided_off_the_solve(tmp_path, monkeypatch):
    # --mem-dt 2e-4 at dt 1e-3 solves at (dt/2)/3, the least divisor of dt/2
    # at most 2e-4: the master gets every third solved Re f, bit for bit
    got = []

    def capture(rho0, re_f, re_g, t_max, dt):
        got.extend((re_f, re_g))
        return integrate_master(rho0, re_f, re_g, t_max, dt)

    monkeypatch.setattr(cli, "integrate_master", capture)
    assert run("evolve", "--memory-rate", "5", "--mem-dt", "2e-4", "--omega-b", "1.3",
               "--output", str(tmp_path / "evolve.csv")) == 0
    for rates, omega in zip(got, (1.0, 1.3)):
        f = coefficient_f(solve_amplitude(ExponentialKernel(1.0, 5.0, -omega), 3.0, 5e-4 / 3))
        assert rates.shape == (6001,)
        assert rates.tobytes() == f.real[::3].tobytes()


def assert_bad_kernel_row(tmp_path, capsys, row) -> None:
    """A table whose third line is row exits 2 naming the file and line 3."""
    table = tmp_path / "bad.dat"
    table.write_text(f"# tau re im\n0.0 1.0 0.0\n{row}\n0.2 0.5 0.0\n")
    out = tmp_path / "x.csv"
    code = run("evolve", "--t-max", "0.2", "--kernel-file", str(table), "--output", str(out))
    assert code == 2
    assert capsys.readouterr().err == (f"error: kernel table {table} line 3: expected three "
                                       f"finite numbers 'tau alpha_re alpha_im', got '{row}'\n")
    assert not out.exists()


@pytest.mark.parametrize("row", ["0.1 nan 0.0", "inf 0.5 0.0"])
def test_evolve_non_finite_kernel_table_exit_2(tmp_path, capsys, row):
    assert_bad_kernel_row(tmp_path, capsys, row)


@pytest.mark.parametrize("row", ["0.1 0.5 0.0 9", "0.1 0.5", "0.1 x 0.0"])
def test_evolve_ragged_or_wordy_kernel_table_exit_2(tmp_path, capsys, row):
    assert_bad_kernel_row(tmp_path, capsys, row)


@pytest.mark.parametrize("rows, argv, message", [
    ("0 1 0\n0.1 1 0\n0.3 1 0\n", [], ": tau grid must be uniform and increasing"),
    ("0.1 1 0\n0.2 1 0\n", [], ": tau grid must start at 0, got 0.1"),
    ("0 1 0\n0.1 1 0\n0.2 1 0\n", ["--t-max", "1"],
     " covers tau <= 0.2, but the solve needs 1"),
])
def test_evolve_kernel_table_refusals_name_the_file(tmp_path, capsys, rows, argv, message):
    table = tmp_path / "kern.txt"
    table.write_text(rows)
    out = tmp_path / "x.csv"
    assert run("evolve", "--kernel-file", str(table), *argv, "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: kernel table {table}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["--t-max", "inf"], "t_max=inf"),
    (["--memory-rate", "inf"], "(1.0, inf, 0.0) must be finite"),
    (["--rate", "nan"], "rate must be finite and non-negative, got nan"),
    (["--rate", "inf"], "rate must be finite and non-negative, got inf"),
    (["--rate", "-1"], "rate must be finite and non-negative, got -1.0"),
    (["--rate", "-inf"], "rate must be finite and non-negative, got -inf"),
    (["--omega-a", "nan"], "omega_a=nan"),
    (["--omega-b", "inf"], "omega_b=inf"),
    (["--memory-rate", "5", "--mem-tol", "nan"],
     "tol must be non-negative (inf skips the gate), got nan"),
])
def test_evolve_non_finite_numbers_exit_2(tmp_path, capsys, argv, value):
    out = tmp_path / "x.csv"
    code = run("evolve", *argv, "--output", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert value in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mem_dt", ["0", "-1", "inf", "nan"])
def test_evolve_bad_mem_dt_exit_2(tmp_path, capsys, mem_dt):
    out = tmp_path / "x.csv"
    code = run("evolve", "--memory-rate", "5", "--mem-dt", mem_dt, "--output", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"mem_dt must be finite and positive, got {float(mem_dt)}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kernel", [[], ["--memory-rate", "5"]], ids=["markov", "memory"])
@pytest.mark.parametrize("argv, message", [
    (["--mem-tol", "-1"], "mem_tol must be non-negative (inf skips the gate), got -1.0"),
    (["--mem-tol", "nan"], "mem_tol must be non-negative (inf skips the gate), got nan"),
    (["--kernel-center", "nan"], "kernel_center must be finite, got nan"),
    (["--kernel-center", "-inf"], "kernel_center must be finite, got -inf"),
])
def test_evolve_bad_mem_tol_or_kernel_center_exit_2_on_every_run(tmp_path, capsys, kernel,
                                                                 argv, message):
    # refused like a bad --mem-dt, whether or not a memory kernel reads them
    out = tmp_path / "x.csv"
    code = run("evolve", *kernel, *argv, "--output", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "# tau re im\n# no rows\n"])
def test_evolve_empty_kernel_table_exit_2(tmp_path, capsys, text):
    table = tmp_path / "empty.dat"
    table.write_text(text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("evolve", "--kernel-file", str(table), "--output", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: kernel table {table} has 0 data rows; at least 2 are needed\n"
    assert not out.exists()


def test_evolve_one_row_kernel_table_exit_2(tmp_path, capsys):
    # one row is no grid: the refusal counts the rows, not the arrays they make
    table = tmp_path / "one.txt"
    table.write_text("0 1 0\n")
    out = tmp_path / "x.csv"
    assert run("evolve", "--kernel-file", str(table), "--output", str(out)) == 2
    assert capsys.readouterr().err == (f"error: kernel table {table} has 1 data row; "
                                       f"at least 2 are needed\n")
    assert not out.exists()


def test_evolve_rejects_conflicting_kernel_options(tmp_path, capsys):
    code = run(
        "evolve", "--memory-rate", "5", "--kernel-file", "x.dat",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["2", "5e-324", "0", "1e308"])
def test_evolve_refuses_rate_with_kernel_file(tmp_path, capsys, rate):
    # a table sets its own decay strength, so --rate would only rescale the
    # t column; anything but the default 1 is refused
    table = tmp_path / "two.txt"
    table.write_text("0 1 0\n0.001 1 0\n")
    out = tmp_path / "x.csv"
    assert run("evolve", "--kernel-file", str(table), "--rate", rate, "--output", str(out)) == 2
    assert capsys.readouterr().err == "error: choose either --rate or --kernel-file, not both\n"
    assert not out.exists()
    argv = ["--kernel-file", str(table), "--mem-tol", "inf", "--t-max", "0.001", "--dt", "0.001"]
    assert run("evolve", *argv, "--rate", "1", "--output", str(out)) == 0


@pytest.mark.parametrize("center", ["5", "-1e-3", "1e308"])
def test_evolve_refuses_kernel_center_with_kernel_file(tmp_path, capsys, center):
    # a table holds its own center, so a --kernel-center other than 0 would
    # be dropped; refused like --memory-rate with --kernel-file
    table = tmp_path / "two.txt"
    table.write_text("0 1 0\n0.001 1 0\n")
    out = tmp_path / "x.csv"
    code = run("evolve", "--kernel-file", str(table), "--kernel-center", center,
               "--output", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: choose either --kernel-center or --kernel-file, not both\n")
    assert not out.exists()
    # 0, the default, and -0.0 are no center; a Markov run checks the value
    # and reads it, as before
    for argv in (["--kernel-file", str(table), "--mem-tol", "inf", "--kernel-center", "-0.0"],
                 ["--kernel-center", center]):
        assert run("evolve", *argv, "--t-max", "0.001", "--dt", "0.001", "--output", str(out)) == 0
        out.unlink()


def test_sweep_surface_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--a-min", "0.3", "--a-max", "0.4", "--a-steps", "6",
        "--t-max", "2", "--t-steps", "40", "--output", str(out),
    ) == 0
    data = load_csv(out)
    assert data.shape == (240, 3)
    assert data[0, 2] == pytest.approx(
        (2.0 / 3.0) * (1.0 - np.sqrt(0.3 * 0.7)), abs=1e-12
    )
    with open(tmp_path / "sweep_summary.json") as fh:
        summary = json.load(fh)
    by_a = {round(row["a"], 2): row for row in summary}
    assert by_a[0.3]["kind"] == "asymptotic" and by_a[0.3]["t_d"] is None
    assert by_a[0.32]["kind"] == "asymptotic"
    assert by_a[0.34]["kind"] == "finite"
    assert abs(by_a[0.34]["t_d"] - mp_death_time(by_a[0.34]["a"])) <= 2e-15 * by_a[0.34]["t_d"]
    assert all(row["gamma_rate"] == 1.0 for row in summary)


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run(
        "sweep", "--a-min", "1", "--a-max", "1", "--a-steps", "1",
        "--t-max", "1", "--t-steps", "1", "--output", str(out),
    ) == 0
    data = load_csv(out)
    assert data.shape == (1, 3)
    with open(tmp_path / "one_summary.json") as fh:
        summary = json.load(fh)
    assert len(summary) == 1
    assert abs(summary[0]["t_d"] - TD_A1) < 1e-6


def test_td_both_methods(capsys):
    assert run("td", "--a", "0.6666666666666666") == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["kind"] == "finite"
    assert abs(exact["t_d"] - np.log(2.0)) < 1e-12
    assert run("td", "--a", "0.2") == 0
    asym = json.loads(capsys.readouterr().out)
    assert asym["kind"] == "asymptotic" and asym["t_d"] is None


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this study\na = 0.6666666666666666\n")
    assert run("td", "--config", str(cfg)) == 0
    from_cfg = json.loads(capsys.readouterr().out)
    assert abs(from_cfg["t_d"] - np.log(2.0)) < 1e-12
    assert run("td", "--config", str(cfg), "--a", "1") == 0
    flag_wins = json.loads(capsys.readouterr().out)
    assert abs(flag_wins["t_d"] - TD_A1) < 1e-12
    old = tmp_path / "method.cfg"
    old.write_text("method = exact\n")
    assert run("td", "--config", str(old)) == 2
    assert capsys.readouterr().err == f"error: {old}: unknown config keys: method\n"


def test_option_tables_give_flags_config_keys_and_defaults(tmp_path):
    for command, (func, spec, _help) in cli.COMMANDS.items():
        args = cli.parse_args([command])
        cli._resolve(args, spec)
        assert args.func is func
        assert {name: getattr(args, name) for name in spec} == {
            name: default for name, (_convert, default, _text) in spec.items()
        }
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a-steps = 7\nnatural_units = off\n")
    args = cli.parse_args(["sweep", "--config", str(cfg), "--t-steps", "5"])
    cli._resolve(args, cli.SWEEP_SPEC)
    assert (args.a_steps, args.natural_units, args.t_steps, args.rate) == (7, False, 5, 1.0)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run("td", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: bogus\n"
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    assert run("td", "--config", str(noeq)) == 2
    # a value that is not a number names the file and the key
    for command, line, message in [
        ("bound", "samples = 1e3", "samples: invalid literal for int() with base 10: '1e3'"),
        ("td", "a = x", "a: could not convert string to float: 'x'"),
    ]:
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(command, "--config", str(cfg), "--output", str(out)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()


def test_bound_monte_carlo(tmp_path):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "40", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,gamma,lhs,rhs,satisfied,first_branch_gap,side_branch_max"
    assert lines[-1].startswith("# satisfied 120/120")
    data = load_csv(out)
    assert data.shape == (120, 7)
    assert np.all(data[:, 4] == 1.0)
    assert np.all(data[:, 2] <= data[:, 3] + 1e-10)


def test_bound_documented_branch_gaps(tmp_path):
    # docs/reproduction.md: over bound --samples 1000 --seed 0 the largest
    # first-branch equality gap is 3.2e-13 and the largest side-branch
    # concurrence 1.3e-16
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "1000", "--seed", "0", "--output", str(out)) == 0
    data = load_csv(out)
    assert data.shape == (3000, 7)
    assert [quoted(np.max(data[:, col])) for col in (5, 6)] == ["3.2e-13", "1.3e-16"]


def test_bound_custom_gammas(tmp_path):
    out = tmp_path / "bound2.csv"
    assert run(
        "bound", "--samples", "10", "--seed", "5", "--gammas", "1.0,0.25",
        "--output", str(out),
    ) == 0
    data = load_csv(out)
    assert data.shape == (20, 7)
    assert set(np.unique(data[:, 1])) == {0.25, 1.0}
    assert data[0, 0] == 5.0


@pytest.mark.parametrize("gammas, reason", [
    ("2", "gamma 2.0 outside [0, 1]"),
    ("0.5,abc", "bad gamma list '0.5,abc'"),
])
def test_bad_gammas_name_the_reason_by_flag_and_by_config(tmp_path, capsys, gammas, reason):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "2", "--gammas", gammas, "--output", str(out)) == 2
    assert capsys.readouterr().err.endswith(f"error: argument --gammas: {reason}\n")
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"gammas = {gammas}\n")
    assert run("bound", "--samples", "2", "--config", str(cfg), "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: {cfg}: gammas: {reason}\n"
    assert not out.exists()


# Every check probe runs a route the subcommands run.
CHECK_NAMES = [
    "states: standard family is a valid state for all a",
    "entanglement: Bell gives 1 and product states give 0",
    "entanglement: Hermitian route matches the X closed form",
    "entanglement: concurrence is local-unitary invariant",
    "entanglement: decay bound holds on random states",
    "memory: an atom at the kernel centre sees the resonant closed form",
    "memory: broad kernel approaches the Markov law",
    "memory: gamma equals |b|",
    "memory: residual diagnostic converges at second order",
    "master: trace and Hermiticity are conserved",
    "master: Markov evolution matches the channel",
    "esd: bisection agrees with the closed form",
    "esd: concurrence stays exactly zero past death",
    "esd: finite death starts above one third",
]


def test_check_reports_all_suites(capsys):
    assert run("check") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    names = [re.sub(r" \(.*\)$", "", ln.removeprefix("ok - ")) for ln in out.splitlines()[:-1]]
    assert names == CHECK_NAMES
    assert out.splitlines()[-1] == f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed"


def test_check_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(
        selfcheck, "run_all", lambda: [CheckResult(name="forced", passed=False, detail="x")]
    )
    assert run("check") == 4
    out = capsys.readouterr().out
    assert "FAIL - forced" in out
    assert "0/1 checks passed" in out


def test_resonant_frame_probe_fails_on_lab_frame_kernels(monkeypatch):
    # solved with no atom frequency, the kernels stay detuned by 50 and the
    # probe fails
    assert selfcheck.check_memory_resonant_frame()[0]
    solve = selfcheck.solve_amplitude
    monkeypatch.setattr(selfcheck, "solve_amplitude",
                        lambda kernel, t_max, dt, omega, tol: solve(kernel, t_max, dt, tol=tol))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passed, detail = selfcheck.check_memory_resonant_frame()
    assert not passed
    assert detail == "gap to the closed form 6.18e-01 (pole), 6.18e-01 (table)"


def test_stacked_bound_check_names_the_first_violation(monkeypatch):
    # check_bound_random makes one call on 200 seeds x 3 gammas; a violation
    # is reported at the first (seed, gamma) in seed-major order.
    real = selfcheck.check_bound

    def forced(rho, c, **kw):
        rep = real(rho, c, **kw)
        satisfied = rep.satisfied.copy()
        satisfied[7, 0] = satisfied[5, 2] = satisfied[5, 1] = False
        return dataclasses.replace(rep, satisfied=satisfied)

    assert selfcheck.check_bound_random()[0]
    monkeypatch.setattr(selfcheck, "check_bound", forced)
    passed, detail = selfcheck.check_bound_random()
    assert not passed
    assert detail.startswith("violated at seed 5, gamma 0.5: gap ")


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert run("evolve", "--a", "2", "--output", str(tmp_path / "x.csv")) == 2
    assert run("evolve", "--kernel-file", str(tmp_path / "missing.dat"),
               "--output", str(tmp_path / "y.csv")) == 2
    assert run("sweep", "--a-steps", "0", "--output", str(tmp_path / "z.csv")) == 2
    assert run("evolve", "--frobnicate") == 2
    assert run("td", "--method", "smooth") == 2
    capsys.readouterr()


def test_sweep_threshold_zoom(tmp_path):
    # the first 1e-7 above a = 1/3, where t_d runs away as ln(1/(3a - 1))
    out = tmp_path / "s.csv"
    assert run("sweep", "--a-min", "0.3333333", "--a-max", "0.3333334",
               "--a-steps", "11", "--output", str(out)) == 0
    summary = json.loads((tmp_path / "s_summary.json").read_text())
    assert len(summary) == 11
    for row in summary:
        finite = Fraction(row["a"]) > Fraction(1, 3)
        assert row["kind"] == ("finite" if finite else "asymptotic")
        if finite:
            want = mp_death_time(row["a"])
            assert abs(row["t_d"] - want) <= 1e-12 * want
        else:
            assert row["t_d"] is None
    assert summary[-1]["kind"] == "finite" and summary[-1]["t_d"] > 15.0


def floats_above_third(n: int) -> list[float]:
    out = [math.nextafter(1.0 / 3.0, 1.0)]
    while len(out) < n:
        out.append(math.nextafter(out[-1], 1.0))
    return out


@pytest.mark.parametrize("a", [repr(x) for x in floats_above_third(8)] + ["0.33333334"])
def test_td_bisect_just_above_threshold(capsys, a):
    assert run("td", "--a", a) == 0
    got = json.loads(capsys.readouterr().out)["t_d"]
    want = mp_death_time(float(a))
    assert abs(got - want) <= 1e-8 + 8.0 * np.finfo(float).eps / math.exp(-want)


def old_sweep_csv(a_min, a_max, a_steps, t_max, t_steps, rate, natural_units) -> bytes:
    """The sweep CSV as the per-cell loop formatted it before rows were streamed."""
    def fmt(x):
        return "%.17g" % float(x)

    a_grid = np.linspace(a_min, a_max, a_steps)
    t_grid = np.linspace(0.0, t_max, t_steps)
    gamma = np.exp(-0.5 * rate * t_grid)
    surface = family_concurrence(a_grid[:, None], gamma, gamma)
    scale = rate if natural_units else 1.0
    lines = ["a,t,concurrence"]
    for i, a in enumerate(a_grid):
        for j, t in enumerate(t_grid):
            lines.append(f"{fmt(a)},{fmt(t * scale)},{fmt(surface[i, j])}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("case", [
    (0.0, 1.0, 101, 3.0, 200, 1.0, True),
    (0.00045237955350981864, 1.0, 201, 3.0, 10, 1.0, True),
    (0.3, 0.9, 7, 5.0, 13, 2.7, True),
    (0.1, 1.0, 5, 2.0, 9, 0.3, False),
    (1.0, 1.0, 1, 1.0, 1, 1.0, True),
])
def test_sweep_csv_is_byte_identical_to_per_cell_format(tmp_path, case):
    a_min, a_max, a_steps, t_max, t_steps, rate, natural = case
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a-min", repr(a_min), "--a-max", repr(a_max),
            "--a-steps", str(a_steps), "--t-max", repr(t_max), "--t-steps", str(t_steps),
            "--rate", repr(rate), "--output", str(out)]
    if not natural:
        argv.append("--no-natural-units")
    assert run(*argv) == 0
    assert out.read_bytes() == old_sweep_csv(*case)


SUMMARY_CASES = [
    (0.0, 1.0, 101, 3.0, 200, 1.0, True),
    (0.00045237955350981864, 1.0, 201, 3.0, 10, 1.0, True),
    (0.3, 0.9, 7, 5.0, 13, 2.7, True),
    (0.1, 1.0, 5, 2.0, 9, 0.3, False),
    (1.0, 1.0, 1, 1.0, 1, 1.0, True),
    (0.0, 0.3, 4, 1.0, 2, 1.0, True),
    (0.5, 1.0, 6, 1.0, 2, 1.0, True),
    (0.0, 1.0, 101, 3.0, 200, 1e-310, True),
    (0.0, 1.0, 101, 3.0, 200, 0.37, False),
]


def old_sweep_summary(a_min, a_max, a_steps, t_max, t_steps, rate, natural_units) -> bytes:
    """The sweep summary as json.dump wrote it from a list of dicts."""
    a_grid = np.linspace(a_min, a_max, a_steps)
    s_d = death_time_s(a_grid)
    finite = np.isfinite(s_d)
    t_d = s_d if natural_units else s_d / rate
    records = [
        {"a": a, "kind": "finite" if fin else "asymptotic", "t_d": t if fin else None,
         "gamma_rate": rate}
        for a, fin, t in zip(a_grid.tolist(), finite.tolist(), t_d.tolist())
    ]
    return (json.dumps(records, indent=2, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize("case", SUMMARY_CASES)
def test_sweep_summary_is_byte_identical_to_json_dump(tmp_path, case):
    a_min, a_max, a_steps, t_max, t_steps, rate, natural = case
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a-min", repr(a_min), "--a-max", repr(a_max),
            "--a-steps", str(a_steps), "--t-max", repr(t_max), "--t-steps", str(t_steps),
            "--rate", repr(rate), "--output", str(out)]
    if not natural:
        argv.append("--no-natural-units")
    assert run(*argv) == 0
    assert (tmp_path / "sweep_summary.json").read_bytes() == old_sweep_summary(*case)


@pytest.mark.parametrize("argv", [
    ["--a", "1"], ["--a", "0.5", "--rate", "0.37"], ["--a", "0.2"], ["--a", "0"],
    ["--a", "0.33333333333333337", "--rate", "1e-310"],
    ["--a", "0.7", "--rate", "3", "--no-natural-units"],
    ["--a", "0.3333333333333333", "--rate", "1e308", "--no-natural-units"],
], ids=" ".join)
def test_td_record_is_byte_identical_to_json_dumps(capsys, argv):
    assert run("td", *argv) == 0
    args = cli.parse_args(["td", *argv])
    cli._resolve(args, args.spec)
    t_d = float(cli._death_times(death_time_s(args.a), args.rate, args.natural_units))
    finite = t_d != math.inf
    payload = {"a": args.a, "kind": "finite" if finite else "asymptotic",
               "t_d": t_d if finite else None, "gamma_rate": args.rate}
    assert capsys.readouterr().out == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def fmt_row(values) -> str:
    return ",".join("%.17g" % float(v) for v in values)


def old_evolve_csv(a=1.0, rate=1.0, t_max=3.0, omega_a=1.0, omega_b=1.0,
                   memory_rate=None, mem_dt=None, natural_units=True) -> bytes:
    """The evolve CSV as the per-row, per-cell loop formatted it, with the
    concurrence and the image the master is compared with from the closed form."""
    dt = 1e-3
    x0 = standard_family(a)
    rho0 = xstate_to_dense(x0)
    c0 = concurrence_x(x0)
    grid = uniform_grid(t_max, dt)
    if memory_rate is None:
        rates = 0.5 * rate, 0.5 * rate
        ga = gb = np.exp(-0.5 * rate * grid)
    else:
        k = max(1, math.ceil(0.5 * dt / mem_dt - 1e-9))
        sol_a, sol_b = (solve_amplitude(ExponentialKernel(rate, memory_rate, -omega), t_max,
                                        0.5 * dt / k, tol=1e-8) for omega in (omega_a, omega_b))
        rates = coefficient_f(sol_a).real[::k], coefficient_f(sol_b).real[::k]
        ga, gb = sol_a.gamma[::2 * k], sol_b.gamma[::2 * k]
    traj = integrate_master(rho0, *rates, t_max, dt)
    traces = np.einsum("tii->t", traj.states)
    scale = rate if (natural_units and rate > 0.0) else 1.0
    lines = [EVOLVE_HEADER]
    for i in range(grid.size):
        image = xstate_to_dense(family_trajectory(a, float(ga[i]), float(gb[i])))
        lines.append(fmt_row((
            grid[i] * scale, family_concurrence(a, ga[i], gb[i]), ga[i], gb[i],
            abs(float(traces[i].real) - 1.0), c0 * float(ga[i] * gb[i]),
            np.max(np.abs(image - traj.states[i])),
        )))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("argv, params", [
    ([], {}),
    (["--a", "0.8", "--rate", "0.7", "--omega-a", "1.3", "--omega-b", "0.7",
      "--t-max", "4", "--no-natural-units"],
     dict(a=0.8, rate=0.7, omega_a=1.3, omega_b=0.7, t_max=4.0, natural_units=False)),
    (["--a", "0.6", "--memory-rate", "5", "--mem-dt", "1e-3"],
     dict(a=0.6, memory_rate=5.0, mem_dt=1e-3)),
])
def test_evolve_csv_is_byte_identical_to_per_cell_format(tmp_path, argv, params):
    out = tmp_path / "evolve.csv"
    assert run("evolve", *argv, "--output", str(out)) == 0
    assert out.read_bytes() == old_evolve_csv(**params)


def old_bound_csv(samples, seed, gammas) -> bytes:
    """The bound CSV as the per-cell loop formatted it, one state at a time."""
    lines = ["seed,gamma,lhs,rhs,satisfied,first_branch_gap,side_branch_max"]
    coeffs = DampingCoefficients(np.array(gammas), np.array(gammas))
    worst, bad = -math.inf, 0
    for s in range(seed, seed + samples):
        rep = check_bound(random_state(s), coeffs)
        worst = max(worst, float(np.max(rep.lhs - rep.rhs)))
        bad += int(np.count_nonzero(~rep.satisfied))
        for j, g in enumerate(gammas):
            lines.append(f"{s},{fmt_row((g, rep.lhs[j], rep.rhs[j]))},"
                         f"{int(rep.satisfied[j])},"
                         f"{fmt_row((rep.first_branch_gap[j], rep.side_branch_max[j]))}")
    total = samples * len(gammas)
    lines.append(f"# satisfied {total - bad}/{total}, worst lhs-rhs gap {worst:.3e}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("gammas", ["0.9,0.5,0.1", "1,0,0.25,0.7"])
def test_bound_csv_is_byte_identical_to_per_cell_format(tmp_path, gammas):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "25", "--seed", "7", "--gammas", gammas,
               "--output", str(out)) == 0
    assert out.read_bytes() == old_bound_csv(25, 7, [float(g) for g in gammas.split(",")])


def test_sweep_writes_nothing_unless_it_succeeds(tmp_path, monkeypatch, capsys):
    def fail(a_grid):
        raise NumericalError("forced")

    monkeypatch.setattr(cli, "death_time_s", fail)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--a-steps", "5", "--t-steps", "4", "--output", str(out)) == 3
    assert "numerical failure: forced" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "sweep_summary.json").exists()


def strict_json(text: str):
    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_model_time_overflow_is_refused_once_for_td_and_sweep(tmp_path, capsys):
    # a mixed array is refused as a whole; the scalar cases are in
    # test_esd::test_model_time_overflow_is_a_numerical_error
    with pytest.raises(NumericalError, match="overflows"):
        cli._death_times(death_time_s(np.array([0.2, 1.0])), 1e-310, False)
    assert cli._death_times(death_time_s(1.0), 1e-310, True) == death_time_s(1.0)
    # rate scaling: t_d carries units 1/rate
    assert abs(cli._death_times(death_time_s(1.0), 4.0, False) - TD_A1 / 4.0) <= 2e-15 * TD_A1 / 4.0
    errors = []
    for argv in (["td", "--a", "1"],
                 ["sweep", "--a-min", "1", "--a-steps", "1", "--output", str(tmp_path / "s.csv")]):
        assert run(*argv, "--rate", "1e-310", "--no-natural-units") == 3
        errors.append(capsys.readouterr().err)
    assert errors == ["numerical failure: death time 0.5347999967395703/rate overflows "
                      "at rate 1e-310\n"] * 2
    assert list(tmp_path.iterdir()) == []


def test_threshold_sweep_zero_sets_agree_with_the_summary(tmp_path):
    # Eight a just above 1/3, where the textbook factor 1 - sqrt(X) zeroed
    # six rows up to three t-steps before their summary t_d.
    out = tmp_path / "t.csv"
    assert run("sweep", "--a-min", "0.33333333333333337", "--a-max", "0.3333333333333338",
               "--a-steps", "8", "--t-max", "40", "--t-steps", "401", "--output", str(out)) == 0
    rows = load_csv(out).reshape(8, 401, 3)
    summary = json.loads((tmp_path / "t_summary.json").read_text())
    for row, record in zip(rows, summary):
        t, c = row[:, 1], row[:, 2]
        assert record["kind"] == "finite" and record["a"] == row[0, 0]
        assert np.all(c[t < record["t_d"]] > 0.0) and np.all(c[t > record["t_d"]] == 0.0), record


def test_tiny_rate_reports_natural_units_and_never_infinity(tmp_path, capsys):
    assert run("td", "--a", "1", "--rate", "1e-310", "--no-natural-units") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "overflows" in captured.err
    assert run("td", "--a", "1", "--rate", "1e-310") == 0
    record = strict_json(capsys.readouterr().out)
    assert record["gamma_rate"] == 1e-310
    assert abs(record["t_d"] - TD_A1) < 1e-15
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--rate", "1e-310", "--output", str(out)) == 0
    summary = strict_json((tmp_path / "sweep_summary.json").read_text())
    assert summary[-1]["a"] == 1.0
    assert abs(summary[-1]["t_d"] - TD_A1) < 1e-15
    raw = tmp_path / "raw.csv"
    assert run("sweep", "--rate", "1e-310", "--no-natural-units", "--output", str(raw)) == 3
    assert not raw.exists()
    capsys.readouterr()


@pytest.mark.parametrize("slack", ["nan", "-1", "inf"])
def test_bound_rejects_bad_slack_exit_2(tmp_path, capsys, slack):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "3", "--slack", slack, "--output", str(out)) == 2
    assert "slack" in capsys.readouterr().err
    assert not out.exists()


def test_bound_rejects_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "3", "--seed", "-1", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    (["--t-max", "-1"], "t_max must be finite and nonnegative, got -1.0"),
    (["--t-max", "nan"], "t_max must be finite and nonnegative, got nan"),
    (["--a-min", "0.5", "--a-max", "0.2"], "a_min 0.5 must not exceed a_max 0.2"),
    (["--a-min", "nan"], "a_min must be finite and in [0, 1], got nan"),
    (["--a-max", "1.5"], "a_max must be finite and in [0, 1], got 1.5"),
])
def test_sweep_bad_grid_bounds_exit_2(tmp_path, capsys, grid, message):
    out = tmp_path / "sweep.csv"
    assert run("sweep", *grid, "--a-steps", "3", "--t-steps", "4", "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not (tmp_path / "sweep_summary.json").exists()


def test_sweep_failed_summary_write_leaves_no_output(tmp_path, capsys):
    # the CSV is written before the summary; a summary path that is a
    # directory fails the run, which removes the CSV and leaves the directory
    (tmp_path / "sweep_summary.json").mkdir()
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--a-steps", "3", "--t-steps", "4", "--output", str(out)) == 2
    assert "sweep_summary.json" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_summary.json"]
    assert (tmp_path / "sweep_summary.json").is_dir()


def test_failed_text_write_removes_its_file(tmp_path):
    out = tmp_path / "td.json"
    with pytest.raises(TypeError):
        cli._write_text(str(out), ["{\n", None])
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_td_non_finite_rate_exit_2(capsys, rate):
    assert run("td", "--a", "1", "--rate", rate) == 2
    assert "rate" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_sweep_non_finite_rate_exit_2(tmp_path, capsys, rate):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--a-steps", "3", "--t-steps", "4", "--rate", rate,
               "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: rate must be finite and positive, got {rate}\n"
    assert not out.exists()


def count_forks(monkeypatch) -> list[int]:
    """Patch os.fork to log, in the parent, each child it makes."""
    real_fork, forks = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_block_size_does_not_change_outputs(tmp_path, monkeypatch):
    # 101 a values leave a partial last block of sweep's CSV rows and
    # summary records (42 or 2 a-rows of 3 times); 200 times exceed every
    # block, so each block is then one a-row.  Each block size also runs
    # on 1, 2 and 16 usable CPUs, with a forked part however few rows it
    # holds: 16 parts exceed bound's blocks at every size (1, 5 or 9) and
    # sweep's 3 blocks of 42 a-rows, so there the parts are one block each.
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(cli, "SWEEP_FORK_ROWS", 1)
    runs, forked = {}, {}
    for block in (128, 1, 7):
        monkeypatch.setattr(cli, "STACK_BLOCK", block)
        ev = tmp_path / f"ev{block}.csv"
        assert run("evolve", "--a", "0.8", "--t-max", "0.3", "--output", str(ev)) == 0
        for cpus in (1, 2, 16):
            use_cpus(monkeypatch, cpus)
            before = len(forks)
            bd = tmp_path / f"bd{block}_{cpus}.csv"
            assert run("bound", "--samples", "9", "--seed", "3", "--output", str(bd)) == 0
            outputs = [ev.read_bytes(), bd.read_bytes()]
            for t_steps in ("3", "200"):
                stem = tmp_path / f"sw{block}_{cpus}_{t_steps}"
                assert run("sweep", "--a-steps", "101", "--t-steps", t_steps,
                           "--output", f"{stem}.csv") == 0
                outputs += [Path(f"{stem}.csv").read_bytes(),
                            Path(f"{stem}_summary.json").read_bytes()]
            runs[block, cpus], forked[block, cpus] = outputs, len(forks) - before
    assert [key for key, outputs in runs.items() if outputs != runs[128, 1]] == []
    for block in (128, 1, 7):
        assert forked[block, 1] == 0 < forked[block, 2] < forked[block, 16], forked
    assert_no_child_left()


def bound_and_sweep(tmp_path, tag: str) -> list[bytes]:
    bd, sw = tmp_path / f"bd_{tag}.csv", tmp_path / f"sw_{tag}.csv"
    assert run("bound", "--samples", "120", "--seed", "5", "--output", str(bd)) == 0
    assert run("sweep", "--a-steps", "101", "--t-steps", "200", "--output", str(sw)) == 0
    return [bd.read_bytes(), sw.read_bytes(), (tmp_path / f"sw_{tag}_summary.json").read_bytes()]


@pytest.mark.parametrize("failure", ["block exits", "child exits", "no process", "fork warns"])
def test_parts_their_children_do_not_deliver_fall_to_the_parent(tmp_path, monkeypatch, failure):
    # bound's 120 seeds are 3 blocks and sweep's 101 a-rows 101, so 3 CPUs
    # fork 2 children for each; whatever stops a child from delivering, the
    # parent computes its part, and the bytes are the serial ones.
    use_cpus(monkeypatch, 1)
    serial = bound_and_sweep(tmp_path, "serial")
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "SWEEP_FORK_ROWS", 1)
    forks = count_forks(monkeypatch)
    parent, counted_fork, draw = os.getpid(), os.fork, cli.random_states

    def exit_in_child(seeds):
        if os.getpid() != parent:
            os._exit(0)
        return draw(seeds)

    def fork():
        if failure == "no process":
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = counted_fork()
        if pid == 0 and failure == "child exits":
            os._exit(0)
        if pid and failure == "fork warns":  # as Python 3.12 does in a process with threads
            warnings.warn("use of fork() may lead to deadlocks in the child", DeprecationWarning)
        return pid

    monkeypatch.setattr(cli, "random_states", exit_in_child if failure == "block exits" else draw)
    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound_and_sweep(tmp_path, "forked") == serial
    assert len(forks) == {"block exits": 4, "child exits": 4, "no process": 0, "fork warns": 2}[failure]
    assert_no_child_left()


def test_an_error_in_a_childs_block_is_the_serial_error(tmp_path, monkeypatch, capsys):
    # The last of bound's 3 blocks (seeds 89-124) raises in the child that
    # computes it; the parent recomputes that block and fails as one process does.
    real_check = cli.check_bound

    def fail_last_block(rhos, coeffs, slack):
        if len(rhos) < 42:
            raise NumericalError("forced in the last block")
        return real_check(rhos, coeffs, slack=slack)

    monkeypatch.setattr(cli, "check_bound", fail_last_block)
    forks = count_forks(monkeypatch)
    errors = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"bound{cpus}.csv"
        assert run("bound", "--samples", "120", "--seed", "5", "--output", str(out)) == 3
        errors.append(capsys.readouterr())
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].err == "numerical failure: forced in the last block\n"
    assert len(forks) == 2
    assert_no_child_left()


def test_an_error_in_the_parents_part_ends_its_children(tmp_path, monkeypatch, capsys):
    # The children would sleep for a minute; the parent's first block fails
    # at once, and its children are killed and reaped before main returns.
    parent = os.getpid()

    def fail_in_parent(rhos, coeffs, slack):
        if os.getpid() != parent:
            time.sleep(60)
        raise NumericalError("forced in the parent's part")

    monkeypatch.setattr(cli, "check_bound", fail_in_parent)
    forks = count_forks(monkeypatch)
    use_cpus(monkeypatch, 3)
    start = time.perf_counter()
    assert run("bound", "--samples", "120", "--output", str(tmp_path / "bound.csv")) == 3
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().err == "numerical failure: forced in the parent's part\n"
    assert len(forks) == 2
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


# The --t-max and --t-steps grids are 1e17 points, 711 PiB: beyond any 64-bit
# address space, so the allocation fails at once whatever the overcommit
# setting.  The --dt and --a-steps grids exceed numpy's index range, which
# numpy refuses before allocating; the message names the option.
GRID_TOO_LARGE = {
    "--t-max": "error: out of memory: Unable to allocate 711. PiB",
    "--t-steps": "error: out of memory: Unable to allocate 711. PiB",
    "--dt": "error: t_max=3.0 / dt=1e-300 gives 3e+300 grid points: "
            "Maximum allowed size exceeded\n",
    "--a-steps": "error: a_steps=99999999999999999999, t_steps=200: "
                 "Maximum allowed size exceeded\n",
}


@pytest.mark.parametrize("argv", [
    ["evolve", "--t-max", "1e14"],
    ["sweep", "--t-steps", "100000000000000000"],
    ["evolve", "--dt", "1e-300"],
    ["sweep", "--a-steps", "99999999999999999999"],
])
def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys, argv):
    assert run(*argv, "--output", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(GRID_TOO_LARGE[argv[1]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, message", [
    (["evolve", "--t-max", "1e308"], 2,
     "error: t_max=1e+308 / dt=0.001 overflows: too many steps"),
    (["evolve", "--t-max", "0.01", "--memory-rate", "1e308", "--mem-dt", "5e-311"], 2,
     "error: t_max=0.01 / amplitude step 5e-311 overflows: too many steps"),
    (["sweep", "--rate", "1e308"], 3,
     "numerical failure: time t_max*rate overflows at t_max 3.0, rate 1e+308"),
    (["sweep", "--t-max", "1e308", "--rate", "10"], 3,
     "numerical failure: time t_max*rate overflows at t_max 1e+308, rate 10.0"),
    (["evolve", "--rate", "10000"], 3,
     "numerical failure: integration overflowed at dt=0.001; reduce dt"),
    (["evolve", "--rate", "1e308"], 3,
     "numerical failure: integration overflowed at dt=0.001; reduce dt"),
    (["evolve", "--memory-rate", "5", "--omega-a", "1e308", "--kernel-center", "-1e308"], 3,
     "numerical failure: detuning kernel_center - omega = -1e+308 - 1e+308 overflows"),
    (["evolve", "--memory-rate", "5", "--omega-a", "-1e308", "--omega-b", "-1e308",
      "--kernel-center", "1e308"], 3,
     "numerical failure: detuning kernel_center - omega = 1e+308 - -1e+308 overflows"),
])
def test_overflow_exits_with_its_code_and_no_warning(tmp_path, capsys, argv, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--output", str(tmp_path / "out.csv")) == code
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--omega-a", "--kernel-center"])
def test_far_detuned_atom_keeps_its_coherence(tmp_path, flag):
    # A pole detuned by 1e308 barely couples: (l1 - l2) t overflows past
    # t = 1.8, where t phi takes its phase mean 1/(l1 - l2) instead of nan.
    # --kernel-center detunes both atoms, --omega-a only A; B then solves
    # exactly what the resonant-pole run solves.
    far, near = tmp_path / "far.csv", tmp_path / "near.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--memory-rate", "5", flag, "1e308", "--output", str(far)) == 0
        assert run("evolve", "--memory-rate", "5", "--output", str(near)) == 0
    far_rows, near_rows = (
        [line.split(",") for line in path.read_text().splitlines()[1:]] for path in (far, near)
    )
    detuned = [2, 3] if flag == "--kernel-center" else [2]
    for col in detuned:
        assert max(abs(1.0 - float(row[col])) for row in far_rows) <= 1e-15
    if flag == "--omega-a":
        assert [row[3] for row in far_rows] == [row[3] for row in near_rows]
    assert len(far_rows) == 3001


def test_sweep_csv_has_no_negative_zero(tmp_path):
    # gamma^2 underflowing in the surface or the evolve column is +0.0, and so
    # is -0.0 read from a flag or a config value: no CSV cell or JSON value is
    # a negative zero
    config = tmp_path / "zero.cfg"
    config.write_text("a = -0.0\n")
    runs = [["sweep", "--t-max", "800"], ["sweep", "--a-min", "-0.0", "--t-max", "-0.0"],
            ["evolve", "--t-max", "760", "--dt", "0.1"],
            ["td", "--a", "-0.0"], ["td", "--config", str(config)],
            ["bound", "--samples", "1", "--gammas", "-0.0"]]
    for k, argv in enumerate(runs):
        assert run(*argv, "--output", str(tmp_path / f"out{k}")) == 0
        text = "".join(path.read_text() for path in tmp_path.glob(f"out{k}*"))
        cells = set(re.split(r"[\s,:\[\]{}]+", text))
        assert cells & {"0", "0.0"} and not cells & {"-0", "-0.0"}, argv


def test_bound_impossible_sample_count_exits_2_at_once(tmp_path):
    # Were the count accepted, the run would eat the host's memory; it runs
    # only in a child capped at 1 GiB of address space.
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error", "-m", "esdkit", "bound",
            "--samples", "99999999999999999999", "--output", "bound.csv"]
    out = subprocess.run(argv, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                         preexec_fn=cap, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: samples=99999999999999999999: ")
    assert len(out.stderr.strip()) > len("error: samples=99999999999999999999:")
    assert list(tmp_path.iterdir()) == []


DENSE_ROUTE_ARGV = [[], ["--memory-rate", "5", "--mem-dt", "1e-3", "--omega-b", "1.3"]]


@pytest.mark.parametrize("argv", DENSE_ROUTE_ARGV)
def test_evolve_needs_no_dense_route(tmp_path, monkeypatch, argv):
    # Every esdkit namespace that binds a dense route gets a stub that raises.
    dense = (reference.apply_channel, channel.DampingCoefficients, entanglement.concurrence)

    def refuse(*args, **kwargs):
        raise AssertionError("evolve called a dense route")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "esdkit":
            for attr, obj in list(vars(module).items()):
                if any(obj is fn for fn in dense):
                    monkeypatch.setattr(module, attr, refuse)
    assert run("evolve", *argv, "--output", str(tmp_path / "evolve.csv")) == 0


def mp_family_concurrence(a, ga, gb) -> float:
    """(2/3) max(0, ga gb f) in 50-digit arithmetic at the given float gammas."""
    with mpmath.workdps(50):
        a, ga, gb = mpmath.mpf(a), mpmath.mpf(ga), mpmath.mpf(gb)
        wa2, wb2 = 1 - ga * ga, 1 - gb * gb
        f = 1 - mpmath.sqrt(a * (1 - a + wa2 + wb2 + wa2 * wb2 * a))
        return float(max(mpmath.mpf(0), 2 * ga * gb * f / 3))


@pytest.mark.parametrize("argv", DENSE_ROUTE_ARGV)
def test_evolve_columns_match_the_dense_routes(tmp_path, argv):
    out = tmp_path / "evolve.csv"
    assert run("evolve", *argv, "--output", str(out)) == 0
    data = load_csv(out)
    conc, ga, gb, maxdiff = data[:, 1], data[:, 2], data[:, 3], data[:, 6]
    omega_b = 1.3 if argv else 1.0
    if argv:
        rates = [coefficient_f(solve_amplitude(ExponentialKernel(1.0, 5.0, -omega), 3.0,
                                               5e-4)).real
                 for omega in (1.0, omega_b)]
    else:
        rates = 0.5, 0.5
    rho0 = xstate_to_dense(standard_family(1.0))
    states = integrate_master(rho0, *rates, 3.0, 1e-3).states
    evolved = apply_channel(rho0, DampingCoefficients(ga, gb))
    assert np.max(np.abs(conc - concurrence(evolved).value)) <= 1e-10
    dense_maxdiff = np.max(np.abs(evolved - states), axis=(-2, -1))
    assert np.max(np.abs(maxdiff - dense_maxdiff)) <= 1e-13
    reference = [mp_family_concurrence(1.0, x, y) for x, y in zip(ga, gb)]
    assert np.max(np.abs(conc - reference)) <= 1e-15


def test_near_free_reservoir_keeps_gamma_at_most_1(tmp_path):
    # Round-off in the differentiated decay coefficient put gamma at 1 + 1.25e-13.
    out = tmp_path / "free.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--memory-rate", "1e-300", "--t-max", "0.01",
                   "--output", str(out)) == 0
    data = load_csv(out)
    assert data.shape == (11, 7)
    assert np.all(data[:, 2:4] <= 1.0)


def test_warning_as_error_exits_3_without_output(tmp_path, capsys):
    # A kernel with negative spectral weight lets |b| grow past 1: solve_amplitude
    # warns, and the warning is an error here.
    tau = np.arange(3001) * 1e-3
    table = tmp_path / "unphysical.txt"
    write_table(table, tau, -0.5 * np.exp(-tau) + 0.0j)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--kernel-file", str(table), "--mem-tol", "inf",
                   "--t-max", "2", "--output", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: |b| exceeds 1 by ")
    assert err.endswith("; tabulated kernel may be unphysical\n")
    assert not out.exists()
