import ast
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from esdkit import channel, cli, entanglement, memory, reference, selfcheck
from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import check_bound, concurrence, concurrence_x
from esdkit.errors import NumericalError
from esdkit.esd import death_time_s, family_concurrence, sweep
from esdkit.master import (
    AtomParams, integrate_master, interaction_trajectory, markov_rates, table_rates,
)
from esdkit.memory import (
    ExponentialKernel, full_solution, load_kernel_table, solve_amplitude, uniform_grid,
)
from esdkit.reference import apply_channel, family_trajectory
from esdkit.states import random_state, standard_family, xstate_to_dense
from esdkit.selfcheck import CheckResult

EVOLVE_HEADER = (
    "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
)

TD_A1 = math.log((2.0 + math.sqrt(2.0)) / 2.0)


def run(*argv: str) -> int:
    return cli.main(list(argv))


def load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def test_cli_import_needs_no_scipy_and_loads_lazy_numpy_modules():
    # numpy >= 2 loads numpy.random and numpy.fft on first use; esdkit imports
    # them up front so a run does not pay for them, and it needs no scipy.
    probe = (
        "import json, sys, esdkit.cli; print(json.dumps("
        "[sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " 'numpy.random' in sys.modules, 'numpy.fft' in sys.modules]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == [[], True, True]


LAYERS = ("linalg", "states", "channel", "entanglement", "memory", "master", "esd")


def test_cli_import_loads_every_layer_and_no_cross_check_code():
    probe = (
        "import json, sys, esdkit.cli; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'esdkit')))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    loaded = set(json.loads(out.stdout))
    assert {f"esdkit.{layer}" for layer in LAYERS} <= loaded
    assert not loaded & {"esdkit.reference", "esdkit.selfcheck"}


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
    assert np.max(trace_err) < 1e-10
    assert np.max(maxdiff) < 1e-8
    assert np.all(conc <= bound_rhs + 1e-10)


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
    assert run(
        "evolve", "--t-max", "1", "--memory-rate", "1000", "--output", str(kern)
    ) == 0
    c_mark = load_csv(mark)[:, 1]
    c_kern = load_csv(kern)[:, 1]
    assert np.max(np.abs(c_kern - c_mark)) < 0.02 * np.max(c_mark)


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
    capsys.readouterr()
    # without --mem-tol the default 1e-8 gate rejects the 1e-3 table step
    assert run(*common, "--kernel-file", str(table),
               "--output", str(tmp_path / "gated.csv")) == 3
    assert "accumulated local-error" in capsys.readouterr().err


@pytest.mark.parametrize("t_max, extra", [("0.001", ("--dt", "0.001")), ("0.002", ())])
def test_one_step_amplitude_grid_runs(tmp_path, t_max, extra):
    # --mem-dt = --t-max asks for one amplitude step; the solve takes two, so
    # the linear interpolation of gamma holds 1e-6 (one step of 0.002 misses
    # the middle row by 1.24e-6)
    out = tmp_path / "one.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evolve", "--memory-rate", "5", "--t-max", t_max, "--mem-dt", t_max,
                   *extra, "--output", str(out)) == 0
    rows = load_csv(out)
    fine = full_solution(ExponentialKernel(1.0, 5.0), 0.0, float(t_max), 1e-6)
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
        sol = solve_amplitude(kernel, omega, 1.0, 1e-3, tol=tol)
        assert np.array_equal(rows[:, col], np.interp(grid, sol.t, clipped_abs_b(sol)))


def test_evolve_memory_maxdiff_is_a_second_order_cross_check(tmp_path):
    # the image is built from |b|, the master from f: they now differ by the
    # master's linear interpolation of f between amplitude points, O(mem_dt^2)
    maxdiff = []
    for mem_dt in ("1e-3", "2e-4"):
        out = tmp_path / f"evolve_{mem_dt}.csv"
        assert run("evolve", "--memory-rate", "5", "--mem-dt", mem_dt, "--output", str(out)) == 0
        maxdiff.append(float(np.max(load_csv(out)[:, 6])))
    assert 1e-9 < maxdiff[0] < 1e-6
    assert 15.0 <= maxdiff[0] / maxdiff[1] <= 40.0


@pytest.mark.parametrize("row", ["0.1 nan 0.0", "inf 0.5 0.0"])
def test_evolve_non_finite_kernel_table_exit_2(tmp_path, capsys, row):
    table = tmp_path / "bad.dat"
    table.write_text(f"# tau re im\n0.0 1.0 0.0\n{row}\n0.2 0.5 0.0\n")
    code = run("evolve", "--t-max", "0.2", "--kernel-file", str(table),
               "--output", str(tmp_path / "x.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert "kernel table row 1 is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, value", [
    (["--t-max", "inf"], "t_max=inf"),
    (["--memory-rate", "inf"], "(1.0, inf, 0.0) must be finite"),
    (["--rate", "nan"], "rate must be finite and non-negative, got nan"),
    (["--rate", "inf"], "rate must be finite and non-negative, got inf"),
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
    assert err == f"error: kernel table {table} has no data rows\n"
    assert not out.exists()


def test_evolve_rejects_conflicting_kernel_options(tmp_path, capsys):
    code = run(
        "evolve", "--memory-rate", "5", "--kernel-file", "x.dat",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "not both" in capsys.readouterr().err


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


def test_td_natural_units_scaling(capsys, tmp_path):
    assert run("td", "--a", "1", "--rate", "2") == 0
    natural = json.loads(capsys.readouterr().out)
    assert abs(natural["t_d"] - TD_A1) < 1e-9
    assert run("td", "--a", "1", "--rate", "2", "--no-natural-units") == 0
    raw = json.loads(capsys.readouterr().out)
    assert abs(raw["t_d"] - TD_A1 / 2.0) < 1e-9
    out = tmp_path / "td.json"
    assert run("td", "--a", "1", "--output", str(out)) == 0
    assert abs(json.load(open(out))["t_d"] - TD_A1) < 1e-9


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
    assert capsys.readouterr().err == "error: unknown config keys: method\n"


def test_option_tables_give_flags_config_keys_and_defaults(tmp_path):
    parser = cli.build_parser()
    for command, (func, spec, _help) in cli.COMMANDS.items():
        args = parser.parse_args([command])
        cli._resolve(args, spec)
        assert args.func is func
        assert {name: getattr(args, name) for name in spec} == {
            name: default for name, (_convert, default, _text) in spec.items()
        }
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a-steps = 7\nnatural_units = off\n")
    args = parser.parse_args(["sweep", "--config", str(cfg), "--t-steps", "5"])
    cli._resolve(args, cli.SWEEP_SPEC)
    assert (args.a_steps, args.natural_units, args.t_steps, args.rate) == (7, False, 5, 1.0)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run("td", "--config", str(cfg)) == 2
    assert "unknown config keys" in capsys.readouterr().err
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    assert run("td", "--config", str(noeq)) == 2


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
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def test_check_reports_all_suites(capsys):
    assert run("check") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    lines = [ln for ln in out.splitlines() if ln.startswith("ok - ")]
    assert len(lines) >= 20
    assert out.splitlines()[-1].endswith("checks passed")


def test_check_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(
        selfcheck, "run_all", lambda: [CheckResult(name="forced", passed=False, detail="x")]
    )
    assert run("check") == 4
    out = capsys.readouterr().out
    assert "FAIL - forced" in out
    assert "0/1 checks passed" in out


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


def test_numerical_failure_exits_3(tmp_path, capsys):
    # slow reservoir: the amplitude crosses zero near t = 4.71 and the decay
    # coefficient blows up there
    code = run(
        "evolve", "--memory-rate", "1", "--t-max", "6", "--mem-dt", "1e-5",
        "--omega-a", "0", "--omega-b", "0", "--output", str(tmp_path / "x.csv"),
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def mp_death_time(a: float) -> float:
    with mpmath.workdps(60):
        x = mpmath.mpf(a)
        return float(-mpmath.log(1 - (mpmath.sqrt(x * x - x + 2) - 1) / x))


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
    surface = sweep(a_grid, t_grid, rate)
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
        rates = markov_rates(rate, rate)
        ga = gb = np.exp(-0.5 * rate * grid)
    else:
        kernel = ExponentialKernel(rate, memory_rate, 0.0)
        steps = max(1, math.ceil(t_max / mem_dt - 1e-9))
        sol_a = full_solution(kernel, omega_a, t_max, t_max / steps, tol=1e-8)
        sol_b = sol_a if omega_b == omega_a else full_solution(
            kernel, omega_b, t_max, t_max / steps, tol=1e-8
        )
        rates = table_rates(sol_a, sol_b)
        ga = np.interp(grid, sol_a.t, sol_a.gamma)
        gb = np.interp(grid, sol_b.t, sol_b.gamma)
    traj = interaction_trajectory(
        integrate_master(rho0, rates, AtomParams(omega_a, omega_b), t_max, dt)
    )
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
    coeffs = coefficients_from_gammas(np.array(gammas), np.array(gammas))
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


def test_block_size_does_not_change_outputs(tmp_path, monkeypatch):
    runs = {}
    for block in (128, 1, 7):
        monkeypatch.setattr(cli, "STACK_BLOCK", block)
        ev, bd = tmp_path / f"ev{block}.csv", tmp_path / f"bd{block}.csv"
        assert run("evolve", "--a", "0.8", "--t-max", "0.3", "--output", str(ev)) == 0
        assert run("bound", "--samples", "9", "--seed", "3", "--output", str(bd)) == 0
        runs[block] = (ev.read_bytes(), bd.read_bytes())
    assert runs[1] == runs[7] == runs[128]


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
    (["evolve", "--t-max", "0.01", "--memory-rate", "1e308"], 2,
     "error: t_max=0.01 / amplitude step 5e-311 overflows: too many steps"),
    (["sweep", "--rate", "1e308"], 3,
     "numerical failure: time t_max*rate overflows at t_max 3.0, rate 1e+308"),
    (["sweep", "--t-max", "1e308", "--rate", "10"], 3,
     "numerical failure: time t_max*rate overflows at t_max 1e+308, rate 10.0"),
    (["evolve", "--rate", "10000"], 3,
     "numerical failure: integration overflowed at dt=0.001; reduce dt"),
    (["evolve", "--rate", "1e308"], 3,
     "numerical failure: integration overflowed at dt=0.001; reduce dt"),
    (["evolve", "--omega-a", "1e308"], 3,
     "numerical failure: integration overflowed at dt=0.001; reduce dt"),
    (["evolve", "--memory-rate", "5", "--kernel-center", "1e308"], 3,
     "numerical failure: unstable step: the step matrix overflows; reduce dt"),
])
def test_overflow_exits_with_its_code_and_no_warning(tmp_path, capsys, argv, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--output", str(tmp_path / "out.csv")) == code
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_csv_has_no_negative_zero(tmp_path):
    # e^(-rate*t) underflowing in the surface is +0.0, and so is -0.0 read from
    # a flag or a config value: no CSV cell or JSON value is a negative zero
    config = tmp_path / "zero.cfg"
    config.write_text("a = -0.0\n")
    runs = [["sweep", "--t-max", "800"], ["sweep", "--a-min", "-0.0", "--t-max", "-0.0"],
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
    dense = (reference.apply_channel, channel.coefficients_from_gammas, entanglement.concurrence)

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
        kernel = ExponentialKernel(1.0, 5.0)
        rates = table_rates(full_solution(kernel, 1.0, 3.0, 1e-3),
                            full_solution(kernel, omega_b, 3.0, 1e-3))
    else:
        rates = markov_rates(1.0)
    rho0 = xstate_to_dense(standard_family(1.0))
    states = interaction_trajectory(
        integrate_master(rho0, rates, AtomParams(1.0, omega_b), 3.0, 1e-3)).states
    evolved = apply_channel(rho0, coefficients_from_gammas(ga, gb))
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
