import json

import numpy as np
import pytest

from esdkit import cli
from esdkit.memory import ExponentialKernel
from esdkit.selfcheck import CheckResult

EVOLVE_HEADER = (
    "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
)

TD_A1 = 0.5347999967395706


def run(*argv: str) -> int:
    return cli.main(list(argv))


def load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


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
    assert abs(by_a[0.34]["t_d"] - 3.8162338506706663) < 1e-6
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
    assert run("td", "--a", "0.6666666666666666", "--method", "bisect") == 0
    bisect = json.loads(capsys.readouterr().out)
    assert bisect["kind"] == "finite"
    assert abs(bisect["t_d"] - np.log(2.0)) < 1e-6
    assert run("td", "--a", "0.6666666666666666", "--method", "exact") == 0
    exact = json.loads(capsys.readouterr().out)
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
    cfg.write_text("# defaults for this study\na = 0.6666666666666666\nmethod = exact\n")
    assert run("td", "--config", str(cfg)) == 0
    from_cfg = json.loads(capsys.readouterr().out)
    assert abs(from_cfg["t_d"] - np.log(2.0)) < 1e-12
    assert run("td", "--config", str(cfg), "--a", "1") == 0
    flag_wins = json.loads(capsys.readouterr().out)
    assert abs(flag_wins["t_d"] - TD_A1) < 1e-9


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


def test_check_reports_all_suites(capsys):
    assert run("check") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    lines = [ln for ln in out.splitlines() if ln.startswith("ok - ")]
    assert len(lines) >= 20
    assert out.splitlines()[-1].endswith("checks passed")


def test_check_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_all", lambda: [CheckResult(name="forced", passed=False, detail="x")]
    )
    assert run("check") == 4
    out = capsys.readouterr().out
    assert "FAIL - forced" in out
    assert "0/1 checks passed" in out


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


@pytest.mark.parametrize("slack", ["nan", "-1", "inf"])
def test_bound_rejects_bad_slack_exit_2(tmp_path, capsys, slack):
    out = tmp_path / "bound.csv"
    assert run("bound", "--samples", "3", "--slack", slack, "--output", str(out)) == 2
    assert "slack" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_td_non_finite_rate_exit_2(capsys, rate):
    for method in ("bisect", "exact"):
        assert run("td", "--a", "1", "--rate", rate, "--method", method) == 2
        assert "rate" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_sweep_non_finite_rate_exit_2(tmp_path, capsys, rate):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--a-steps", "3", "--t-steps", "4", "--rate", rate,
               "--output", str(out)) == 2
    assert "rate" in capsys.readouterr().err
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
