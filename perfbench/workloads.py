"""The four benchmark workloads: inputs made from a seed, the esdkit argv, and
the check that each repetition's output is correct.

Every reference is computed once per run, when the workload is built, so no
reference work falls inside a timed repetition.  Tolerances come from
docs/invariants.md.  Inputs are drawn from the seed without steering around
known failure regions of the program: a sweep grid that lands in the
ill-conditioned band just above a = 1/3 fails and is counted as such.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

EVOLVE_HEADER = "t,concurrence,local_coh_A,local_coh_B,trace_err,bound_rhs,kraus_vs_master_maxdiff"
TRACE_ERR_TOL = 1e-10  # master trace drift over rate*t = 10 at dt = 1e-3
MAXDIFF_TOL = 1e-8  # Kraus channel vs master integration over the evolve grid
BOUND_SLACK = 1e-10  # decay bound C(channel(rho)) <= gA gB C(rho) + 1e-10
CLOSED_FORM_TOL = 1e-10  # eigenvalue-route concurrence vs the closed form
GAMMA_TOL = 1e-6  # gamma(t) from the amplitude solve vs |b(t)|
TD_TOL = 1e-8  # death time vs reference, in units of 1/rate
SURFACE_TOL = 1e-12  # sweep surface entries vs the closed form
REFERENCE_SAMPLES = 16  # sweep rows and death times checked per repetition
REFERENCE_DIGITS = 50


@dataclass
class Workload:
    """One workload instance: argv for esdkit, the files it writes, a check."""

    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], list[str]]


def _family_concurrence(a, t):
    """(2/3) max(0, g2 f) with g2 = e^{-t}: the family concurrence at rate 1."""
    g2 = mpmath.exp(-t)
    w2 = 1 - g2
    f = 1 - mpmath.sqrt(a * (1 - a + 2 * w2 + w2 * w2 * a))
    return max(mpmath.mpf(0), mpmath.mpf(2) / 3 * g2 * f)


def _death_time(a):
    """-ln(1 - w2_d) with w2_d = (sqrt(a^2 - a + 2) - 1)/a, rate 1, a > 1/3."""
    a = mpmath.mpf(a)
    w2_d = (mpmath.sqrt(a * a - a + 2) - 1) / a
    return -mpmath.log(1 - w2_d)


def _read_csv(path: Path, header: str) -> tuple[np.ndarray | None, list[str]]:
    text = path.read_text()
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        return None, [f"{path.name}: header {lines[0]!r}, expected {header!r}"]
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return None, [f"{path.name}: unparsable row ({exc})"]
    return rows, []


def _check_evolve(path: Path, rows_expected: int, dt: float, concurrence: np.ndarray | None,
                  gamma: np.ndarray | None) -> list[str]:
    """Gate an evolve CSV; concurrence and gamma are optional per-row references."""
    rows, problems = _read_csv(path, EVOLVE_HEADER)
    if rows is None:
        return problems
    if rows.shape != (rows_expected, 7):
        return [f"{path.name}: shape {rows.shape}, expected ({rows_expected}, 7)"]
    t, conc, coh_a, coh_b, trace_err, bound_rhs, maxdiff = rows.T
    gaps = [
        ("t grid gap", float(np.max(np.abs(t - np.arange(rows_expected) * dt))), 1e-12),
        ("max trace_err", float(trace_err.max()), TRACE_ERR_TOL),
        ("max kraus_vs_master_maxdiff", float(maxdiff.max()), MAXDIFF_TOL),
        ("max concurrence - bound_rhs", float((conc - bound_rhs).max()), BOUND_SLACK),
    ]
    if concurrence is not None:
        gaps.append(("concurrence vs closed form",
                     float(np.max(np.abs(conc - concurrence))), CLOSED_FORM_TOL))
    if gamma is not None:
        gaps.append(("local coherence vs exact |b|",
                     float(np.max(np.abs(np.concatenate([coh_a - gamma, coh_b - gamma])))),
                     GAMMA_TOL))
    return [f"{path.name}: {label} {value:.3e} > {limit:.0e}"
            for label, value, limit in gaps if not value <= limit]


def evolve_markov(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Default evolve on the family with a in (1/3, 1] picked by the seed."""
    rng = random.Random(seed)
    a = 1.0 - (2.0 / 3.0) * rng.random()
    dt = 1e-3
    n = 50 if tiny else 3000
    argv = ["evolve", "--a", repr(a), "--output", "evolve.csv"]
    if tiny:
        argv += ["--t-max", repr(n * dt)]
    with mpmath.workdps(REFERENCE_DIGITS):
        reference = np.array([
            float(_family_concurrence(mpmath.mpf(a), mpmath.mpf(i * dt))) for i in range(n + 1)
        ])
    return Workload(
        argv, ["evolve.csv"],
        lambda d: _check_evolve(d / "evolve.csv", n + 1, dt, reference, None),
    )


def _exponential_amplitude(lam: float, centre: float, dt: float, rows: int) -> np.ndarray:
    """|b(k dt)|, k < rows, for the kernel (1/2) lam e^{-(lam + i centre) tau}
    at atom frequency 1.

    The memory integral z obeys z' = (lam/2) b - (lam + i centre) z, so (b, z)
    is a linear pair, stepped here by its exact propagator expm(m dt).  The
    pair is defective at lam = 2, centre = 1, so no eigenbasis is used.
    """
    step = mpmath.expm(mpmath.matrix([[-1j, -1], [0.5 * lam, -(lam + 1j * centre)]]) * dt)
    y = mpmath.matrix([1, 0])
    out = []
    for _ in range(rows):
        out.append(float(abs(y[0])))
        y = step * y
    return np.array(out)


def evolve_memory(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """evolve with a 50 001-row tabulated exponential kernel (rate and centre
    from the seed), solved at the table step by the trapezoid Volterra solver."""
    rng = random.Random(seed)
    lam = rng.uniform(2.0, 20.0)
    centre = rng.uniform(-0.5, 1.0)
    mem_dt = 2e-5
    steps = 2000 if tiny else 50000
    t_max = round(steps * mem_dt, 12)
    tau = np.arange(steps + 1) * mem_dt
    alpha = 0.5 * lam * np.exp(-(lam + 1j * centre) * tau)
    with open(workdir / "kernel.txt", "w") as fh:
        fh.write(f"# exponential kernel, memory rate {lam!r}, centre {centre!r}\n")
        fh.writelines(f"{x:.17g} {y.real:.17g} {y.imag:.17g}\n" for x, y in zip(tau, alpha))
    dt = 1e-3
    rows = int(round(t_max / dt)) + 1
    with mpmath.workdps(REFERENCE_DIGITS):
        gamma = _exponential_amplitude(lam, centre, dt, rows)
    argv = ["evolve", "--kernel-file", "kernel.txt", "--t-max", repr(t_max),
            "--mem-dt", repr(mem_dt), "--output", "evolve.csv"]
    return Workload(
        argv, ["evolve.csv"],
        lambda d: _check_evolve(d / "evolve.csv", rows, dt, None, gamma),
    )


def bound_audit(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """bound over 1000 Ginibre states starting at the seed, three gammas each."""
    samples = 3 if tiny else 1000
    checks = 3 * samples
    argv = ["bound", "--samples", str(samples), "--seed", str(seed % 2**31),
            "--output", "bound.csv"]
    trailer = f"# satisfied {checks}/{checks}, "

    def check(d: Path) -> list[str]:
        lines = (d / "bound.csv").read_text().rstrip("\n").split("\n")
        if len(lines) != checks + 2:
            return [f"bound.csv: {len(lines)} lines, expected {checks + 2}"]
        if not lines[-1].startswith(trailer):
            return [f"bound.csv: trailer {lines[-1]!r}, expected {trailer!r}..."]
        return []

    return Workload(argv, ["bound.csv"], check)


def sweep_threshold(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """sweep from a seeded a_min in [0, 1e-3) to 1, crossing a = 1/3."""
    rng = random.Random(seed)
    a_min = rng.random() * 1e-3
    a_steps, t_steps, t_max = (201, 3, 3.0) if tiny else (20001, 10, 3.0)
    argv = ["sweep", "--a-min", repr(a_min), "--a-max", "1", "--a-steps", str(a_steps),
            "--t-steps", str(t_steps), "--output", "sweep.csv"]
    # The program builds the same grids with numpy.linspace.
    a_grid = np.linspace(a_min, 1.0, a_steps)
    t_grid = np.linspace(0.0, t_max, t_steps)
    finite = [Fraction(float(a)) > Fraction(1, 3) for a in a_grid]
    picks = rng.sample(range(a_steps), min(REFERENCE_SAMPLES, a_steps))
    picks.append(finite.index(True))  # the grid point closest above the threshold
    rows = rng.sample(range(a_steps * t_steps), REFERENCE_SAMPLES)
    with mpmath.workdps(REFERENCE_DIGITS):
        td_ref = {i: float(_death_time(float(a_grid[i]))) for i in picks if finite[i]}
        surface_ref = {
            r: float(_family_concurrence(mpmath.mpf(float(a_grid[r // t_steps])),
                                         mpmath.mpf(float(t_grid[r % t_steps]))))
            for r in rows
        }

    def check(d: Path) -> list[str]:
        lines = (d / "sweep.csv").read_text().split("\n")
        if lines[0] != "a,t,concurrence" or len(lines) != a_steps * t_steps + 2 or lines[-1]:
            return [f"sweep.csv: {len(lines) - 2} rows or bad header {lines[0]!r}"]
        problems = []
        for r, ref in surface_ref.items():
            value = float(lines[1 + r].split(",")[2])
            if not abs(value - ref) <= SURFACE_TOL:
                problems.append(f"sweep.csv row {r}: concurrence {value!r}, reference {ref!r}")
        summary = json.loads((d / "sweep_summary.json").read_text())
        if len(summary) != a_steps:
            return problems + [f"sweep_summary.json: {len(summary)} entries, expected {a_steps}"]
        for i, (entry, is_finite) in enumerate(zip(summary, finite)):
            if entry["kind"] != ("finite" if is_finite else "asymptotic"):
                problems.append(f"summary[{i}] a={entry['a']!r}: kind {entry['kind']!r}")
        for i, ref in td_ref.items():
            t_d = summary[i]["t_d"]
            if t_d is None or not abs(t_d - ref) <= TD_TOL:
                problems.append(f"summary[{i}] a={summary[i]['a']!r}: t_d {t_d!r}, reference {ref!r}")
        return problems

    return Workload(argv, ["sweep.csv", "sweep_summary.json"], check)


BUILDERS: dict[str, Callable[[int, Path, bool], Workload]] = {
    "evolve_markov": evolve_markov,
    "bound_audit": bound_audit,
    "evolve_memory": evolve_memory,
    "sweep_threshold": sweep_threshold,
}

