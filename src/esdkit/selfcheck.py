"""Fast invariant suites behind the check subcommand.

Each check is a seeded, deterministic subset of the module invariants that
runs a route the subcommands run; the exhaustive versions, and the checks of
the cross-check routes themselves, live in the test suite.  A check either
passes or carries a short failure detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import DampingCoefficients
from .cli import atom_kernel
from .entanglement import check_bound, concurrence, concurrence_x
from .esd import death_time_s, family_concurrence
from .linalg import dagger
from .master import integrate_master, markov_rates
from .memory import ExponentialKernel, TabulatedKernel, solve_amplitude
from .reference import (apply_channel, coefficients_markov, disentanglement_time,
                        gamma_identity_defect, pure_state, random_xstate, volterra_residual)
from .states import (assert_density_matrix, random_state, random_states, standard_family,
                     xstate_to_dense)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_local_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w, v = np.linalg.eigh(0.5 * (g + dagger(g)))
        blocks.append(v @ np.diag(np.exp(1j * w)) @ dagger(v))
    return np.kron(blocks[0], blocks[1])


def check_states_family() -> tuple[bool, str]:
    for a in np.linspace(0.0, 1.0, 21):
        rho = xstate_to_dense(standard_family(float(a)))
        assert_density_matrix(rho)
    return True, "family valid on a grid of 21 points"


def check_concurrence_anchors() -> tuple[bool, str]:
    bell = pure_state(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))
    c_bell = concurrence(bell).value
    prod = pure_state(np.array([1.0, 0.0, 0.0, 0.0]))
    c_prod = concurrence(prod).value
    ok = abs(c_bell - 1.0) < 1e-12 and c_prod == 0.0
    return ok, f"bell {c_bell!r}, product {c_prod!r}"


def check_concurrence_x_agreement() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(200):
        x = random_xstate(seed)
        worst = max(worst, abs(concurrence(xstate_to_dense(x)).value - concurrence_x(x)))
    return worst < 1e-10, f"max closed-form gap {worst:.2e}"


def check_concurrence_local_unitary() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(50):
        rho = random_state(seed)
        u = _random_local_unitary(seed)
        worst = max(worst, abs(concurrence(u @ rho @ dagger(u)).value - concurrence(rho).value))
    return worst < 1e-9, f"max invariance defect {worst:.2e}"


def check_bound_random() -> tuple[bool, str]:
    # One stacked call, seed-major like cmd_bound: the report arrays are (seeds, gammas).
    gammas = np.array([0.9, 0.5, 0.1])
    rhos = random_states(range(200))
    rep = check_bound(rhos[:, None], DampingCoefficients(gammas, gammas))
    gaps = rep.lhs - rep.rhs
    if not rep.satisfied.all():
        seed, j = np.argwhere(~rep.satisfied)[0]
        return False, f"violated at seed {seed}, gamma {gammas[j]}: gap {gaps[seed, j]:.2e}"
    return True, f"worst lhs-rhs gap {gaps.max():.2e}"


def check_memory_resonant_frame() -> tuple[bool, str]:
    # An atom at omega = 50 reads a kernel centred at 50, single pole or
    # table, at zero detuning: gamma is the two-exponential closed form.
    pole, t, d = ExponentialKernel(1.0, 5.0, 50.0), np.arange(2001) * 1e-3, np.sqrt(15.0)
    want = ((1 + 5 / d) * np.exp((d - 5) * t / 2) + (1 - 5 / d) * np.exp(-(d + 5) * t / 2)) / 2
    gaps = [np.max(np.abs(solve_amplitude(atom_kernel(k, 50.0, 2.0, 1e-3), 2.0, 1e-3,
                                          tol=np.inf).gamma - want))
            for k in (pole, TabulatedKernel(t, pole.evaluate(t)))]
    return (gaps[0] < 1e-8 and gaps[1] < 1e-6,
            f"gap to the closed form {gaps[0]:.2e} (pole), {gaps[1]:.2e} (table)")


def check_memory_markov_limit() -> tuple[bool, str]:
    sol = solve_amplitude(ExponentialKernel(1.0, 100.0), 3.0, 5e-5)
    worst = float(np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t))))
    return worst < 0.02, f"sup deviation from Markov decay {worst:.2e}"


def check_memory_gamma_identity() -> tuple[bool, str]:
    sol = solve_amplitude(ExponentialKernel(1.0, 20.0), 3.0, 2e-4)
    defect = gamma_identity_defect(sol)
    return defect < 1e-6, f"gamma vs |b| defect {defect:.2e}"


def check_memory_residual_order() -> tuple[bool, str]:
    kernel = ExponentialKernel(1.0, 5.0)
    res = []
    for dt in (4e-3, 2e-3):
        sol = solve_amplitude(kernel, 2.0, dt, tol=np.inf)
        res.append(float(np.max(volterra_residual(sol, kernel))))
    ratio = res[0] / res[1]
    return ratio > 3.5, f"residual ratio under halving {ratio:.2f}"


def check_master_conservation() -> tuple[bool, str]:
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, *markov_rates(1.0), 5.0, 1e-3)
    drift = max(traj.max_trace_drift(), traj.max_hermiticity_defect())
    return drift < 1e-10, f"max trace/hermiticity drift {drift:.2e}"


def check_master_matches_channel() -> tuple[bool, str]:
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, *markov_rates(1.0), 1.0, 1e-3)
    worst = 0.0
    for i in range(0, traj.t.size, 100):
        ref = apply_channel(rho0, coefficients_markov(1.0, float(traj.t[i])))
        worst = max(worst, float(np.max(np.abs(traj.states[i] - ref))))
    return worst < 1e-8, f"max interaction-picture gap to the channel {worst:.2e}"


def check_esd_paths_agree() -> tuple[bool, str]:
    a = np.linspace(0.35, 1.0, 14)
    bisected = np.array([disentanglement_time(x) for x in a.tolist()])
    worst = float(np.max(np.abs(bisected - death_time_s(a))))
    return worst < 1e-9, f"max bisection-vs-closed-form gap {worst:.2e}"


def check_esd_zero_stays_zero() -> tuple[bool, str]:
    s_d = float(death_time_s(1.0))
    gamma = np.exp(-0.5 * np.linspace(s_d * (1 + 1e-12), 5.0, 40))
    worst = float(np.max(family_concurrence(1.0, gamma, gamma)))
    return worst == 0.0, f"max concurrence past death {worst!r}"


def check_esd_threshold() -> tuple[bool, str]:
    for a in (0.2, 0.32, 1.0 / 3.0):
        if death_time_s(a) != np.inf:
            return False, f"a={a} misclassified as finite"
    for a in (0.35, 0.5, 1.0):
        if death_time_s(a) == np.inf:
            return False, f"a={a} misclassified as asymptotic"
    return True, "threshold sits above one third"


_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("states: standard family is a valid state for all a", check_states_family),
    ("entanglement: Bell gives 1 and product states give 0", check_concurrence_anchors),
    ("entanglement: Hermitian route matches the X closed form", check_concurrence_x_agreement),
    ("entanglement: concurrence is local-unitary invariant", check_concurrence_local_unitary),
    ("entanglement: decay bound holds on random states", check_bound_random),
    ("memory: an atom at the kernel centre sees the resonant closed form",
     check_memory_resonant_frame),
    ("memory: broad kernel approaches the Markov law", check_memory_markov_limit),
    ("memory: gamma equals |b|", check_memory_gamma_identity),
    ("memory: residual diagnostic converges at second order", check_memory_residual_order),
    ("master: trace and Hermiticity are conserved", check_master_conservation),
    ("master: Markov evolution matches the channel", check_master_matches_channel),
    ("esd: bisection agrees with the closed form", check_esd_paths_agree),
    ("esd: concurrence stays exactly zero past death", check_esd_zero_stays_zero),
    ("esd: finite death starts above one third", check_esd_threshold),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
