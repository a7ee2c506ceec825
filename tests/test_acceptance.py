"""End-to-end acceptance criteria, one test each. Loops over seeds and
times are single stacked calls; the module tests hold the unit checks,
among them the former criteria 4 (Kraus vs master) and 6 (local vs nonlocal
decay, both test_master), 8 (gamma = |b|, test_memory), 9 (concurrence
anchors, test_entanglement) and 10 (CPTP and the sweep surface, test_channel
and test_esd)."""

import math
from time import perf_counter

import numpy as np

from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import check_bound, concurrence
from esdkit.esd import disentanglement_time_exact
from esdkit.memory import ExponentialKernel, full_solution
from esdkit.reference import apply_channel
from esdkit.states import random_states, standard_family, xstate_to_dense

# both correctly rounded; disentanglement_time_exact must return them exactly
DEATH_TIME_A1 = math.log((2.0 + math.sqrt(2.0)) / 2.0)
DEATH_TIME_TWO_THIRDS = math.log(2.0)


def dense_concurrence(a, s) -> np.ndarray:
    """Family concurrence by the dense channel and eigenvalue route, one row
    per a, one column per rate*t in s."""
    rho0 = np.stack([xstate_to_dense(standard_family(float(x))) for x in np.atleast_1d(a)])
    g = np.exp(-0.5 * np.asarray(s, dtype=float))
    return concurrence(apply_channel(rho0[:, None], coefficients_from_gammas(g, g))).value


def assert_dense_crossing(a: float, t_d: float) -> None:
    before, after = dense_concurrence(a, [t_d - 1e-6, t_d + 1e-6])[0]
    assert before > 0.0 and after == 0.0


def test_criterion_01_finite_death_time_a1():
    start = perf_counter()
    assert disentanglement_time_exact(1.0, 1.0).t_d == DEATH_TIME_A1
    assert_dense_crossing(1.0, DEATH_TIME_A1)
    assert perf_counter() - start < 1.0


def test_criterion_02_phase_boundary():
    # the dense route dies by rate*t = 30 exactly above 1/3, on a = 0.30 .. 0.40
    # and within 1e-3 of the threshold
    a = np.r_[np.arange(30, 41) / 100.0, 1.0 / 3.0 - 1e-3, 1.0 / 3.0 + 1e-3]
    dies = np.any(dense_concurrence(a, np.arange(1, 301) * 0.1) == 0.0, axis=1)
    assert dies.tolist() == (a > 1.0 / 3.0).tolist()


def test_criterion_03_clean_death_time_value():
    assert disentanglement_time_exact(2.0 / 3.0, 1.0).t_d == DEATH_TIME_TWO_THIRDS
    assert_dense_crossing(2.0 / 3.0, DEATH_TIME_TWO_THIRDS)


def test_criterion_05_decay_bound_monte_carlo():
    # 1000 Ginibre states x 3 gammas in one stacked call
    start = perf_counter()
    g = np.array([0.9, 0.5, 0.1])
    rep = check_bound(random_states(range(1000))[:, None], coefficients_from_gammas(g, g),
                      slack=1e-10)
    assert rep.satisfied.shape == (1000, 3) and np.all(rep.satisfied)
    assert np.max(rep.first_branch_gap) < 1e-9
    assert np.max(rep.side_branch_max) < 1e-10
    assert perf_counter() - start < 30.0


def test_criterion_07_memoryless_limit_ladder():
    ladder = [(10.0, 1e-3), (100.0, 1e-4), (1000.0, 1e-5)]
    sups = [np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t)))
            for sol in (full_solution(ExponentialKernel(1.0, rate), 0.0, 3.0, dt)
                        for rate, dt in ladder)]
    assert sups[0] > sups[1] > sups[2] and sups[2] < 0.01
