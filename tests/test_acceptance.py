"""End-to-end acceptance criteria, one test each. Loops over seeds and
times are single stacked calls; the module tests hold the unit checks."""

import math
from functools import cache
from time import perf_counter

import numpy as np

from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import check_bound, concurrence, concurrence_x
from esdkit.esd import disentanglement_time_exact, sweep
from esdkit.master import AtomParams, integrate_master, interaction_trajectory, markov_rates
from esdkit.memory import ExponentialKernel, full_solution
from esdkit.reference import (
    apply_channel,
    build_kraus,
    completeness_defect,
    concurrence_markov,
    gamma_identity_defect,
    local_coherence_decay,
    pure_state,
    random_xstate,
)
from esdkit.states import XState, random_states, standard_family, xstate_to_dense

# both correctly rounded; disentanglement_time_exact must return them exactly
DEATH_TIME_A1 = math.log((2.0 + math.sqrt(2.0)) / 2.0)
DEATH_TIME_TWO_THIRDS = math.log(2.0)


def dense_concurrence(a, s) -> np.ndarray:
    """Family concurrence by the dense channel and eigenvalue route, one row
    per a, one column per rate*t in s."""
    rho0 = np.stack([xstate_to_dense(standard_family(float(x))) for x in np.atleast_1d(a)])
    g = np.exp(-0.5 * np.asarray(s, dtype=float))
    return concurrence(apply_channel(rho0[:, None], coefficients_from_gammas(g, g))).value


@cache
def memory_run(rate: float, dt: float):
    return full_solution(ExponentialKernel(1.0, rate), 0.0, 3.0, dt)


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


def test_criterion_04_kraus_master_equivalence():
    # all 3001 states of the a = 1 run against one stacked channel call
    start = perf_counter()
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = interaction_trajectory(
        integrate_master(rho0, markov_rates(1.0), AtomParams(1.0, 1.0), 3.0, 1e-3)
    )
    g = np.exp(-0.5 * traj.t)
    want = apply_channel(rho0, coefficients_from_gammas(g, g))
    assert traj.t.size == 3001
    assert np.max(np.abs(traj.states - want)) < 1e-8
    assert perf_counter() - start < 5.0


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


def test_criterion_06_local_vs_nonlocal_contrast():
    # up to rate*t = 1 each atom's coherence decays as e^(-t/2); the pair's
    # concurrence is already exactly zero there
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), markov_rates(1.0), AtomParams(1.3, 0.7), 1.0, 1e-3)
    coh_a, _ = local_coherence_decay(traj)
    assert np.max(np.abs(coh_a / coh_a[0] - np.exp(-0.5 * traj.t))) < 1e-9
    assert concurrence_markov(1.0, 1.0, 1.0) == 0.0 == dense_concurrence(1.0, [1.0])[0, 0]


def test_criterion_07_memoryless_limit_ladder():
    ladder = [(10.0, 1e-3), (100.0, 1e-4), (1000.0, 1e-5)]
    sups = [np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t)))
            for sol in (memory_run(rate, dt) for rate, dt in ladder)]
    assert sups[0] > sups[1] > sups[2] and sups[2] < 0.01


def test_criterion_08_residual_amplitude_identity():
    for rate, dt in ((10.0, 5e-4), (100.0, 1e-4), (1000.0, 1e-5)):
        assert gamma_identity_defect(memory_run(rate, dt)) < 1e-6


def test_criterion_09_concurrence_anchors():
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    p = np.array([0.0, 1.0 / 3.0, 0.6, 1.0])
    q = (1.0 - p) / 4.0
    werner = np.zeros((4, 4, 4), dtype=complex)
    werner[:, [0, 1, 2, 3], [0, 1, 2, 3]] = np.stack([q, q + p / 2.0, q + p / 2.0, q], axis=1)
    werner[:, 1, 2] = werner[:, 2, 1] = p / 2.0
    bell = xstate_to_dense(XState(0.0, 0.5, 0.5, 0.0, z23=0.5))
    c = concurrence(np.concatenate([bell[None], product[None], werner])).value
    assert abs(c[0] - 1.0) < 1e-12 and c[1] == 0.0
    assert np.max(np.abs(c[2:] - np.maximum(0.0, (3.0 * p - 1.0) / 2.0))) < 1e-10
    xs = [random_xstate(seed) for seed in range(1000)]
    dense = concurrence(np.stack([xstate_to_dense(x) for x in xs])).value
    assert np.max(np.abs([concurrence_x(x) for x in xs] - dense)) < 1e-10


def test_criterion_10_cptp_suite_and_surface():
    ga, gb = np.random.default_rng(2026).uniform(0.0, 1.0, size=(100, 2)).T
    for a, b in zip(ga, gb):
        kraus = build_kraus(coefficients_from_gammas(float(a), float(b)))
        assert len(kraus) == 4 and completeness_defect(kraus) < 1e-12
    out = apply_channel(random_states(range(100)), coefficients_from_gammas(ga, gb))
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) < 1e-12
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) < 1e-13
    assert np.min(np.linalg.eigvalsh(out)) > -1e-10

    t_grid = np.linspace(0.0, 3.0, 200)
    surf = sweep(np.linspace(0.0, 1.0, 101), t_grid, 1.0)
    assert surf.shape == (101, 200)
    assert np.all(surf >= 0.0) and np.all(np.diff(surf, axis=1) <= 1e-15)
    assert np.all(surf[0] > 0.0) and np.all(surf[-1][t_grid > 0.54] == 0.0)
