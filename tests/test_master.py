import dataclasses
import functools
import re
import warnings
from time import perf_counter

import numpy as np
import pytest

from esdkit.channel import DampingCoefficients
from esdkit.entanglement import concurrence
from esdkit.errors import IntegratorError
from esdkit.master import (
    COORDINATES,
    MODE_RATES,
    MODES,
    POSITIVITY_FLOOR,
    PRODUCT_ROWS,
    integrate_master,
    markov_rates,
    rk4_growth,
)
from esdkit.memory import ExponentialKernel, coefficient_f, solve_amplitude, uniform_grid
from esdkit.reference import (
    _DIAG_A,
    _DIAG_B,
    apply_channel,
    coefficients_markov,
    concurrence_markov,
    gamma_of_t,
    local_coherence_decay,
    master_rhs,
    pure_state,
    random_xstate,
)
from esdkit.states import random_state, standard_family, xstate_to_dense

# Bare frequencies for the lab-frame oracle; the production master never sees them.
OMEGA_A, OMEGA_B = 1.3, 0.7
# Only the |gg><gg| mode has a trace, and its growth factor is exactly 1, so
# the trace drifts by the rounding of the diagonal's sum alone (measured
# 2.2e-16 on every run here).
TRACE_TOL = 4 * np.finfo(float).eps


def test_markov_rates_values_and_validation():
    assert markov_rates(1.0) == (0.5, 0.5)
    assert markov_rates(1.0, 3.0) == (0.5, 1.5)
    with pytest.raises(ValueError):
        markov_rates(-1.0)
    with pytest.raises(ValueError):
        markov_rates(1.0, -0.5)


def test_ground_state_is_a_fixed_point():
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    rhs = master_rhs(rho, 0.5, 0.5, OMEGA_A, OMEGA_B)
    assert np.array_equal(rhs, np.zeros((4, 4), dtype=complex))


def test_rhs_is_hermitian_and_traceless():
    rho = random_state(11)
    rhs = master_rhs(rho, 0.4, 0.85, 1.1, 0.4)
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-13
    assert abs(np.trace(rhs)) < 1e-13


def test_rhs_single_excitation_coherence_pattern():
    # the |eg><ge| element sees decay (rate_a+rate_b)/2 plus the frequency
    # difference as a phase: factor -(1 + 0.5j) for these parameters
    fam = xstate_to_dense(standard_family(0.5))
    rhs = master_rhs(fam, 0.5, 0.5, 3.0, 2.5)
    assert rhs[1, 2] == -(1.0 + 0.5j) * fam[1, 2]
    rho = random_state(7)
    rhs = master_rhs(rho, 0.5, 0.5, 3.0, 2.5)
    assert abs(rhs[1, 2] - (-(1.0 + 0.5j) * rho[1, 2])) < 1e-15


def test_unitary_limit_is_a_phase_mask():
    # zero rates make the interaction-picture generator zero: every stored
    # state is rho0 bit for bit.  The lab frame turns it by the phase mask.
    rho0 = random_state(3)
    for zero in (0.0, np.zeros(4001)):
        traj = integrate_master(rho0, zero, zero, 2.0, 1e-3)
        assert all(np.array_equal(state, rho0) for state in traj.states)
    lab = reference_integrate(rho0, 0.0, 0.0, OMEGA_A, OMEGA_B, 2.0, 1e-3)
    h = OMEGA_A * _DIAG_A + OMEGA_B * _DIAG_B
    want = rho0 * np.exp(-1j * (h[:, None] - h[None, :]) * traj.t[-1])
    np.testing.assert_allclose(lab[-1], want, atol=1e-9)


def test_markov_evolution_matches_channel():
    rho0 = random_state(5)
    traj = integrate_master(rho0, *markov_rates(1.0), 1.0, 1e-3)
    want = apply_channel(rho0, coefficients_markov(1.0, 1.0))
    assert np.max(np.abs(traj.states[-1] - want)) < 1e-10
    assert traj.max_trace_drift() <= TRACE_TOL


def test_markov_run_matches_one_stacked_channel_call():
    # all 3001 states of the a = 1 run against one stacked channel call
    start = perf_counter()
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, *markov_rates(1.0), 3.0, 1e-3)
    g = np.exp(-0.5 * traj.t)
    want = apply_channel(rho0, DampingCoefficients(g, g))
    assert traj.t.size == 3001
    assert np.max(np.abs(traj.states - want)) < 1e-8
    assert perf_counter() - start < 5.0


def stage_rates(sol, dt):
    """Re f at the RK4 stages of master steps dt, read off a solve whose step
    divides dt/2 by stride, as evolve reads them."""
    return coefficient_f(sol).real[::round(0.5 * dt / sol.dt)]


def test_table_rates_match_channel_with_solved_gamma():
    # resonant structured reservoir: the master equation driven by the solved
    # coefficient must reproduce the damping channel built from gamma = |b|
    # to its own RK4 error (measured 1.1e-14), the solve having a point at
    # every stage; the trapezoid route exp(-integral Re f) trails by its
    # O(h^2) quadrature (2.8e-9)
    kernel = ExponentialKernel(1.0, 20.0, 5.0 - 5.0)  # centre 5 as an atom at 5 reads it
    sol = solve_amplitude(kernel, 2.0, 1e-4)
    rho0 = xstate_to_dense(standard_family(1.0))
    re_f = stage_rates(sol, 2e-4)
    traj = integrate_master(rho0, re_f, re_f, 2.0, 2e-4)
    reference_gamma = gamma_of_t(sol.t, coefficient_f(sol))
    for g, tol in ((float(sol.gamma[-1]), 1e-12), (float(reference_gamma[-1]), 1e-8)):
        want = apply_channel(rho0, DampingCoefficients(g, g))
        assert np.max(np.abs(traj.states[-1] - want)) < tol
    assert traj.max_trace_drift() <= TRACE_TOL


def test_trace_and_hermiticity_over_long_run():
    traj = integrate_master(
        xstate_to_dense(standard_family(0.7)), *markov_rates(1.0), 10.0, 1e-3
    )
    assert traj.max_trace_drift() <= TRACE_TOL
    assert traj.max_hermiticity_defect() < 1e-12


def test_negative_rates_trip_the_positivity_guard():
    rho0 = apply_channel(
        xstate_to_dense(standard_family(1.0)), coefficients_markov(1.0, 1.0)
    )
    with pytest.raises(IntegratorError):
        integrate_master(rho0, -1.0, -1.0, 2.0, 1e-3)


@pytest.mark.parametrize("rate", [1e4, 1e308])
def test_overflowing_step_raises_integrator_error(rate):
    # rate*dt = 10 is far outside the RK4 stability region, and rate = 1e308
    # overflows the modes' eigenvalues themselves
    rho0 = xstate_to_dense(standard_family(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegratorError, match="reduce dt"):
            integrate_master(rho0, *markov_rates(rate), 1.0, 1e-3)


def test_integrate_master_validates_input():
    bad = np.diag([0.7, 0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        integrate_master(bad, *markov_rates(1.0), 1.0, 0.1)
    one_qubit = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="two-qubit"):
        integrate_master(one_qubit, *markov_rates(1.0), 1.0, 0.1)


def test_interaction_picture_preserves_concurrence():
    # the lab frame differs by the local phases of H' alone
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, *markov_rates(1.0), 1.0, 1e-3)
    lab = reference_integrate(rho0, 0.5, 0.5, OMEGA_A, OMEGA_B, 1.0, 1e-3)
    for k in (0, 250, 500):  # the pair dies at t = 0.535
        gap = abs(concurrence(lab[k]).value - concurrence(traj.states[k]).value)
        assert gap < 1e-12


def test_local_coherence_single_atom_halves_rate():
    # atom A in (|e>+|g>)/sqrt(2), atom B in the ground state: the lowering
    # coherence decays at rate/2 while atom B never develops one
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), *markov_rates(1.0), 3.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    np.testing.assert_allclose(coh_a, 0.5 * np.exp(-0.5 * traj.t), atol=1e-9)
    assert np.max(coh_b) == 0.0
    np.testing.assert_allclose(coh_a / coh_a[0], np.exp(-0.5 * traj.t), atol=1e-9)


def test_local_coherence_decays_smoothly_while_concurrence_dies():
    # up to rate*t = 1 each atom's coherence decays as e^(-t/2); the pair's
    # concurrence is already exactly zero there
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), *markov_rates(1.0), 1.0, 1e-3)
    coh_a, _ = local_coherence_decay(traj)
    assert np.max(np.abs(coh_a / coh_a[0] - np.exp(-0.5 * traj.t))) < 1e-9
    dead = apply_channel(xstate_to_dense(standard_family(1.0)), coefficients_markov(1.0, 1.0))
    assert concurrence_markov(1.0, 1.0, 1.0) == 0.0 == concurrence(dead).value


def test_local_coherence_second_atom_and_unequal_rates():
    psi = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), *markov_rates(1.0, 2.0), 2.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    np.testing.assert_allclose(coh_b, 0.5 * np.exp(-1.0 * traj.t), atol=1e-9)
    assert np.max(coh_a) == 0.0


def test_local_coherence_is_picture_independent():
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), *markov_rates(1.0), 1.0, 1e-2)
    lab = reference_integrate(pure_state(psi), 0.5, 0.5, OMEGA_A, OMEGA_B, 1.0, 1e-2)
    a_int, b_int = local_coherence_decay(traj)
    a_lab, b_lab = local_coherence_decay(dataclasses.replace(traj, states=lab))
    np.testing.assert_allclose(a_lab, a_int, atol=1e-13)
    np.testing.assert_allclose(b_lab, b_int, atol=1e-13)


def test_diagonal_state_never_develops_coherence():
    rho0 = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
    traj = integrate_master(rho0, *markov_rates(1.0), 2.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    assert np.max(coh_a) == 0.0
    assert np.max(coh_b) == 0.0


def _herm(rho):
    return 0.5 * (rho + rho.conj().T)


def reference_integrate(rho0, f, g, omega_a, omega_b, t_max, dt):
    """The lab-frame oracle: a per-stage RK4 loop on reference.master_rhs,
    each stage argument re-Hermitianized.  f and g are the complex rates at
    the 2n + 1 RK4 stages, or one number each."""
    n = uniform_grid(t_max, dt).size - 1
    f, g = (np.broadcast_to(np.asarray(x, dtype=complex), (2 * n + 1,)) for x in (f, g))
    rho = np.asarray(rho0, dtype=complex)
    states = np.empty((n + 1, 4, 4), dtype=complex)
    states[0] = rho

    def rhs(r, k):
        return master_rhs(r, f[k], g[k], omega_a, omega_b)

    half = 0.5 * dt
    for i in range(n):
        k1 = rhs(rho, 2 * i)
        k2 = rhs(_herm(rho + half * k1), 2 * i + 1)
        k3 = rhs(_herm(rho + half * k2), 2 * i + 1)
        k4 = rhs(_herm(rho + dt * k3), 2 * i + 2)
        rho = _herm(rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        states[i + 1] = rho
    return states


def to_lab_frame(states, phase_a, phase_b):
    """exp(-i H t) rho exp(+i H t) with H t = phase_a sz_A/2 + phase_b sz_B/2,
    the accumulated H' phases on the grid."""
    h = np.multiply.outer(phase_a, _DIAG_A) + np.multiply.outer(phase_b, _DIAG_B)
    return np.exp(-1j * (h[..., :, None] - h[..., None, :])) * states


@functools.cache
def _structured_f(omega=5.0):
    # F of the kernel centred at 5 in the rotating frame of an atom at omega
    return coefficient_f(solve_amplitude(ExponentialKernel(1.0, 20.0, 5.0 - omega), 1.0, 1e-4))


def _markov_case(rate_a, rate_b, omega_a, omega_b):
    """Complex F, G and the exact H' phases on the 1.0 / 1e-3 grid."""
    grid = uniform_grid(1.0, 1e-3)
    return 0.5 * rate_a, 0.5 * rate_b, omega_a, omega_b, omega_a * grid, omega_b * grid


def _table_case():
    # F at the stages is every fifth amplitude point; the phase of Im F is
    # Simpson's rule on the stages, step by step
    f = _structured_f()[::5]
    grid = uniform_grid(1.0, 1e-3)
    steps = (1e-3 / 6.0) * (f.imag[:-1:2] + 4.0 * f.imag[1::2] + f.imag[2::2])
    phase = 5.0 * grid + np.concatenate(([0.0], np.cumsum(steps)))
    return f, f, 5.0, 5.0, phase, phase


def _jump_case(stage, atom):
    """One rate jumping from 0.5 to 1.5 at a stage of the 1.0 / 1e-3 grid,
    the other constant at 0.4, with no Im F: the phases are the bare ones."""
    jump = np.where(np.arange(2001) < stage, 0.5, 1.5)
    rates = (jump, 0.4) if atom == "f" else (0.4, jump)
    return (*rates, *_markov_case(0.0, 0.0, OMEGA_A, OMEGA_B)[2:])


RATE_CASES = {
    "equal": lambda: _markov_case(1.0, 1.0, OMEGA_A, OMEGA_B),
    "unequal": lambda: _markov_case(0.8, 1.7, 1.1, 0.4),
    "constant at rest": lambda: _markov_case(1.0, 0.6, 0.0, 0.0),
    "zero": lambda: _markov_case(0.0, 0.0, OMEGA_A, OMEGA_B),
    "table": _table_case,
    "f jumps mid-step": lambda: _jump_case(111, "f"),
    "g jumps at a grid point": lambda: _jump_case(128, "g"),
    "f jumps one stage after a grid point": lambda: _jump_case(129, "f"),
}
# The gap is the lab-frame oracle's own RK4 phase error.  In the table case
# z14 turns at omega_A + omega_B = 10: (10 dt)^5 / 120 per step gives
# 2.1e-11 over the run, and halving dt divides it by 16 (measured 1.3e-12).
# The Markov cases measure <= 3.3e-14.  At rest (no frequencies) the two
# frames coincide and the gap is round-off (measured 1.9e-14).  The jump
# cases measure 6.8e-14 (f mid-step), 1.6e-13 (g) and 6.8e-14 (f after a
# grid point) on the random state, and <= 1.9e-14 on the X state.
ORACLE_TOL = {"equal": 1e-12, "unequal": 1e-12, "zero": 1e-12, "table": 5e-11,
              "constant at rest": 5e-14, "f jumps mid-step": 3e-13,
              "g jumps at a grid point": 3e-13, "f jumps one stage after a grid point": 3e-13}


@pytest.mark.parametrize("state", ["random", "x"])
@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_step_propagators_match_the_per_stage_loop(case, state):
    # lab = U (interaction picture) U^dagger, U from the exact H' phases
    f, g, omega_a, omega_b, phase_a, phase_b = RATE_CASES[case]()
    rho0 = random_state(13) if state == "random" else xstate_to_dense(random_xstate(13))
    traj = integrate_master(rho0, np.real(f), np.real(g), 1.0, 1e-3)
    lab = reference_integrate(rho0, f, g, omega_a, omega_b, 1.0, 1e-3)
    assert np.max(np.abs(lab - to_lab_frame(traj.states, phase_a, phase_b))) <= ORACLE_TOL[case]
    # no projection, yet the stored states stay Hermitian
    assert traj.max_hermiticity_defect() <= 1e-14


def test_trajectory_reports_its_min_eigenvalue():
    traj = integrate_master(random_state(12), *markov_rates(1.0), 3.0, 1e-3)
    assert traj.min_eigenvalue == float(np.linalg.eigvalsh(traj.states).min())
    assert POSITIVITY_FLOOR <= traj.min_eigenvalue


@pytest.mark.parametrize("rate_a, rate_b", [
    (np.nan, None), (np.inf, None), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1.0),
])
def test_markov_rates_reject_non_finite(rate_a, rate_b):
    with pytest.raises(ValueError, match="finite"):
        markov_rates(rate_a, rate_b)


def test_rhs_on_a_stack_is_the_rhs_of_each_member():
    rhos = np.stack([random_state(s) for s in range(5)])
    stacked = master_rhs(rhos, 0.4, 0.85, 1.1, 0.4)
    for rho, out in zip(rhos, stacked):
        assert np.array_equal(out, master_rhs(rho, 0.4, 0.85, 1.1, 0.4))


def test_generator_pieces_are_master_rhs_on_unit_matrices():
    # master_rhs with one rate set to 1 and no frequencies, on each of the 16
    # unit matrices, gives each piece's columns.  They are real, and the
    # basis V = MODES.T and V^-1 = COORDINATES, written down with entries 0
    # and +-1, diagonalize both exactly, with MODE_RATES on the diagonal.
    v, w = MODES.T, COORDINATES
    assert set(np.unique(v)) == {-1.0, 0.0, 1.0} and set(np.unique(w)) == {0.0, 1.0}
    assert np.array_equal(w @ v, np.eye(16))
    lam = np.array([0.0, -2.0, -1.0, -1.0])  # |g><g|, |e><e| - |g><g|, |e><g|, |g><e|
    assert np.array_equal(MODE_RATES, [np.repeat(lam, 4), np.tile(lam, 4)])
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    for rates, eigenvalues in zip(np.eye(2), MODE_RATES):
        piece = master_rhs(units, *rates).reshape(16, 16).T
        assert np.all(piece.imag == 0.0)
        assert np.array_equal(w @ piece.real @ v, np.diag(eigenvalues))
        assert np.array_equal(v @ np.diag(eigenvalues) @ w, piece.real)


def test_rk4_growth_of_a_constant_rate_is_the_taylor_sum():
    lam = np.linspace(-40.0, 10.0, 501)
    x = 0.05 * lam
    want = 1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0
    np.testing.assert_allclose(rk4_growth(lam, lam, lam, 0.05), want, rtol=1e-14, atol=1e-15)
    assert np.all(rk4_growth(np.zeros(3), np.zeros(3), np.zeros(3), 0.05) == 1.0)


def test_rk4_growth_is_one_rk4_step_of_a_time_dependent_rate():
    # classical RK4 with stages at t, t + h/2 (twice) and t + h on y' = l(t) y
    rng = np.random.default_rng(9)
    l1, l2, l4 = rng.standard_normal((3, 7, 16))
    inputs = [l.copy() for l in (l1, l2, l4)]
    y = rng.standard_normal((7, 16))
    h = 0.1
    k1 = l1 * y
    k2 = l2 * (y + 0.5 * h * k1)
    k3 = l2 * (y + 0.5 * h * k2)
    k4 = l4 * (y + h * k3)
    want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    np.testing.assert_allclose(rk4_growth(l1, l2, l4, h) * y, want, rtol=1e-14, atol=1e-15)
    # the stages are formed in buffers of its own, never in the rates
    assert all(np.array_equal(a, b) for a, b in zip((l1, l2, l4), inputs))


@pytest.mark.parametrize("re_f, re_g", [(0.5, 0.5), (0.5, 0.3), (0.0, 0.85), (1e-300, 0.0)])
def test_constant_rates_are_the_table_path_bit_for_bit(re_f, re_g):
    # one number each is one step's stages whose factor every step shares:
    # the same states as the rates spelled out on all 6001 stages, whether
    # both, one or neither is an array
    rho0 = random_state(6)
    want = integrate_master(rho0, re_f, re_g, 3.0, 1e-3).states
    table_f, table_g = np.full(6001, re_f), np.full(6001, re_g)
    for rates in ((table_f, table_g), (table_f, re_g), (re_f, table_g)):
        assert np.array_equal(integrate_master(rho0, *rates, 3.0, 1e-3).states, want)


def single_product_states(rho0, re_f, re_g, t_max, dt):
    """integrate_master's states with the growth factors and the basis
    change multiplied in one product, as before the row blocks."""
    n = uniform_grid(t_max, dt).size - 1
    rates = np.empty((2 * n + 1, 2))
    rates[:, 0], rates[:, 1] = re_f, re_g
    modes = rates @ MODE_RATES
    growth = np.ones((n + 1, 16))
    np.cumprod(rk4_growth(modes[:-1:2], modes[1::2], modes[2::2], dt), axis=0, out=growth[1:])
    growth -= 1.0
    scaled = ((COORDINATES @ rho0.ravel())[:, None] * MODES).view(float)
    flat = (growth @ scaled).view(complex)
    flat += rho0.ravel()
    return flat.reshape(n + 1, 4, 4)


@pytest.mark.parametrize("steps", [1, 2, PRODUCT_ROWS - 1, PRODUCT_ROWS, PRODUCT_ROWS + 1,
                                   2 * PRODUCT_ROWS, 3000])
def test_row_blocked_product_is_the_single_product_bit_for_bit(steps):
    # 3000 steps is the default evolve grid, 3001 rows in 6 blocks, whose
    # single product is past OpenBLAS's threading threshold; 512 and 1024
    # steps would leave a one-row block, had the blocks not equal sizes
    rho0 = random_state(8)
    t_max = steps * 1e-3
    re_f = 0.5 + 0.4 * np.sin(np.arange(2 * steps + 1) * 1e-3)
    traj = integrate_master(rho0, re_f, 0.3, t_max, 1e-3)
    assert np.array_equal(traj.states, single_product_states(rho0, re_f, 0.3, t_max, 1e-3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_are_refused_at_their_first_stage(bad):
    rho0 = xstate_to_dense(standard_family(1.0))
    re_f = np.full(401, 0.5)
    re_f[[7, 30]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = f"(Re F, Re G) = ({bad}, 0.4) at stage 7, t = 0.0035, are not finite"
        with pytest.raises(IntegratorError, match=re.escape(want)):
            integrate_master(rho0, re_f, 0.4, 0.2, 1e-3)
        with pytest.raises(IntegratorError, match=r"at stage 0, t = 0.0, are not finite"):
            integrate_master(rho0, 0.5, bad, 0.2, 1e-3)


@pytest.mark.parametrize("shape", [(400,), (402,), (401, 1), (1,)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_rate_arrays_must_hold_every_stage(shape):
    rho0 = xstate_to_dense(standard_family(1.0))
    for rates in ((np.full(shape, 0.5), 0.4), (0.5, np.full(shape, 0.4))):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}; the 200-step grid "
                                                       "takes one number or 2n + 1 = 401")):
            integrate_master(rho0, *rates, 0.2, 1e-3)
