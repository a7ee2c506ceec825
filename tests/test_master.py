import dataclasses
import functools
import warnings
from time import perf_counter

import numpy as np
import pytest

from esdkit import master
from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import concurrence
from esdkit.errors import IntegratorError
from esdkit.master import (
    POSITIVITY_FLOOR,
    integrate_master,
    markov_rates,
    rk4_step_matrix,
)
from esdkit.memory import ExponentialKernel, full_solution, uniform_grid
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


def test_markov_run_matches_one_stacked_channel_call():
    # all 3001 states of the a = 1 run against one stacked channel call
    start = perf_counter()
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, *markov_rates(1.0), 3.0, 1e-3)
    g = np.exp(-0.5 * traj.t)
    want = apply_channel(rho0, coefficients_from_gammas(g, g))
    assert traj.t.size == 3001
    assert np.max(np.abs(traj.states - want)) < 1e-8
    assert perf_counter() - start < 5.0


def stage_rates(sol, dt):
    """Re f at the RK4 stages of master steps dt, read off a solve whose step
    divides dt/2 by stride, as evolve reads them."""
    return sol.f.real[::round(0.5 * dt / sol.dt)]


def test_table_rates_match_channel_with_solved_gamma():
    # resonant structured reservoir: the master equation driven by the solved
    # coefficient must reproduce the damping channel built from gamma = |b|
    # to its own RK4 error (measured 4.9e-13), the solve having a point at
    # every stage; the trapezoid route exp(-integral Re f) trails by its
    # O(h^2) quadrature (2.8e-9)
    kernel = ExponentialKernel(1.0, 20.0, 5.0 - 5.0)  # centre 5 as an atom at 5 reads it
    sol = full_solution(kernel, 2.0, 1e-4)
    rho0 = xstate_to_dense(standard_family(1.0))
    re_f = stage_rates(sol, 2e-4)
    traj = integrate_master(rho0, re_f, re_f, 2.0, 2e-4)
    for g, tol in ((float(sol.gamma[-1]), 1e-12), (float(gamma_of_t(sol).gamma[-1]), 1e-8)):
        want = apply_channel(rho0, coefficients_from_gammas(g, g))
        assert np.max(np.abs(traj.states[-1] - want)) < tol


def test_trace_and_hermiticity_over_long_run():
    traj = integrate_master(
        xstate_to_dense(standard_family(0.7)), *markov_rates(1.0), 10.0, 1e-3
    )
    assert traj.max_trace_drift() < 1e-10
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
    # overflows the step matrix itself
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
def _structured_solution(omega=5.0):
    # the kernel centred at 5 in the rotating frame of an atom at omega
    return full_solution(ExponentialKernel(1.0, 20.0, 5.0 - omega), 1.0, 1e-4)


def _markov_case(rate_a, rate_b, omega_a, omega_b):
    """Complex F, G and the exact H' phases on the 1.0 / 1e-3 grid."""
    grid = uniform_grid(1.0, 1e-3)
    return 0.5 * rate_a, 0.5 * rate_b, omega_a, omega_b, omega_a * grid, omega_b * grid


def _table_case():
    # F at the stages is every fifth amplitude point; the phase of Im F is
    # Simpson's rule on the stages, step by step
    f = _structured_solution().f[::5]
    grid = uniform_grid(1.0, 1e-3)
    steps = (1e-3 / 6.0) * (f.imag[:-1:2] + 4.0 * f.imag[1::2] + f.imag[2::2])
    phase = 5.0 * grid + np.concatenate(([0.0], np.cumsum(steps)))
    return f, f, 5.0, 5.0, phase, phase


RATE_CASES = {
    "equal": lambda: _markov_case(1.0, 1.0, OMEGA_A, OMEGA_B),
    "unequal": lambda: _markov_case(0.8, 1.7, 1.1, 0.4),
    "zero": lambda: _markov_case(0.0, 0.0, OMEGA_A, OMEGA_B),
    "table": _table_case,
}
# The gap is the lab-frame oracle's own RK4 phase error.  In the table case
# z14 turns at omega_A + omega_B = 10: (10 dt)^5 / 120 per step gives
# 2.1e-11 over the run, and halving dt divides it by 16 (measured 1.3e-12).
# The Markov cases measure <= 3.3e-14.
ORACLE_TOL = {"equal": 1e-12, "unequal": 1e-12, "zero": 1e-12, "table": 5e-11}


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


def _structured_rates(t_max=0.2, dt=1e-3):
    """Re F and Re G of two detuned atoms at the stages of the t_max grid."""
    stages = 2 * round(t_max / dt) + 1
    return (stage_rates(_structured_solution(5.0), dt)[:stages],
            stage_rates(_structured_solution(4.0), dt)[:stages])


@pytest.mark.parametrize("block", [1, 7, 16, 205])
def test_propagator_block_does_not_change_outputs(monkeypatch, block):
    rates = _structured_rates()
    rho0 = random_state(4)
    want = integrate_master(rho0, *rates, 0.2, 1e-3)
    markov = integrate_master(rho0, *markov_rates(1.0, 0.6), 0.2, 1e-3)
    monkeypatch.setattr(master, "PROPAGATOR_BLOCK", block)  # 205 = n + 5
    got = integrate_master(rho0, *rates, 0.2, 1e-3)
    assert np.array_equal(got.states, want.states)
    # constant rates take powers of one step matrix, whatever the block
    got = integrate_master(rho0, *markov_rates(1.0, 0.6), 0.2, 1e-3)
    assert np.array_equal(got.states, markov.states)


def integrate_building_every_block(rho0, re_f, re_g, t_max, dt):
    """integrate_master's stepping on table rates, with the step matrices
    of every block built afresh and applied one matvec at a time, also for
    constant rates."""
    n = uniform_grid(t_max, dt).size - 1
    coeffs = np.empty((2 * n + 1, 2))
    coeffs[:, 0], coeffs[:, 1] = re_f, re_g
    flat = np.empty((n + 1, 16), dtype=complex)
    flat[0] = np.asarray(rho0, dtype=complex).ravel()
    for lo in range(0, n, master.PROPAGATOR_BLOCK):
        hi = min(lo + master.PROPAGATOR_BLOCK, n)
        gen = (coeffs[2 * lo:2 * hi + 1] @ master._PIECES).reshape(-1, 16, 16)
        for i, step in enumerate(rk4_step_matrix(gen[:-1:2], gen[1::2], gen[2::2], dt), lo):
            flat[i + 1] = step @ flat[i]
    return flat.reshape(n + 1, 4, 4)


def count_step_builds(monkeypatch):
    """The generator stacks integrate_master passes to rk4_step_matrix."""
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return rk4_step_matrix(*args)

    monkeypatch.setattr(master, "rk4_step_matrix", counting)
    return calls


def test_constant_rates_build_one_step_matrix(monkeypatch):
    calls = count_step_builds(monkeypatch)
    integrate_master(random_state(6), *markov_rates(1.0), 3.0, 1e-3)
    assert calls == [(16, 16)]
    calls.clear()
    integrate_master(random_state(6), *_structured_rates(), 0.2, 1e-3)
    # table rates build every block: 200 steps are 12 blocks of 16 and one of 8
    assert calls == [(16, 16, 16)] * 12 + [(8, 16, 16)]


@pytest.mark.parametrize("rho0", [
    xstate_to_dense(standard_family(0.8)), random_state(6),
], ids=["family", "random"])
def test_constant_rate_powers_match_stepping_every_block(rho0):
    # 3000 matvecs against about log2(3000) products of one step matrix:
    # the two roundings differ by 2.5e-14 at most (measured)
    traj = integrate_master(rho0, *markov_rates(1.0, 0.6), 3.0, 1e-3)
    want = integrate_building_every_block(rho0, *markov_rates(1.0, 0.6), 3.0, 1e-3)
    assert np.max(np.abs(traj.states - want)) <= 1e-13


def jump_rates(stage, before, after):
    """A rate on the 401 stage times of the 0.2 / 1e-3 grid that jumps from
    before to after at the given stage index."""
    return np.where(np.arange(401) < stage, before, after)


# Block k holds stage rows 32k..32k+32, so row 128 is the last of block 3
# and the first of block 4.  200 steps make 13 blocks, the last 8 steps long.
JUMPS = {
    "f mid-block": (2 * (3 * 16 + 7) + 1, "f"),
    "g on a block boundary": (128, "g"),
    "f one stage after a boundary": (129, "f"),
}


@pytest.mark.parametrize("name", sorted(JUMPS))
def test_piecewise_constant_rates_match_building_every_block(name):
    stage, atom = JUMPS[name]
    jump = jump_rates(stage, 0.5, 1.5)
    rates = (jump, 0.4) if atom == "f" else (0.4, jump)
    rho0 = random_state(8)
    want = integrate_building_every_block(rho0, *rates, 0.2, 1e-3)
    traj = integrate_master(rho0, *rates, 0.2, 1e-3)
    assert np.array_equal(traj.states, want)


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
    # _PIECES is built from the Lindblad terms; master_rhs with one rate set
    # to 1 and no frequencies, on each of the 16 unit matrices, gives each
    # piece's columns independently.  They are real: the real parts match
    # bit for bit, down to the signs of their zeros, and the imaginary
    # parts are exactly 0.
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    pieces = np.array([master_rhs(units, re_f, re_g).reshape(16, 16).T.ravel()
                       for re_f, re_g in np.eye(2)])
    assert master._PIECES.dtype == np.float64
    assert master._PIECES.tobytes() == np.ascontiguousarray(pieces.real).tobytes()
    assert np.all(pieces.imag == 0.0)


def test_rk4_step_matrix_constant_generator_is_the_taylor_sum():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    h = 0.05
    got = rk4_step_matrix(m, m, m, h)
    term, want = np.broadcast_to(np.eye(5), m.shape), np.eye(5)
    for k in range(1, 5):
        term = term @ (h * m) / k
        want = want + term
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # stacked calls are the single calls, bit for bit
    for i in range(3):
        assert np.array_equal(rk4_step_matrix(m[i], m[i], m[i], h), got[i])


def test_rk4_step_matrix_is_one_rk4_step_of_a_time_dependent_system():
    # classical RK4 with stages at t, t + h/2 (twice) and t + h on y' = L(t) y
    rng = np.random.default_rng(9)
    l1, l2, l4 = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                  for _ in range(3))
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = 0.1
    k1 = l1 @ y
    k2 = l2 @ (y + 0.5 * h * k1)
    k3 = l2 @ (y + 0.5 * h * k2)
    k4 = l4 @ (y + h * k3)
    want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    np.testing.assert_allclose(rk4_step_matrix(l1, l2, l4, h) @ y, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d, c", [(2, 1), (16, 2), (3, 4)])
@pytest.mark.parametrize("cap", [1, 7, None])
def test_propagate_powers_are_the_stepped_powers_in_any_chunking(monkeypatch, d, c, cap):
    # cap = chunk columns per product (1 = one column each); None keeps
    # SERIAL_PRODUCT, under which n = 1000 fits in one chunk
    rng = np.random.default_rng(d + c)
    phi = np.eye(d) + 0.01 * rng.standard_normal((d, d))
    phi /= np.max(np.abs(np.linalg.eigvals(phi)))  # contractive: no growth to hide errors
    y0 = rng.standard_normal((d, c))
    if cap is not None:
        monkeypatch.setattr(master, "SERIAL_PRODUCT", cap * d * d)
    got = master._propagate_powers(phi, y0, 1000)
    assert got.shape == (d, 1001 * c)
    y = y0
    for j in range(1001):
        np.testing.assert_allclose(got[:, j * c:(j + 1) * c], y, rtol=0, atol=1e-12)
        y = phi @ y
