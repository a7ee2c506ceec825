import math
import warnings

import numpy as np
import pytest

from esdkit import master
from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import concurrence
from esdkit.errors import IntegratorError
from esdkit.master import (
    POSITIVITY_FLOOR,
    AtomParams,
    RateFunctions,
    integrate_master,
    interaction_trajectory,
    markov_rates,
    table_rates,
    to_interaction_picture,
)
from esdkit.memory import (
    ExponentialKernel, full_solution, rk4_step_matrix, solve_amplitude, uniform_grid,
)
from esdkit.reference import (
    apply_channel,
    coefficients_markov,
    gamma_of_t,
    local_coherence_decay,
    master_rhs,
    pure_state,
    random_xstate,
)
from esdkit.states import random_state, standard_family, xstate_to_dense

ATOMS = AtomParams(omega_a=1.3, omega_b=0.7)


def test_markov_rates_values_and_validation():
    r = markov_rates(1.0)
    assert r.f(0.0) == 0.5 + 0.0j
    assert r.g(2.7) == 0.5 + 0.0j
    assert markov_rates(1.0, 3.0).g(0.0) == 1.5 + 0.0j
    with pytest.raises(ValueError):
        markov_rates(-1.0)
    with pytest.raises(ValueError):
        markov_rates(1.0, -0.5)


def test_ground_state_is_a_fixed_point():
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    rhs = master_rhs(rho, 0.0, markov_rates(1.0), ATOMS)
    assert np.array_equal(rhs, np.zeros((4, 4), dtype=complex))


def test_rhs_is_hermitian_and_traceless():
    rho = random_state(11)
    rhs = master_rhs(rho, 0.3, markov_rates(0.8, 1.7), AtomParams(1.1, 0.4))
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-13
    assert abs(np.trace(rhs)) < 1e-13


def test_rhs_single_excitation_coherence_pattern():
    # the |eg><ge| element sees decay (rate_a+rate_b)/2 plus the frequency
    # difference as a phase: factor -(1 + 0.5j) for these parameters
    fam = xstate_to_dense(standard_family(0.5))
    rhs = master_rhs(fam, 0.0, markov_rates(1.0, 1.0), AtomParams(3.0, 2.5))
    assert rhs[1, 2] == -(1.0 + 0.5j) * fam[1, 2]
    rho = random_state(7)
    rhs = master_rhs(rho, 0.0, markov_rates(1.0, 1.0), AtomParams(3.0, 2.5))
    assert abs(rhs[1, 2] - (-(1.0 + 0.5j) * rho[1, 2])) < 1e-15


def test_unitary_limit_is_a_phase_mask():
    rho0 = random_state(3)
    traj = integrate_master(rho0, markov_rates(0.0), ATOMS, 2.0, 1e-3)
    h = 1.3 * np.array([0.5, 0.5, -0.5, -0.5]) + 0.7 * np.array([0.5, -0.5, 0.5, -0.5])
    t_end = traj.t[-1]
    want = rho0 * np.exp(-1j * (h[:, None] - h[None, :]) * t_end)
    np.testing.assert_allclose(traj.states[-1], want, atol=1e-9)
    assert traj.max_trace_drift() == 0.0


def test_markov_evolution_matches_channel():
    rho0 = random_state(5)
    traj = integrate_master(rho0, markov_rates(1.0), ATOMS, 1.0, 1e-3)
    got = to_interaction_picture(traj.states[-1], traj.phase_a[-1], traj.phase_b[-1])
    want = apply_channel(rho0, coefficients_markov(1.0, 1.0))
    assert np.max(np.abs(got - want)) < 1e-10


def test_table_rates_match_channel_with_solved_gamma():
    # resonant structured reservoir: the master equation driven by the solved
    # coefficient must reproduce the damping channel built from the same
    # coefficient, gamma = exp(-integral Re f); against |b| the gap is the
    # O(dt^2) linear interpolation of f at the RK4 half steps
    kernel = ExponentialKernel(1.0, 20.0, 5.0)
    sol = full_solution(kernel, 5.0, 2.0, 2e-4)
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = integrate_master(rho0, table_rates(sol), AtomParams(5.0, 5.0), 2.0, 2e-4)
    got = to_interaction_picture(traj.states[-1], traj.phase_a[-1], traj.phase_b[-1])
    g = float(gamma_of_t(sol).gamma[-1])
    want = apply_channel(rho0, coefficients_from_gammas(g, g))
    assert np.max(np.abs(got - want)) < 1e-9


def test_trace_and_hermiticity_over_long_run():
    traj = integrate_master(
        xstate_to_dense(standard_family(0.7)), markov_rates(1.0), ATOMS, 10.0, 1e-3
    )
    assert traj.max_trace_drift() < 1e-10
    assert traj.max_hermiticity_defect() < 1e-12


def test_negative_rates_trip_the_positivity_guard():
    pumped = RateFunctions(f=lambda t: -1.0 + 0.0j, g=lambda t: -1.0 + 0.0j)
    rho0 = apply_channel(
        xstate_to_dense(standard_family(1.0)), coefficients_markov(1.0, 1.0)
    )
    with pytest.raises(IntegratorError):
        integrate_master(rho0, pumped, AtomParams(0.0, 0.0), 2.0, 1e-3)


@pytest.mark.parametrize("rates, atoms", [
    (markov_rates(1e4), ATOMS),
    (markov_rates(1e308), ATOMS),
    (markov_rates(1.0), AtomParams(1e308, 1.0)),
])
def test_overflowing_step_raises_integrator_error(rates, atoms):
    # rate*dt = 10 is far outside the RK4 stability region; omega_A = 1e308
    # overflows the step matrix and the phase sum alike
    rho0 = xstate_to_dense(standard_family(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegratorError, match="reduce dt"):
            integrate_master(rho0, rates, atoms, 1.0, 1e-3)


def test_integrate_master_validates_input():
    bad = np.diag([0.7, 0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        integrate_master(bad, markov_rates(1.0), ATOMS, 1.0, 0.1)
    one_qubit = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="two-qubit"):
        integrate_master(one_qubit, markov_rates(1.0), ATOMS, 1.0, 0.1)


def test_interaction_picture_identity_and_diagonal():
    rho = random_state(9)
    assert np.array_equal(to_interaction_picture(rho, 0.0, 0.0), rho)
    diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_allclose(to_interaction_picture(diag, 1.3, -0.8), diag, atol=1e-15)


def test_interaction_picture_preserves_concurrence():
    traj = integrate_master(
        xstate_to_dense(standard_family(1.0)), markov_rates(1.0), ATOMS, 1.0, 1e-2
    )
    for k in (0, 50, 100):
        rotated = to_interaction_picture(
            traj.states[k], traj.phase_a[k], traj.phase_b[k]
        )
        gap = abs(concurrence(rotated).value - concurrence(traj.states[k]).value)
        assert gap < 1e-12


def test_interaction_trajectory_matches_pointwise_transform():
    traj = integrate_master(random_state(2), markov_rates(0.6), ATOMS, 1.0, 1e-2)
    rotated = interaction_trajectory(traj)
    for k in (0, 33, 100):
        want = to_interaction_picture(traj.states[k], traj.phase_a[k], traj.phase_b[k])
        np.testing.assert_allclose(rotated.states[k], want, atol=1e-14)
    assert np.array_equal(rotated.t, traj.t)


def test_local_coherence_single_atom_halves_rate():
    # atom A in (|e>+|g>)/sqrt(2), atom B in the ground state: the lowering
    # coherence decays at rate/2 while atom B never develops one
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), markov_rates(1.0), ATOMS, 3.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    np.testing.assert_allclose(coh_a, 0.5 * np.exp(-0.5 * traj.t), atol=1e-9)
    assert np.max(coh_b) == 0.0
    np.testing.assert_allclose(coh_a / coh_a[0], np.exp(-0.5 * traj.t), atol=1e-9)


def test_local_coherence_second_atom_and_unequal_rates():
    psi = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), markov_rates(1.0, 2.0), ATOMS, 2.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    np.testing.assert_allclose(coh_b, 0.5 * np.exp(-1.0 * traj.t), atol=1e-9)
    assert np.max(coh_a) == 0.0


def test_local_coherence_is_picture_independent():
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(pure_state(psi), markov_rates(1.0), ATOMS, 1.0, 1e-2)
    a_lab, b_lab = local_coherence_decay(traj)
    a_int, b_int = local_coherence_decay(interaction_trajectory(traj))
    np.testing.assert_allclose(a_lab, a_int, atol=1e-13)
    np.testing.assert_allclose(b_lab, b_int, atol=1e-13)


def test_diagonal_state_never_develops_coherence():
    rho0 = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
    traj = integrate_master(rho0, markov_rates(1.0), ATOMS, 2.0, 1e-3)
    coh_a, coh_b = local_coherence_decay(traj)
    assert np.max(coh_a) == 0.0
    assert np.max(coh_b) == 0.0


def test_table_rates_validation():
    sol = solve_amplitude(ExponentialKernel(1.0, 5.0), 0.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="coefficient_f"):
        table_rates(sol)
    full = full_solution(ExponentialKernel(1.0, 5.0), 0.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="outside"):
        table_rates(full).f(1.5)
    with pytest.raises(ValueError, match="outside"):
        integrate_master(
            xstate_to_dense(standard_family(1.0)),
            table_rates(full),
            AtomParams(0.0, 0.0),
            2.0,
            1e-3,
        )


def _herm(rho):
    return 0.5 * (rho + rho.conj().T)


def reference_integrate(rho0, rates, atoms, t_max, dt):
    """The per-stage RK4 loop that integrate_master replaced: master_rhs at
    every stage, each stage argument re-Hermitianized, phases by a running
    trapezoid sum of scalar rate calls."""
    rho = np.asarray(rho0, dtype=complex)
    grid = uniform_grid(t_max, dt)
    n = grid.size - 1
    states = np.empty((n + 1, 4, 4), dtype=complex)
    phase_a = np.empty(n + 1)
    phase_b = np.empty(n + 1)
    states[0] = rho
    phase_a[0] = 0.0
    phase_b[0] = 0.0

    def nu(t):
        return (
            atoms.omega_a + complex(rates.f(t)).imag,
            atoms.omega_b + complex(rates.g(t)).imag,
        )

    half = 0.5 * dt
    nu_a_left, nu_b_left = nu(0.0)
    for i in range(n):
        t = grid[i]
        k1 = master_rhs(rho, t, rates, atoms)
        k2 = master_rhs(_herm(rho + half * k1), t + half, rates, atoms)
        k3 = master_rhs(_herm(rho + half * k2), t + half, rates, atoms)
        k4 = master_rhs(_herm(rho + dt * k3), t + dt, rates, atoms)
        rho = _herm(rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        states[i + 1] = rho
        nu_a_right, nu_b_right = nu(float(grid[i + 1]))
        phase_a[i + 1] = phase_a[i] + half * (nu_a_left + nu_a_right)
        phase_b[i + 1] = phase_b[i] + half * (nu_b_left + nu_b_right)
        nu_a_left, nu_b_left = nu_a_right, nu_b_right
    return states, phase_a, phase_b


def _structured_rates():
    return table_rates(full_solution(ExponentialKernel(1.0, 20.0, 5.0), 5.0, 1.0, 2e-4))


RATE_CASES = {
    "equal": (lambda: markov_rates(1.0), ATOMS),
    "unequal": (lambda: markov_rates(0.8, 1.7), AtomParams(1.1, 0.4)),
    "zero": (lambda: markov_rates(0.0), ATOMS),
    "table": (_structured_rates, AtomParams(5.0, 5.0)),
}


@pytest.mark.parametrize("state", ["random", "x"])
@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_step_propagators_match_the_per_stage_loop(case, state):
    make_rates, atoms = RATE_CASES[case]
    rates = make_rates()
    rho0 = random_state(13) if state == "random" else xstate_to_dense(random_xstate(13))
    traj = integrate_master(rho0, rates, atoms, 1.0, 1e-3)
    states, phase_a, phase_b = reference_integrate(rho0, rates, atoms, 1.0, 1e-3)
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.array_equal(traj.phase_a, phase_a)
    assert np.array_equal(traj.phase_b, phase_b)
    # no projection, yet the stored states stay Hermitian
    assert traj.max_hermiticity_defect() <= 1e-14


@pytest.mark.parametrize("block", [1, 7, 16, 205])
def test_propagator_block_does_not_change_outputs(monkeypatch, block):
    rates = _structured_rates()
    rho0 = random_state(4)
    want = integrate_master(rho0, rates, AtomParams(5.0, 4.0), 0.2, 1e-3)
    monkeypatch.setattr(master, "PROPAGATOR_BLOCK", block)  # 205 = n + 5
    got = integrate_master(rho0, rates, AtomParams(5.0, 4.0), 0.2, 1e-3)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.phase_a, want.phase_a)
    assert np.array_equal(got.phase_b, want.phase_b)


def integrate_building_every_block(rho0, rates, atoms, t_max, dt):
    """integrate_master's stepping with the step matrices of every block
    built afresh: the reference that a stale reuse would differ from."""
    n = uniform_grid(t_max, dt).size - 1
    stage_t = np.arange(2 * n + 1) * (0.5 * dt)
    f, g, _ = np.broadcast_arrays(rates.f(stage_t), rates.g(stage_t), stage_t)
    coeffs = np.stack([atoms.omega_a + f.imag, f.real, atoms.omega_b + g.imag, g.real], axis=1)
    flat = np.empty((n + 1, 16), dtype=complex)
    flat[0] = np.asarray(rho0, dtype=complex).ravel()
    for lo in range(0, n, master.PROPAGATOR_BLOCK):
        hi = min(lo + master.PROPAGATOR_BLOCK, n)
        gen = (coeffs[2 * lo:2 * hi + 1] @ master._PIECES).reshape(-1, 16, 16)
        for i, step in enumerate(rk4_step_matrix(gen[:-1:2], gen[1::2], gen[2::2], dt), lo):
            flat[i + 1] = step @ flat[i]
    return flat.reshape(n + 1, 4, 4)


def count_step_builds(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[0].shape[0])
        return rk4_step_matrix(*args)

    monkeypatch.setattr(master, "rk4_step_matrix", counting)
    return calls


def test_step_matrices_are_built_once_per_distinct_block(monkeypatch):
    calls = count_step_builds(monkeypatch)
    integrate_master(random_state(6), markov_rates(1.0), ATOMS, 3.0, 1e-3)
    # 3000 steps: one full block serves 187 blocks, then the short last one
    assert calls == [master.PROPAGATOR_BLOCK, 3000 % master.PROPAGATOR_BLOCK]
    calls.clear()
    integrate_master(random_state(6), _structured_rates(), AtomParams(5.0, 4.0), 0.2, 1e-3)
    assert len(calls) == math.ceil(200 / master.PROPAGATOR_BLOCK)


def jump_rates(stage, before, after):
    """A rate that jumps from before to after at the given stage index (stage
    times are multiples of dt/2 = 5e-4); the jump sits between stage times."""
    t_jump = (stage - 0.5) * 5e-4
    return lambda t: np.where(np.asarray(t) < t_jump, before, after)


# Block k holds stage rows 32k..32k+32, so row 128 is the last of block 3
# and the first of block 4.  200 steps make 13 blocks, the last 8 steps long.
JUMPS = {
    "f mid-block": (2 * (3 * 16 + 7) + 1, "f"),
    "g on a block boundary": (128, "g"),
    "f one stage after a boundary": (129, "f"),
}


@pytest.mark.parametrize("name", sorted(JUMPS))
def test_piecewise_constant_rates_reuse_only_equal_blocks(monkeypatch, name):
    stage, atom = JUMPS[name]
    jump = jump_rates(stage, 0.5 + 0.3j, 1.5 - 0.2j)
    steady = lambda t: 0.4 + 0.1j  # noqa: E731
    rates = RateFunctions(f=jump, g=steady) if atom == "f" else RateFunctions(f=steady, g=jump)
    rho0 = random_state(8)
    want = integrate_building_every_block(rho0, rates, ATOMS, 0.2, 1e-3)
    calls = count_step_builds(monkeypatch)
    traj = integrate_master(rho0, rates, ATOMS, 0.2, 1e-3)
    assert np.array_equal(traj.states, want)
    # block 0, the block holding the jump, the first block wholly after it,
    # and the short last block
    assert calls == [16, 16, 16, 8]


def test_markov_run_reusing_blocks_matches_building_every_block():
    rho0 = xstate_to_dense(standard_family(0.8))
    traj = integrate_master(rho0, markov_rates(1.0, 0.6), AtomParams(1.1, 0.4), 3.0, 1e-3)
    want = integrate_building_every_block(rho0, markov_rates(1.0, 0.6), AtomParams(1.1, 0.4),
                                          3.0, 1e-3)
    assert np.array_equal(traj.states, want)


def test_trajectory_reports_its_min_eigenvalue():
    traj = integrate_master(random_state(12), markov_rates(1.0), ATOMS, 3.0, 1e-3)
    assert traj.min_eigenvalue == float(np.linalg.eigvalsh(traj.states).min())
    assert POSITIVITY_FLOOR <= traj.min_eigenvalue
    # a local unitary keeps the spectrum, and the picture change keeps the record
    assert interaction_trajectory(traj).min_eigenvalue == traj.min_eigenvalue


def test_table_rates_take_arrays():
    rates = _structured_rates()
    t = np.linspace(0.0, 1.0, 37)
    got = rates.f(t)
    assert got.shape == t.shape
    assert np.array_equal(got, [complex(rates.f(float(x))) for x in t])
    with pytest.raises(ValueError, match="t=1.5 outside"):
        rates.g(np.array([0.5, 1.5, 0.2]))
    with pytest.raises(ValueError, match="t=-0.1 outside"):
        rates.g(np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="outside"):
        rates.f(1.0 + 1e-6)


@pytest.mark.parametrize("rate_a, rate_b", [
    (np.nan, None), (np.inf, None), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1.0),
])
def test_markov_rates_reject_non_finite(rate_a, rate_b):
    with pytest.raises(ValueError, match="finite"):
        markov_rates(rate_a, rate_b)


def test_rhs_on_a_stack_is_the_rhs_of_each_member():
    rhos = np.stack([random_state(s) for s in range(5)])
    rates, atoms = markov_rates(0.8, 1.7), AtomParams(1.1, 0.4)
    stacked = master_rhs(rhos, 0.0, rates, atoms)
    for rho, out in zip(rhos, stacked):
        assert np.array_equal(out, master_rhs(rho, 0.0, rates, atoms))


def test_interaction_picture_of_a_stack_is_pointwise():
    traj = integrate_master(random_state(2), markov_rates(0.6), ATOMS, 0.1, 1e-2)
    rotated = to_interaction_picture(traj.states, traj.phase_a, traj.phase_b)
    for k in range(traj.t.size):
        want = to_interaction_picture(traj.states[k], traj.phase_a[k], traj.phase_b[k])
        assert np.array_equal(rotated[k], want)


def test_generator_pieces_are_master_rhs_on_unit_matrices():
    # _PIECES is built from the Lindblad terms; master_rhs with one
    # coefficient set to 1, on each of the 16 unit matrices, gives each
    # piece's columns independently, down to the signs of its zeros.
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    pieces = np.array([
        master_rhs(units, 0.0, markov_rates(2.0 * re_f, 2.0 * re_g), AtomParams(w_a, w_b))
        .reshape(16, 16).T.ravel()
        for w_a, re_f, w_b, re_g in np.eye(4)
    ])
    assert np.array_equal(master._PIECES, pieces)
    assert master._PIECES.tobytes() == pieces.tobytes()
