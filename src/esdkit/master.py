"""Time-convolutionless master equation for two independently damped atoms.

    drho/dt = -i[H', rho]
              + Re F(t) (2 s-_A rho s+_A - n_A rho - rho n_A)
              + Re G(t) (2 s-_B rho s+_B - n_B rho - rho n_B)

with H' = (omega_A + Im F)/2 * sz_A + (omega_B + Im G)/2 * sz_B.  H' is
diagonal in the product basis, so the commutator is a phase mask.  The
interaction picture strips the accumulated H' phases; in that frame the
Markov-rate evolution coincides with the damping channel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import IntegratorError
from .linalg import I2, I4, SIGMA_MINUS, dagger
from .memory import AmplitudeSolution, rk4_step_matrix, uniform_grid
from .states import assert_density_matrix

POSITIVITY_FLOOR = -1e-8

_DIAG_A = np.array([0.5, 0.5, -0.5, -0.5])
_DIAG_B = np.array([0.5, -0.5, 0.5, -0.5])


@dataclass(frozen=True)
class AtomParams:
    """Bare transition frequencies of the two atoms."""

    omega_a: float
    omega_b: float


@dataclass(frozen=True)
class RateFunctions:
    """Complex time-local rates for the two atoms: real part damps, imaginary
    part shifts the transition frequency.  Each takes an array of times and
    returns the rates there; a scalar result broadcasts."""

    f: Callable[[np.ndarray], np.ndarray | complex]
    g: Callable[[np.ndarray], np.ndarray | complex]


def markov_rates(rate_a: float, rate_b: float | None = None) -> RateFunctions:
    """Constant rates rate/2: the memoryless limit of the kernel coefficient."""
    if rate_b is None:
        rate_b = rate_a
    if not (0.0 <= rate_a < np.inf and 0.0 <= rate_b < np.inf):
        raise ValueError(f"damping rates ({rate_a}, {rate_b}) must be finite and non-negative")
    fa = 0.5 * rate_a + 0.0j
    fb = 0.5 * rate_b + 0.0j
    return RateFunctions(f=lambda t: fa, g=lambda t: fb)


def table_rates(
    sol_a: AmplitudeSolution, sol_b: AmplitudeSolution | None = None
) -> RateFunctions:
    """Rates interpolated from solved amplitude coefficients.

    Atom B reuses atom A's solution when sol_b is omitted.  Evaluation
    outside the solved window raises ValueError.
    """
    if sol_b is None:
        sol_b = sol_a

    def make(sol: AmplitudeSolution) -> Callable[[np.ndarray], np.ndarray]:
        if sol.f is None:
            raise ValueError("coefficient_f must run before table_rates")
        t, f = sol.t, sol.f
        t_end = float(t[-1])

        def rate(x: np.ndarray) -> np.ndarray:
            bad = [v for v in (np.min(x), np.max(x)) if not -1e-12 <= v <= t_end + 1e-9]
            if bad:
                raise ValueError(f"rate requested at t={bad[0]:.6g} outside [0, {t_end:.6g}]")
            return np.interp(x, t, f)

        return rate

    return RateFunctions(f=make(sol_a), g=make(sol_b))


# The generator on rho.ravel() is affine in (omega_A + Im F, Re F, omega_B + Im G,
# Re G); row k of _PIECES is the 16x16 piece of coefficient k, flattened.  In
# row-major vec form rho -> A rho B is np.kron(A, B.T).


def _phase_piece(d: np.ndarray) -> np.ndarray:
    """-i[diag(d), rho]: entry (i, j) turns at rate d_j - d_i.  Written into the
    imaginary part, a zero rate stays +0.0 (a product with -1j gives -0.0)."""
    piece = np.zeros((16, 16), dtype=complex)
    np.fill_diagonal(piece.imag, np.subtract.outer(d, d).T.ravel())
    return piece.ravel()


def _damping_piece(sm: np.ndarray) -> np.ndarray:
    """The dissipator 2 s- rho s+ - n rho - rho n of one atom, n = s+ s-."""
    n = dagger(sm) @ sm
    return (2.0 * np.kron(sm, sm.conj()) - np.kron(n, I4) - np.kron(I4, n.T)).ravel()


_PIECES = np.array([_phase_piece(_DIAG_A), _damping_piece(np.kron(SIGMA_MINUS, I2)),
                    _phase_piece(_DIAG_B), _damping_piece(np.kron(I2, SIGMA_MINUS))])
# Steps whose propagators are built in one stacked pass: it bounds peak memory
# (a whole-run stack is 4 KiB per step), and results do not depend on it.
PROPAGATOR_BLOCK = 16


@dataclass(frozen=True)
class Trajectory:
    """States on the integration grid plus the accumulated H' phases
    (phase_a(t) = integral of omega_A + Im F, likewise for B) and the least
    eigenvalue over all stored states, which the positivity check found."""

    t: np.ndarray
    states: np.ndarray
    phase_a: np.ndarray
    phase_b: np.ndarray
    min_eigenvalue: float

    def max_trace_drift(self) -> float:
        traces = np.einsum("tii->t", self.states)
        return float(np.max(np.abs(traces - 1.0)))

    def max_hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.states - self.states.conj().transpose(0, 2, 1))))


def integrate_master(
    rho0: np.ndarray,
    rates: RateFunctions,
    atoms: AtomParams,
    t_max: float,
    dt: float,
) -> Trajectory:
    """Fixed-step RK4 integration, storing every step.

    The equation is linear in rho, so each step is one 16x16 matrix on
    rho.ravel(), rk4_step_matrix of the generator at t, t + dt/2 and t + dt.
    The rates are evaluated once on those 2n + 1 stage times.  The matrices
    are built PROPAGATOR_BLOCK steps at a time, and a block whose stage
    coefficients are bitwise those of the block last built applies that
    block's matrices again: the build is deterministic, so they are the bits
    a rebuild would give.  Constant rates thus build two blocks, the first
    and a short last one.  No Hermitian projection is applied.  A step or phase
    that overflows raises IntegratorError.  After the run the stored states
    are checked for positivity; an eigenvalue below -1e-8 raises
    IntegratorError, and otherwise the least eigenvalue is returned as
    Trajectory.min_eigenvalue.
    """
    rho = assert_density_matrix(rho0)
    if rho.shape != (4, 4):
        raise ValueError("master integration expects a two-qubit (4x4) state")
    grid = uniform_grid(t_max, dt)
    n = grid.size - 1
    half = 0.5 * dt
    # Even stage times are the grid points themselves: (2i) * (dt/2) == i * dt.
    stage_t = np.arange(2 * n + 1) * half
    f, g, _ = np.broadcast_arrays(rates.f(stage_t), rates.g(stage_t), stage_t)
    coeffs = np.stack([atoms.omega_a + f.imag, f.real, atoms.omega_b + g.imag, g.real], axis=1)
    nu = coeffs[::2, ::2]  # omega + Im rate at the grid points, atoms A and B
    states = np.empty((n + 1, 4, 4), dtype=complex)
    flat = states.reshape(n + 1, 16)
    flat[0] = rho.ravel()
    held = b""  # the stage coefficients, as bytes, that built `steps`
    # An unstable step overflows to inf or nan; that is refused after the run.
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.vstack(([0.0, 0.0], np.cumsum(half * (nu[:-1] + nu[1:]), axis=0)))
        for lo in range(0, n, PROPAGATOR_BLOCK):
            hi = min(lo + PROPAGATOR_BLOCK, n)
            stage = coeffs[2 * lo:2 * hi + 1]
            key = stage.tobytes()
            if key != held:
                gen = (stage @ _PIECES).reshape(-1, 16, 16)
                steps = rk4_step_matrix(gen[:-1:2], gen[1::2], gen[2::2], dt)
                held = key
            for i, step in enumerate(steps, start=lo):
                np.matmul(step, flat[i], out=flat[i + 1])
    # A cumulative sum stays non-finite once it is, so the last phases tell.
    if not (np.isfinite(phases[-1]).all() and np.isfinite(flat).all()):
        raise IntegratorError(f"integration overflowed at dt={dt}; reduce dt")
    phase_a, phase_b = phases.T

    min_eig = float(np.min(np.linalg.eigvalsh(states)))
    if min_eig < POSITIVITY_FLOOR:
        raise IntegratorError(
            f"integration produced eigenvalue {min_eig:.3e} < {POSITIVITY_FLOOR:.1e}"
        )
    return Trajectory(t=grid, states=states, phase_a=phase_a, phase_b=phase_b,
                      min_eigenvalue=min_eig)


def to_interaction_picture(
    rho: np.ndarray, phase_a: float | np.ndarray, phase_b: float | np.ndarray
) -> np.ndarray:
    """Strip the accumulated H' phases from a state or a (..., 4, 4) stack
    with phases of shape (...): U rho U^dagger with
    U = exp(+i (phase_a diag_A + phase_b diag_B))."""
    u = np.exp(1j * (np.multiply.outer(phase_a, _DIAG_A) + np.multiply.outer(phase_b, _DIAG_B)))
    return u[..., :, None] * rho * u.conj()[..., None, :]


def interaction_trajectory(traj: Trajectory) -> Trajectory:
    """Whole trajectory in the interaction picture (phases kept for reference)."""
    return replace(traj, states=to_interaction_picture(traj.states, traj.phase_a, traj.phase_b))
