"""Time-convolutionless master equation for two independently damped atoms,
integrated in the interaction picture.

In the lab frame

    drho/dt = -i[H', rho]
              + Re F(t) (2 s-_A rho s+_A - n_A rho - rho n_A)
              + Re G(t) (2 s-_B rho s+_B - n_B rho - rho n_B)

with H' = (omega_A + Im F)/2 * sz_A + (omega_B + Im G)/2 * sz_B.  H' is
diagonal, and each atom's dissipator is covariant under that atom's sz
rotation, so in the frame of H' the equation is exactly

    drho/dt = Re F(t) D_A[rho] + Re G(t) D_B[rho].

That frame is the one integrated: the frequencies and Im F only rotate local
phases, which change neither the populations, the coherence magnitudes nor
the concurrence, and in it the Markov-rate evolution coincides with the
damping channel exactly.  `reference.master_rhs` keeps the lab-frame
equation as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegratorError
from .linalg import I2, I4, SIGMA_MINUS, dagger
from .memory import uniform_grid
from .states import assert_density_matrix

POSITIVITY_FLOOR = -1e-8


def markov_rates(rate_a: float, rate_b: float | None = None) -> tuple[float, float]:
    """(Re F, Re G) = (rate_a/2, rate_b/2): the memoryless limit of the kernel
    coefficient, constant in time."""
    if rate_b is None:
        rate_b = rate_a
    if not (0.0 <= rate_a < np.inf and 0.0 <= rate_b < np.inf):
        raise ValueError(f"damping rates ({rate_a}, {rate_b}) must be finite and non-negative")
    return 0.5 * rate_a, 0.5 * rate_b


def _damping_piece(sm: np.ndarray) -> np.ndarray:
    """The dissipator 2 s- rho s+ - n rho - rho n of one atom, n = s+ s-."""
    n = dagger(sm) @ sm
    return (2.0 * np.kron(sm, sm.conj()) - np.kron(n, I4) - np.kron(I4, n.T)).ravel()


# The generator on rho.ravel() is linear in (Re F, Re G); row k of _PIECES is
# the 16x16 piece of coefficient k, flattened.  In row-major vec form
# rho -> A rho B is np.kron(A, B.T).  The pieces are real, so the step
# matrices are built in real arithmetic.
_PIECES = np.ascontiguousarray(np.array([_damping_piece(np.kron(SIGMA_MINUS, I2)),
                                         _damping_piece(np.kron(I2, SIGMA_MINUS))]).real)
# Steps whose propagators are built in one stacked pass, on table rates: it
# bounds peak memory (a whole-run stack is 4 KiB per step), and results do
# not depend on it.
PROPAGATOR_BLOCK = 16


def rk4_step_matrix(l1: np.ndarray, l2: np.ndarray, l4: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = L(t) y as a matrix, for (..., d, d) stacks.

    l1, l2 and l4 are L at t, t + h/2 and t + h.  The stages are
    k2 = L2 (I + h/2 L1), k3 = L2 (I + h/2 k2), k4 = L4 (I + h k3), and the
    step is I + h/6 (L1 + 2 k2 + 2 k3 + k4): sum_{k<=4} (h m)^k / k! for L = m.
    A step too large for the floats comes back with inf or nan entries, and
    no warning; the caller refuses it.
    """
    eye = np.eye(l1.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = l2 @ (eye + 0.5 * h * l1)
        k3 = l2 @ (eye + 0.5 * h * k2)
        k4 = l4 @ (eye + h * k3)
        return eye + (h / 6.0) * (l1 + 2.0 * k2 + 2.0 * k3 + k4)


# OpenBLAS runs a product of at most this many multiply-adds (m*n*k) on one
# thread; a thread team costs more than it gives on these thin products.
SERIAL_PRODUCT = 1 << 18


def _propagate_powers(phi: np.ndarray, y0: np.ndarray, n: int) -> np.ndarray:
    """All powers phi^j y0 for j = 0..n, by doubling, for y0 of shape (d, c):
    column block j of the (d, (n + 1) c) result, columns jc to jc + c - 1,
    is phi^j y0.

    Blocks [k, 2k) are phi^k times blocks [0, k), so the n + 1 blocks take
    about log2(n) products, and no eigenbasis (ill-conditioned near a
    defective phi) is formed.  Each product is split into column chunks of
    at most SERIAL_PRODUCT / d^2, so none starts BLAS threads.  An unstable
    phi is not refused here: its powers overflow to inf or nan.
    """
    d, c = y0.shape
    out = np.empty((d, (n + 1) * c), dtype=np.result_type(phi, y0))
    out[:, :c] = y0
    chunk = max(1, SERIAL_PRODUCT // (d * d))
    k, power = 1, phi
    while k <= n:
        width = min(k, n + 1 - k) * c
        for lo in range(0, width, chunk):
            hi = min(lo + chunk, width)
            out[:, k * c + lo:k * c + hi] = power @ out[:, lo:hi]
        power = power @ power
        k *= 2
    return out


@dataclass(frozen=True)
class Trajectory:
    """States on the integration grid, in the interaction picture, and the
    least eigenvalue over all stored states, which the positivity check found."""

    t: np.ndarray
    states: np.ndarray
    min_eigenvalue: float

    def max_trace_drift(self) -> float:
        traces = np.einsum("tii->t", self.states)
        return float(np.max(np.abs(traces - 1.0)))

    def max_hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.states - self.states.conj().transpose(0, 2, 1))))


def integrate_master(
    rho0: np.ndarray,
    re_f: np.ndarray | float,
    re_g: np.ndarray | float,
    t_max: float,
    dt: float,
) -> Trajectory:
    """Fixed-step RK4 integration in the interaction picture, storing every step.

    re_f and re_g are Re F and Re G at the 2n + 1 RK4 stage times k * dt/2
    of uniform_grid(t_max, dt), even k the grid points and odd k the
    midpoints, or one number each for constant rates.  The equation is
    linear in rho, so each step is one 16x16 matrix on rho.ravel(),
    rk4_step_matrix of the generator at t, t + dt/2 and t + dt, built in
    real arithmetic.  Constant rates make every step the same matrix: it is
    built once and state j is step^j rho0, by doubling, with the real and
    imaginary parts of the states as the real columns of one product.  Table
    rates build the matrices PROPAGATOR_BLOCK steps at a time and apply them
    one matvec at a time.  No Hermitian projection is applied.  A step that
    overflows raises IntegratorError.  After the run the stored states are
    checked for positivity; an eigenvalue below -1e-8 raises
    IntegratorError, and otherwise the least eigenvalue is returned as
    Trajectory.min_eigenvalue.
    """
    rho = assert_density_matrix(rho0)
    if rho.shape != (4, 4):
        raise ValueError("master integration expects a two-qubit (4x4) state")
    grid = uniform_grid(t_max, dt)
    n = grid.size - 1
    # An unstable step overflows to inf or nan; that is refused after the run.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ndim(re_f) == 0 and np.ndim(re_g) == 0:
            gen = (np.array([re_f, re_g], dtype=float) @ _PIECES).reshape(16, 16)
            step = rk4_step_matrix(gen, gen, gen, dt)
            pairs = rho.astype(complex).ravel().view(float).reshape(16, 2)
            # Column j of the complex view is state j: the transpose is a view.
            flat = _propagate_powers(step, pairs, n).view(complex).T
        else:
            coeffs = np.empty((2 * n + 1, 2))  # Re F and Re G on the stage times
            coeffs[:, 0] = re_f
            coeffs[:, 1] = re_g
            flat = np.empty((n + 1, 16), dtype=complex)
            flat[0] = rho.ravel()
            for lo in range(0, n, PROPAGATOR_BLOCK):
                hi = min(lo + PROPAGATOR_BLOCK, n)
                gen = (coeffs[2 * lo:2 * hi + 1] @ _PIECES).reshape(-1, 16, 16)
                steps = rk4_step_matrix(gen[:-1:2], gen[1::2], gen[2::2], dt).astype(complex)
                for i, step in enumerate(steps, start=lo):
                    np.matmul(step, flat[i], out=flat[i + 1])
    states = flat.reshape(n + 1, 4, 4)
    if not np.isfinite(flat).all():
        raise IntegratorError(f"integration overflowed at dt={dt}; reduce dt")

    min_eig = float(np.min(np.linalg.eigvalsh(states)))
    if min_eig < POSITIVITY_FLOOR:
        raise IntegratorError(
            f"integration produced eigenvalue {min_eig:.3e} < {POSITIVITY_FLOOR:.1e}"
        )
    return Trajectory(t=grid, states=states, min_eigenvalue=min_eig)
