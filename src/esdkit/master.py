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
damping channel exactly.  There the generator is diagonal in one fixed basis
of product operators, so RK4 runs as one scalar recursion per basis mode
(docs/derivations.md section 7).  `reference.master_rhs` keeps the lab-frame
equation as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegratorError
from .memory import uniform_grid
from .states import assert_density_matrix

POSITIVITY_FLOOR = -1e-8
# Most rows per product of the growth factors with the basis change, 16 x 32
# real: 512 keeps m n k at 262 144, which OpenBLAS computes on the calling
# thread.  Above it OpenBLAS wakes its threads, and on a small host they then
# slow the eigvalsh positivity check that follows.
PRODUCT_ROWS = 512


def markov_rates(rate_a: float, rate_b: float | None = None) -> tuple[float, float]:
    """(Re F, Re G) = (rate_a/2, rate_b/2): the memoryless limit of the kernel
    coefficient, constant in time."""
    if rate_b is None:
        rate_b = rate_a
    if not (0.0 <= rate_a < np.inf and 0.0 <= rate_b < np.inf):
        raise ValueError(f"damping rates ({rate_a}, {rate_b}) must be finite and non-negative")
    return 0.5 * rate_a, 0.5 * rate_b


# The generator Re F D_A + Re G D_B is a sum of two commuting pieces, one per
# atom, so one basis diagonalizes it at all times.  One atom's dissipator
# D[x] = 2 s- x s+ - n x - x n has the eigenoperators |g><g|, |e><e| - |g><g|,
# |e><g| and |g><e| (|e> is index 0), with eigenvalues 0, -2, -1 and -1; the
# coordinates of x on them are tr x, <e|x|e>, <e|x|g> and <g|x|e>.
_OPERATORS = np.array([[[0, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], float)
_DUALS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], float)
_EIGENVALUES = np.array([0.0, -2.0, -1.0, -1.0])
# Mode m = 4p + q is np.kron(atom A's operator p, atom B's operator q).  Row m
# of MODES is the mode as a flattened 4x4 matrix (column m of V), row m of
# COORDINATES reads its coordinate off rho.ravel() (row m of V^-1), and
# column m of MODE_RATES maps (Re F, Re G) to its eigenvalue.
MODES = np.einsum("pij,qkl->pqikjl", _OPERATORS, _OPERATORS).reshape(16, 16)
COORDINATES = np.einsum("pij,qkl->pqikjl", _DUALS, _DUALS).reshape(16, 16)
MODE_RATES = np.array([np.repeat(_EIGENVALUES, 4), np.tile(_EIGENVALUES, 4)])


def rk4_growth(l1: np.ndarray, l2: np.ndarray, l4: np.ndarray, h: float) -> np.ndarray:
    """The factor by which one classical RK4 step of y' = l(t) y multiplies y,
    elementwise, for l1, l2 and l4 the rate at t, t + h/2 and t + h:
    k2 = l2 (1 + h/2 l1), k3 = l2 (1 + h/2 k2), k4 = l4 (1 + h k3), and the
    factor is 1 + h/6 (l1 + 2 k2 + 2 k3 + k4), sum_{k<=4} (h l)^k / k! for
    constant l.  Each stage is formed in place in one buffer.
    """
    k, acc = np.array(l1, dtype=float), np.array(l1, dtype=float)
    for c, l, weight in ((0.5 * h, l2, 2.0), (0.5 * h, l2, 2.0), (h, l4, 1.0)):
        k *= c
        k += 1.0
        k *= l  # k2, k3, k4
        acc += weight * k
    acc *= h / 6.0
    acc += 1.0
    return acc


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


def integrate_master(rho0: np.ndarray, re_f: np.ndarray | float, re_g: np.ndarray | float,
                     t_max: float, dt: float) -> Trajectory:
    """Fixed-step RK4 integration in the interaction picture, storing every step.

    re_f and re_g are Re F and Re G at the 2n + 1 RK4 stage times k * dt/2
    of uniform_grid(t_max, dt), even k the grid points and odd k the
    midpoints, or one number each for constant rates.  Every step is
    diagonal in the basis MODES, so RK4 is one scalar recursion per mode,
    rk4_growth of its eigenvalue at t, t + dt/2 and t + dt, and state j is
    rho0 + V ((product of j factors - 1) * V^-1 rho0): zero rates give rho0
    bit for bit, and the one mode with a trace has factor 1.  No Hermitian
    projection is applied.  A rate that is not finite, or a step that
    overflows, raises IntegratorError, and so does a stored state with an
    eigenvalue below -1e-8; the least one is Trajectory.min_eigenvalue.
    """
    rho = assert_density_matrix(rho0)
    if rho.shape != (4, 4):
        raise ValueError("master integration expects a two-qubit (4x4) state")
    grid = uniform_grid(t_max, dt)
    n = grid.size - 1
    for name, rate in (("Re F", re_f), ("Re G", re_g)):
        if np.ndim(rate) != 0 and np.shape(rate) != (2 * n + 1,):
            raise ValueError(f"{name} has shape {np.shape(rate)}; the {n}-step grid "
                             f"takes one number or 2n + 1 = {2 * n + 1} stage values")
    # Re F and Re G on the stage times; constant rates are one step's, shared.
    rates = np.empty((3 if np.ndim(re_f) == np.ndim(re_g) == 0 else 2 * n + 1, 2))
    rates[:, 0], rates[:, 1] = re_f, re_g
    if not np.isfinite(rates).all():
        k = int(np.argmin(np.isfinite(rates).all(axis=1)))
        raise IntegratorError(f"rates (Re F, Re G) = ({rates[k, 0]}, {rates[k, 1]}) "
                              f"at stage {k}, t = {0.5 * k * dt}, are not finite")
    # An unstable step overflows to inf or nan; that is refused after the run.
    with np.errstate(over="ignore", invalid="ignore"):
        modes = rates @ MODE_RATES  # each mode's eigenvalue at each stage
        growth = np.ones((n + 1, 16))
        factors = rk4_growth(modes[:-1:2], modes[1::2], modes[2::2], dt)
        np.cumprod(np.broadcast_to(factors, (n, 16)), axis=0, out=growth[1:])
        growth -= 1.0
        # The complex columns, V with column m scaled by coordinate m, as real pairs.
        scaled = ((COORDINATES @ rho.ravel())[:, None] * MODES).view(float)
        # Equal row blocks give the single product's bits: each has at least
        # two rows, since numpy sends one row to gemv, which rounds otherwise.
        flat = np.empty((n + 1, 16), dtype=complex)
        parts = -(-(n + 1) // PRODUCT_ROWS)
        bounds = [(n + 1) * k // parts for k in range(parts + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            np.matmul(growth[lo:hi], scaled, out=flat[lo:hi].view(float))
        flat += rho.ravel()
    states = flat.reshape(n + 1, 4, 4)
    if not np.isfinite(flat).all():
        raise IntegratorError(f"integration overflowed at dt={dt}; reduce dt")
    min_eig = float(np.min(np.linalg.eigvalsh(states)))
    if min_eig < POSITIVITY_FLOOR:
        raise IntegratorError(
            f"integration produced eigenvalue {min_eig:.3e} < {POSITIVITY_FLOOR:.1e}"
        )
    return Trajectory(t=grid, states=states, min_eigenvalue=min_eig)
