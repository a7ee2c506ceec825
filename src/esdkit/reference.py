"""Cross-check routes: second derivations of what the subcommands compute.

The dense Kraus channel, the general Hermitian square root, the death-time
bisection, the lab-frame master equation's right-hand side and
gamma = exp(-integral Re F) serve the tests, the demos and the `check`
probes.  No production module imports this one; of the package only
`esdkit.selfcheck` does, and `esdkit.cli` loads that only when `check` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DampingCoefficients, _kraus_terms, _omega
from .entanglement import concurrence_x
from .errors import NumericalError
from .esd import death_time_s, family_concurrence, family_image
from .linalg import (HERMITIAN_TOL, I2, I4, SIGMA_MINUS, _psd_sqrt_from_eigen, dagger,
                     first_bad, hermiticity_defect, member)
from .master import Trajectory
from .memory import AmplitudeSolution, Kernel, _circular_product, _clip_round_off, coefficient_f
from .states import XState, assert_density_matrix

# ---------------------------------------------------------------- linalg

def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in (2, 4):
        raise ValueError(f"expected dimension in (2, 4), got {a.shape[-1]}")
    return a


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Hermitian 2x2 or 4x4 matrices, or a stack of them.

    Returns (w, v) with eigenvalues ascending along the last axis and
    orthonormal eigenvector columns, so h = v @ diag(w) @ v^dagger.  Rejects
    any matrix whose Hermiticity defect exceeds HERMITIAN_TOL.
    """
    h = _as_square(h)
    defect = np.asarray(hermiticity_defect(h))
    bad = first_bad(~(defect <= HERMITIAN_TOL))
    if bad is not None:
        raise ValueError(f"matrix{member(bad)} is not Hermitian: "
                         f"defect {defect[bad]:.3e} > {HERMITIAN_TOL:.1e}")
    w, v = np.linalg.eigh(0.5 * (h + dagger(h)))
    return w, v


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each in a
    stack: linalg._psd_sqrt_from_eigen, whose round-off rules concurrence
    shares, on the decomposition of hermitian_eigen."""
    return _psd_sqrt_from_eigen(*hermitian_eigen(h))


# ---------------------------------------------------------------- states

OFF_X_TOL = 1e-10


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Density matrix of a normalized state vector."""
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("zero vector has no state")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def dense_to_xstate(rho: np.ndarray) -> XState:
    """Project a dense matrix back to the XState carrier.

    Entries outside the X pattern must vanish to OFF_X_TOL, otherwise the
    matrix does not represent an X state and ValueError is raised.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4, got {rho.shape}")
    mask = np.ones((4, 4), dtype=bool)
    mask[range(4), range(4)] = False
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        mask[i, j] = False
    worst = float(np.max(np.abs(rho[mask])))
    if worst > OFF_X_TOL:
        raise ValueError(f"matrix is not X-shaped: off-pattern entry {worst:.3e}")
    return XState(
        float(rho[0, 0].real),
        float(rho[1, 1].real),
        float(rho[2, 2].real),
        float(rho[3, 3].real),
        z23=complex(rho[1, 2]),
        z14=complex(rho[0, 3]),
    )


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced single-qubit state: keep="A" traces out qubit B and vice versa."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("aiaj->ij", r)
    raise ValueError(f'keep must be "A" or "B", got {keep!r}')


def random_xstate(seed: int) -> XState:
    """Random valid X state (Dirichlet populations, coherences inside the
    positivity disks), seeded like states.random_state."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    r23 = rng.uniform(0.0, 1.0) * np.sqrt(p[1] * p[2])
    r14 = rng.uniform(0.0, 1.0) * np.sqrt(p[0] * p[3])
    ph23, ph14 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(
        float(p[0]), float(p[1]), float(p[2]), float(p[3]),
        z23=r23 * np.exp(1j * ph23),
        z14=r14 * np.exp(1j * ph14),
    )


# ---------------------------------------------------------------- channel

def coefficients_markov(rate: float, t: float) -> DampingCoefficients:
    """Markov damping at a common rate: gamma = exp(-rate*t/2)."""
    if rate < 0.0:
        raise ValueError(f"negative rate {rate}")
    if t < 0.0:
        raise ValueError(f"negative time {t}")
    g = float(np.exp(-0.5 * rate * t))
    return DampingCoefficients(g, g)


def build_kraus(c: DampingCoefficients) -> list[np.ndarray]:
    """The four Kraus operators of a single channel, residual-residual first.

    Order: (keep A, keep B), (keep A, decay B), (decay A, keep B),
    (decay A, decay B).  apply_channel and kraus_term act with the per-atom
    factors instead.
    """
    keep_a = np.diag([c.gamma_a, 1.0]).astype(complex)
    keep_b = np.diag([c.gamma_b, 1.0]).astype(complex)
    drop_a = _omega(c.gamma_a) * SIGMA_MINUS
    drop_b = _omega(c.gamma_b) * SIGMA_MINUS
    return [
        np.kron(keep_a, keep_b),
        np.kron(keep_a, drop_b),
        np.kron(drop_a, keep_b),
        np.kron(drop_a, drop_b),
    ]


def completeness_defect(kraus: list[np.ndarray]) -> float:
    """Largest entrywise deviation of sum(K^dagger K) from the identity."""
    acc = sum(dagger(k) @ k for k in kraus)
    return float(np.max(np.abs(acc - I4)))


def apply_channel(rho: np.ndarray, c: DampingCoefficients) -> np.ndarray:
    """Apply the two-atom damping channel: sum_mu K_mu rho K_mu^dagger.

    rho may be one state or a stack (..., 4, 4); array amplitudes in c
    broadcast against the stack's leading axes.
    """
    t1, t2, t3, t4 = _kraus_terms(assert_density_matrix(rho), c)
    return t1 + t2 + t3 + t4


def kraus_term(rho: np.ndarray, c: DampingCoefficients, mu: int) -> np.ndarray:
    """Single unnormalized Kraus branch K_mu rho K_mu^dagger, mu in 1..4,
    on one state or a stack, broadcasting like apply_channel."""
    if mu not in (1, 2, 3, 4):
        raise ValueError(f"mu must be 1..4, got {mu}")
    return _kraus_terms(assert_density_matrix(rho), c)[mu - 1]


# ---------------------------------------------------------------- memory

def _bdot(sol: AmplitudeSolution) -> np.ndarray:
    """db/dt by second-order differences, which need three grid points."""
    if sol.b.size < 3:
        raise ValueError(f"db/dt needs at least 3 grid points (2 steps), got {sol.b.size}")
    return np.gradient(sol.b, sol.dt, edge_order=2)


def volterra_residual(sol: AmplitudeSolution, kernel: Kernel) -> np.ndarray:
    """Pointwise defect |db/dt + memory integral| on the grid.

    db/dt is reconstructed by centered differences (one-sided second-order
    stencils at the ends) and the memory integral by trapezoid quadrature, so
    the reported defect is itself O(dt^2) even for an exact solution; it is a
    diagnostic, not the solver's accuracy gate.
    """
    bdot, b, h = _bdot(sol), sol.b, sol.dt
    n = b.size - 1
    alpha = kernel.evaluate(sol.t)
    # A transform longer than 2n holds the whole linear convolution: nothing wraps.
    work = np.empty((2, 1 << (2 * n).bit_length()), dtype=complex)
    full = _circular_product(alpha, b, *work)[: n + 1]
    q = h * (full - 0.5 * alpha * b[0] - 0.5 * alpha[0] * b)
    q[0] = 0.0
    return np.abs(bdot + q)


def gamma_of_t(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """gamma(t) = exp(-integral of Re f) on the uniform grid t, the reference
    route to |b| from the decay coefficient f.

    gamma(0) = 1 exactly.  An excess over 1 of at most CONTRACTIVITY_SLACK is
    round-off in f and is clipped to 1.
    """
    f = f.real
    dt = float(t[1] - t[0])
    integral = np.concatenate(([0.0], np.cumsum(dt * (f[1:] + f[:-1]) / 2.0)))
    return _clip_round_off(np.exp(-integral))


def gamma_identity_defect(sol: AmplitudeSolution) -> float:
    """Largest deviation of gamma_of_t's exp(-integral Re f) from |b(t)|, which
    it equals identically: the combined error of f and of the quadrature."""
    return float(np.max(np.abs(gamma_of_t(sol.t, coefficient_f(sol)) - np.abs(sol.b))))


# ---------------------------------------------------------------- master

_SM_A = np.kron(SIGMA_MINUS, I2)
_SM_B = np.kron(I2, SIGMA_MINUS)
_SP_A = dagger(_SM_A)
_SP_B = dagger(_SM_B)
_N_A = _SP_A @ _SM_A
_N_B = _SP_B @ _SM_B


# The diagonals of sz_A / 2 and sz_B / 2 in the product basis.
_DIAG_A = np.array([0.5, 0.5, -0.5, -0.5])
_DIAG_B = np.array([0.5, -0.5, 0.5, -0.5])


def master_rhs(rho: np.ndarray, f: complex, g: complex, omega_a: float = 0.0,
               omega_b: float = 0.0) -> np.ndarray:
    """Right-hand side of the lab-frame master equation, for a state or a
    (..., 4, 4) stack: the complex rates f, g and the bare frequencies
    omega_a, omega_b at one time."""
    fv, gv = complex(f), complex(g)
    hvec = (omega_a + fv.imag) * _DIAG_A + (omega_b + gv.imag) * _DIAG_B
    out = -1j * (hvec[:, None] - hvec[None, :]) * rho
    out += fv.real * (2.0 * (_SM_A @ rho @ _SP_A) - _N_A @ rho - rho @ _N_A)
    out += gv.real * (2.0 * (_SM_B @ rho @ _SP_B) - _N_B @ rho - rho @ _N_B)
    return out


def local_coherence_decay(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes of the single-atom lowering coherences |<s-_A>|, |<s-_B>|
    along the trajectory (picture-independent)."""
    a = np.abs(np.einsum("tij,ji->t", traj.states, _SM_A))
    b = np.abs(np.einsum("tij,ji->t", traj.states, _SM_B))
    return a, b


# ---------------------------------------------------------------- esd

# Search window and tolerances for the bisection, in the dimensionless time
# s = rate*t.  The window holds every death time: s_d < 37 for all floats
# a > 1/3.
BISECTION_WINDOW = 50.0
BISECTION_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8
EPS = float(np.finfo(float).eps)


def _family_factor(a, wa2, wb2) -> np.ndarray:
    """The textbook branch factor f = 1 - sqrt(a (1 - a + (wa2 + wb2) + wa2 wb2 a)),
    elementwise.  It cancels near its zero, where esd.family_concurrence's
    (1 - X)/(1 + sqrt(X)) does not; one w2 passed twice gives the equal-rate
    factor bit for bit: wa2 + wb2 is then exactly 2 w2."""
    return 1.0 - np.sqrt(a * (1.0 - a + (wa2 + wb2) + wa2 * wb2 * a))


def disentanglement_time(a: float) -> float:
    """Death time s_d = rate * t_d by bisection on the textbook factor, +inf
    for a <= 1/3.

    Verifies monotonicity of the factor on the bracket, bisects to
    BISECTION_TOL and cross-checks esd.death_time_s.  The factor is evaluated
    to a few eps, but its slope in s is of order u_d = e^{-s_d}, which
    vanishes as a -> 1/3; so the cross-check allows CROSS_CHECK_TOL +
    8 eps/u_d in s, and a larger disagreement raises NumericalError.
    """
    s_exact = float(death_time_s(a))
    if s_exact == math.inf:
        return s_exact

    def f(s: float) -> float:
        w2 = 1.0 - math.exp(-s)
        return _family_factor(a, w2, w2)

    lo, hi = 0.0, BISECTION_WINDOW
    samples = [f(hi * k / 100.0) for k in range(101)]
    if any(b > prev + 1e-12 for prev, b in zip(samples, samples[1:])):
        raise NumericalError("concurrence factor is not monotone on the bracket")
    if not (samples[0] > 0.0 >= samples[-1]):
        raise NumericalError("bisection bracket does not straddle the zero")
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s_d = 0.5 * (lo + hi)
    tol = CROSS_CHECK_TOL + 8.0 * EPS / math.exp(-s_exact)
    if abs(s_d - s_exact) > tol:
        raise NumericalError(
            f"bisection root {s_d!r} disagrees with closed form {s_exact!r} (rate*t)"
        )
    return s_d


def concurrence_markov(a: float, rate: float, t: float) -> float:
    """Concurrence of the family under equal-rate Markov damping at time t,
    by the textbook factor."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    g2 = math.exp(-rate * t)
    w2 = 1.0 - g2
    return float((2.0 / 3.0) * max(0.0, g2 * _family_factor(a, w2, w2)))


def family_trajectory(a: float, gamma_a: float, gamma_b: float | None = None) -> XState:
    """One damped family state from family_image, as an XState."""
    p1, p2, p3, p4, z23 = family_image(a, gamma_a, gamma_a if gamma_b is None else gamma_b)
    return XState(float(p1), float(p2), float(p3), float(p4), z23=complex(z23))


def family_concurrence_x(a: float, gamma: float) -> float:
    """Concurrence of the damped family via the X-state closed form
    (general-coefficient route, cross-checks concurrence_markov)."""
    return concurrence_x(family_trajectory(a, gamma))


@dataclass(frozen=True)
class LocalVsNonlocal:
    """Side-by-side decay series: the single-atom coherence factor (plain
    exponential, never zero) against the family concurrence."""

    t: np.ndarray
    local_coherence: np.ndarray
    concurrence: np.ndarray


def local_vs_nonlocal_report(a: float, rate: float, t_grid: np.ndarray) -> LocalVsNonlocal:
    """Contrast the smooth local decay e^{-rate t/2} with the concurrence,
    which can reach exact zero in finite time."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(np.diff(t_grid) < 0) or t_grid[0] < 0.0:
        raise ValueError("t_grid must be nonempty, ascending, nonnegative")
    if not (np.isfinite(t_grid[-1]) and math.isfinite(rate) and rate >= 0.0):
        raise ValueError("finite t and a finite rate >= 0 required")
    local = np.exp(-0.5 * rate * t_grid)
    conc = family_concurrence(a, local, local)
    return LocalVsNonlocal(t=t_grid, local_coherence=local, concurrence=conc)
