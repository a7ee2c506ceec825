"""Two-qubit states in the product basis (excited-excited first).

Basis order is |ee>, |eg>, |ge>, |gg>, indices 0..3.  Density matrices are
plain complex ndarrays; the X-shaped subfamily (diagonal plus the two
anti-diagonal coherences) gets a small value type because the damping channel
and the standard initial family never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, first_bad, hermiticity_defect, member

TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
PROB_SUM_TOL = 1e-12
COHERENCE_SLACK = 1e-12

EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Density matrix of a normalized state vector."""
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("zero vector has no state")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def assert_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIG_FLOOR,
) -> np.ndarray:
    """Validate a 4x4 (or 2x2) density matrix, or a stack (..., n, n) of them,
    and return it as complex ndarray.

    Checks Hermiticity, unit trace, and positivity down to eig_floor.
    Raises ValueError on any violation, naming the first bad stack member.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or rho.shape[-1] not in (2, 4):
        raise ValueError(f"expected 2x2 or 4x4 matrices, got shape {rho.shape}")
    defect = np.asarray(hermiticity_defect(rho))
    tr = np.trace(rho, axis1=-2, axis2=-1)
    sane = (defect <= herm_tol) & (np.abs(tr - 1.0) <= trace_tol)
    # Failed members get the zero matrix so the eigensolver never sees non-finite input.
    sym = np.where(sane[..., None, None], 0.5 * (rho + dagger(rho)), 0.0)
    w_min = np.linalg.eigvalsh(sym)[..., 0]
    i = first_bad(~sane | (w_min < eig_floor))
    if i is None:
        return rho
    if not defect[i] <= herm_tol:
        raise ValueError(f"state{member(i)} is not Hermitian: defect {defect[i]:.3e}")
    if not abs(tr[i] - 1.0) <= trace_tol:
        raise ValueError(
            f"state{member(i)} trace {tr[i]:.12g} is not 1 within {trace_tol:.1e}"
        )
    raise ValueError(f"state{member(i)} is not positive: min eigenvalue {w_min[i]:.3e}")


@dataclass(frozen=True)
class XState:
    """X-shaped two-qubit state: populations p1..p4 plus the two anti-diagonal
    coherences (z23 couples |eg>,|ge>; z14 couples |ee>,|gg>)."""

    p1: float
    p2: float
    p3: float
    p4: float
    z23: complex = 0.0j
    z14: complex = 0.0j

    def __post_init__(self) -> None:
        probs = (self.p1, self.p2, self.p3, self.p4)
        if min(probs) < 0.0:
            raise ValueError(f"negative population in {probs}")
        total = sum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"populations sum to {total:.15g}, not 1")
        if abs(self.z23) > np.sqrt(self.p2 * self.p3) + COHERENCE_SLACK:
            raise ValueError("coherence z23 exceeds sqrt(p2*p3): state not positive")
        if abs(self.z14) > np.sqrt(self.p1 * self.p4) + COHERENCE_SLACK:
            raise ValueError("coherence z14 exceeds sqrt(p1*p4): state not positive")


def standard_family(a: float) -> XState:
    """One-parameter mixed family: populations (a, 1, 1, 1-a)/3 with
    coherence 1/3 between the single-excitation states.

    a in [0, 1] interpolates the weight between double excitation and
    double occupation of the ground pair.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    third = 1.0 / 3.0
    return XState(a * third, third, third, (1.0 - a) * third, z23=third + 0.0j)


def xstate_to_dense(x: XState) -> np.ndarray:
    """Dense 4x4 density matrix of an X state."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = x.p1, x.p2, x.p3, x.p4
    rho[1, 2] = x.z23
    rho[2, 1] = np.conj(x.z23)
    rho[0, 3] = x.z14
    rho[3, 0] = np.conj(x.z14)
    return rho


def dense_to_xstate(rho: np.ndarray, off_x_tol: float = 1e-10) -> XState:
    """Project a dense matrix back to the XState carrier.

    Entries outside the X pattern must vanish to off_x_tol, otherwise the
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
    if worst > off_x_tol:
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


def random_state(seed: int, dim: int = 4) -> np.ndarray:
    """Ginibre-random density matrix: G G^dagger normalized to unit trace.

    Seeded through np.random.default_rng, so a given (seed, dim) always
    produces the same state.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_xstate(seed: int) -> XState:
    """Random valid X state (Dirichlet populations, coherences inside the
    positivity disks), seeded like random_state."""
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
