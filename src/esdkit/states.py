"""Two-qubit states in the product basis (excited-excited first).

Basis order is |ee>, |eg>, |ge>, |gg>, indices 0..3.  Density matrices are
plain complex ndarrays; the X-shaped subfamily (diagonal plus the two
anti-diagonal coherences) gets a small value type because the damping channel
and the standard initial family never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_TOL, dagger, first_bad, hermiticity_defect, member

TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
PROB_SUM_TOL = 1e-12
COHERENCE_SLACK = 1e-12


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a 4x4 (or 2x2) density matrix, or a stack (..., n, n) of them,
    and return it as complex ndarray.

    Checks Hermiticity to HERMITIAN_TOL, unit trace to TRACE_TOL, and
    positivity down to EIG_FLOOR.
    Raises ValueError on any violation, naming the first bad stack member.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or rho.shape[-1] not in (2, 4):
        raise ValueError(f"expected 2x2 or 4x4 matrices, got shape {rho.shape}")
    defect = np.asarray(hermiticity_defect(rho))
    tr = np.trace(rho, axis1=-2, axis2=-1)
    sane = (defect <= HERMITIAN_TOL) & (np.abs(tr - 1.0) <= TRACE_TOL)
    # Failed members get the zero matrix so the eigensolver never sees non-finite input.
    sym = np.where(sane[..., None, None], 0.5 * (rho + dagger(rho)), 0.0)
    w_min = np.linalg.eigvalsh(sym)[..., 0]
    i = first_bad(~sane | (w_min < EIG_FLOOR))
    if i is None:
        return rho
    if not defect[i] <= HERMITIAN_TOL:
        raise ValueError(f"state{member(i)} is not Hermitian: defect {defect[i]:.3e}")
    if not abs(tr[i] - 1.0) <= TRACE_TOL:
        raise ValueError(
            f"state{member(i)} trace {tr[i]:.12g} is not 1 within {TRACE_TOL:.1e}"
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


def random_states(seeds) -> np.ndarray:
    """Ginibre-random two-qubit density matrices G G^dagger / tr(G G^dagger),
    one per seed, as a (len(seeds), 4, 4) stack.

    Each G is drawn from its own np.random.default_rng(seed), so a given seed
    always produces the same state, whatever stack it is in.
    """
    # One draw of both halves per seed: the real part, then the imaginary.
    parts = np.empty((len(seeds), 2, 4, 4))
    for part, seed in zip(parts, seeds):
        np.random.default_rng(seed).standard_normal(out=part)
    g = parts[:, 0] + 1j * parts[:, 1]
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def random_state(seed: int) -> np.ndarray:
    """The one-seed stack of random_states."""
    return random_states([seed])[0]
