"""Amplitude-damping channel for two independently damped qubits.

Each atom carries a residual amplitude gamma and a transfer amplitude
omega = sqrt(1 - gamma^2); the two-qubit channel is the four-operator Kraus
set built from diag(gamma, 1) and omega times the lowering operator.  The
channel is applied atom by atom on the (2, 2, 2, 2) view of each state, so
a stack of states and per-state amplitudes go through in one pass.  The
Markov special case is gamma = exp(-rate*t/2); time-dependent gammas from a
memory kernel plug into the same constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I4, SIGMA_MINUS, dagger, first_bad, kron
from .states import assert_density_matrix

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True)
class DampingCoefficients:
    """Per-atom residual (gamma) and transfer (omega) amplitudes.

    Each pair must sit on the unit circle: gamma^2 + omega^2 = 1 within 1e-12,
    with both entries in [0, 1].  The amplitudes are floats, or arrays that
    broadcast against the leading axes of a state stack (one channel per
    stack member).
    """

    gamma_a: float | np.ndarray
    gamma_b: float | np.ndarray
    omega_a: float | np.ndarray
    omega_b: float | np.ndarray

    def __post_init__(self) -> None:
        for name, gamma, omega in (
            ("A", self.gamma_a, self.omega_a),
            ("B", self.gamma_b, self.omega_b),
        ):
            if not (_in_unit_interval(gamma) and _in_unit_interval(omega)):
                raise ValueError(f"atom {name}: amplitudes must lie in [0, 1]")
            norm = np.asarray(gamma * gamma + omega * omega)
            bad = first_bad(np.abs(norm - 1.0) > 1e-12)
            if bad is not None:
                raise ValueError(
                    f"atom {name}: gamma^2 + omega^2 = {norm[bad]:.15g}, expected 1"
                )


def _in_unit_interval(x: float | np.ndarray) -> bool:
    x = np.asarray(x)
    return bool(np.all((0.0 <= x) & (x <= 1.0)))


def coefficients_from_gammas(
    gamma_a: float | np.ndarray, gamma_b: float | np.ndarray
) -> DampingCoefficients:
    """Coefficients with omegas filled in from the unit-circle constraint.

    Float gammas give float coefficients; array gammas give one channel per
    entry.
    """
    amplitudes = []
    for name, g in (("A", gamma_a), ("B", gamma_b)):
        if not _in_unit_interval(g):
            raise ValueError(f"atom {name}: gamma={g} outside [0, 1]")
        omega = np.sqrt(1.0 - np.asarray(g, dtype=float) ** 2)
        amplitudes.append(float(omega) if omega.ndim == 0 else omega)
    return DampingCoefficients(gamma_a, gamma_b, amplitudes[0], amplitudes[1])


def coefficients_markov(rate: float, t: float) -> DampingCoefficients:
    """Markov damping at a common rate: gamma = exp(-rate*t/2)."""
    if rate < 0.0:
        raise ValueError(f"negative rate {rate}")
    if t < 0.0:
        raise ValueError(f"negative time {t}")
    g = float(np.exp(-0.5 * rate * t))
    return coefficients_from_gammas(g, g)


def build_kraus(c: DampingCoefficients) -> list[np.ndarray]:
    """The four Kraus operators of a single channel, residual-residual first.

    Order: (keep A, keep B), (keep A, decay B), (decay A, keep B),
    (decay A, decay B).  This is the reference form; apply_channel and
    kraus_term act with the per-atom factors instead.
    """
    keep_a = np.diag([c.gamma_a, 1.0]).astype(complex)
    keep_b = np.diag([c.gamma_b, 1.0]).astype(complex)
    drop_a = c.omega_a * SIGMA_MINUS
    drop_b = c.omega_b * SIGMA_MINUS
    return [
        kron(keep_a, keep_b),
        kron(keep_a, drop_b),
        kron(drop_a, keep_b),
        kron(drop_a, drop_b),
    ]


def completeness_defect(kraus: list[np.ndarray]) -> float:
    """Largest entrywise deviation of sum(K^dagger K) from the identity."""
    acc = sum(dagger(k) @ k for k in kraus)
    return float(np.max(np.abs(acc - I4)))


# On the (..., 2, 2, 2, 2) view of a two-qubit matrix the axes are
# (row A, row B, column A, column B); each atom acts on its row/column pair.


def _keep(r: np.ndarray, gamma: float | np.ndarray, atom: str) -> np.ndarray:
    """K r K^dagger with K = diag(gamma, 1) on one atom: entry (i, j) of the
    atom's pair is scaled by k_i k_j, k = (gamma, 1)."""
    k = np.stack(np.broadcast_arrays(np.asarray(gamma, dtype=float), 1.0), -1)
    factor = k[..., :, None] * k[..., None, :]
    if atom == "A":
        return r * factor[..., :, None, :, None]
    return r * factor[..., None, :, None, :]


def _decay(r: np.ndarray, omega: float | np.ndarray, atom: str) -> np.ndarray:
    """K r K^dagger with K = omega * sigma_minus on one atom: the atom's
    excited-excited block moves to ground-ground, scaled by omega^2."""
    w2 = np.asarray(omega, dtype=float) ** 2
    shape = np.broadcast_shapes(r.shape, w2.shape + (2, 2, 2, 2))
    out = np.zeros(shape, dtype=complex)
    if atom == "A":
        out[..., 1, :, 1, :] = w2[..., None, None] * r[..., 0, :, 0, :]
    else:
        out[..., :, 1, :, 1] = w2[..., None, None] * r[..., :, 0, :, 0]
    return out


def _kraus_terms(rho: np.ndarray, c: DampingCoefficients) -> list[np.ndarray]:
    """The four branches K_mu rho K_mu^dagger of a validated state stack,
    in build_kraus order, each of shape (..., 4, 4)."""
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    keep_b = _keep(r, c.gamma_b, "B")
    decay_b = _decay(r, c.omega_b, "B")
    terms = (
        _keep(keep_b, c.gamma_a, "A"),
        _keep(decay_b, c.gamma_a, "A"),
        _decay(keep_b, c.omega_a, "A"),
        _decay(decay_b, c.omega_a, "A"),
    )
    return [t.reshape(t.shape[:-4] + (4, 4)) for t in terms]


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
