"""Amplitude-damping channel for two independently damped qubits.

Each atom carries a residual amplitude gamma and a transfer amplitude
omega = sqrt(1 - gamma^2); the two-qubit channel is the four-operator Kraus
set built from diag(gamma, 1) and omega times the lowering operator.  The
channel is applied atom by atom on the (2, 2, 2, 2) view of each state, so
a stack of states and per-state amplitudes go through in one pass.  The
Markov special case is gamma = exp(-rate*t/2); time-dependent gammas from a
memory kernel plug into the same constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DampingCoefficients:
    """Per-atom residual amplitudes gamma, each in [0, 1]; the transfer
    amplitudes omega = sqrt(1 - gamma^2) are derived from them.  The
    amplitudes are floats, or arrays that broadcast against the leading axes
    of a state stack (one channel per stack member).
    """

    gamma_a: float | np.ndarray
    gamma_b: float | np.ndarray

    def __post_init__(self) -> None:
        for name, g in (("A", self.gamma_a), ("B", self.gamma_b)):
            x = np.asarray(g)
            if not np.all((0.0 <= x) & (x <= 1.0)):
                raise ValueError(f"atom {name}: gamma={g} outside [0, 1]")


def _omega(gamma: float | np.ndarray) -> np.ndarray:
    """The transfer amplitude omega = sqrt(1 - gamma^2) of a residual gamma."""
    return np.sqrt(1.0 - np.asarray(gamma, dtype=float) ** 2)


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
    """The four branches K_mu rho K_mu^dagger of a validated state stack, each
    of shape (..., 4, 4), in the order (keep A, keep B), (keep A, decay B),
    (decay A, keep B), (decay A, decay B)."""
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    keep_b = _keep(r, c.gamma_b, "B")
    omega_a = _omega(c.gamma_a)
    decay_b = _decay(r, _omega(c.gamma_b), "B")
    terms = (
        _keep(keep_b, c.gamma_a, "A"),
        _keep(decay_b, c.gamma_a, "A"),
        _decay(keep_b, omega_a, "A"),
        _decay(decay_b, omega_a, "A"),
    )
    return [t.reshape(t.shape[:-4] + (4, 4)) for t in terms]
