"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything in the package lives in dimension 2 (one qubit) or 4 (two qubits),
so the helpers here validate dimensions instead of being generic.  Matrix
helpers act on the last two axes, so a stack of shape (..., n, n) is handled
in one pass and a single matrix is the stack with no leading axes.  Eigenwork
goes through numpy's Hermitian solver only; there is deliberately no general
nonsymmetric eigensolver in the state-space code paths.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
# Negative eigenvalues above this magnitude are round-off; below it they are an error.
EIG_CLAMP = 1e-8
# Eigenvalues below this fraction of the largest are round-off dust from
# rank-deficient inputs; sqrt would amplify them from ~1e-17 to ~1e-9.
RELATIVE_RANK_FLOOR = 1e-14

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis order puts the excited state first, so the lowering operator is lower-left.
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def first_bad(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of a per-matrix mask, or None if there is none.

    A single matrix has the 0-d mask and the index ().
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def member(index: tuple[int, ...]) -> str:
    """Error-message label of one stack member: "" for a single matrix."""
    if not index:
        return ""
    return f" {index[0]}" if len(index) == 1 else f" {index}"


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """Largest entrywise deviation of a from its conjugate transpose.

    A float for one matrix, an array over the leading axes for a stack.
    """
    a = np.asarray(a, dtype=complex)
    defect = np.max(np.abs(a - dagger(a)), axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _psd_sqrt_from_eigen(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian square root of PSD matrices from their eigendecomposition
    (w ascending, v), with no second solve.  Eigenvalues in [-EIG_CLAMP, 0)
    are round-off and become zero, more negative ones raise ValueError, and
    positive ones below RELATIVE_RANK_FLOOR times the largest are zeroed:
    on rank-deficient inputs their roots would leak ~1e-9 off the support.
    """
    bad = first_bad(w[..., 0] < -EIG_CLAMP)
    if bad is not None:
        raise ValueError(
            f"matrix{member(bad)} is not PSD: "
            f"min eigenvalue {w[bad][0]:.3e} < -{EIG_CLAMP:.1e}"
        )
    floor = RELATIVE_RANK_FLOOR * np.maximum(w[..., -1:], 0.0)
    w = np.where(w < floor, 0.0, w)
    s = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    return 0.5 * (s + dagger(s))
