"""Concurrence and the damping decay bound.

The concurrence is computed from the Hermitian product sqrt(rho) * flipped *
sqrt(rho) (isospectral to the usual non-Hermitian product, but keeps every
eigenproblem Hermitian).  Inputs may be unnormalized: the measure is
homogeneous of degree one in rho, which is what makes the per-branch bound
checks meaningful.  Both concurrence and check_bound take stacks of shape
(..., 4, 4) and run their eigenvalue work once per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DampingCoefficients, _kraus_terms
from .linalg import (HERMITIAN_TOL, _psd_sqrt_from_eigen, dagger, first_bad,
                     hermiticity_defect, member)
from .states import EIG_FLOOR, XState, assert_density_matrix

# Eigenvalues of the Hermitian product below this fraction of the largest are
# zeroed before the square root; otherwise sqrt of round-off dust (~1e-16)
# pollutes exact cases at the 1e-8 level.
RELATIVE_EIG_FLOOR = 1e-13

# (sigma_y x sigma_y) is anti-diagonal with entries (-1, 1, 1, -1), so the
# flip reverses both axes and multiplies entry (i, j) by s_i s_j.
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_PHASES = np.outer(_FLIP_SIGNS, _FLIP_SIGNS)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the four square-rooted eigenvalues, descending.

    For a stack the value is an array over the leading axes and roots has
    one more trailing axis of length 4.
    """

    value: float | np.ndarray
    roots: tuple[float, float, float, float] | np.ndarray


def spin_flipped(rho: np.ndarray) -> np.ndarray:
    """The flipped matrix (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    return _FLIP_PHASES * rho[..., ::-1, ::-1].conj()


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Concurrence of a (possibly unnormalized) PSD 4x4 matrix, or of each
    matrix in a stack (..., 4, 4).

    Validates Hermiticity to HERMITIAN_TOL and positivity down to EIG_FLOOR,
    then takes max(0, r1 - r2 - r3 - r4) over the descending square roots of
    the eigenvalues of sqrt(rho) flipped(rho) sqrt(rho).  One Hermitian
    eigendecomposition of each input feeds both the check and sqrt(rho).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got {rho.shape}")
    defect = np.asarray(hermiticity_defect(rho))
    bad = first_bad(~(defect <= HERMITIAN_TOL))
    if bad is not None:
        raise ValueError(f"input{member(bad)} is not Hermitian: defect {defect[bad]:.3e}")
    rho = 0.5 * (rho + dagger(rho))
    # rho is now exactly Hermitian, so this is the decomposition psd_sqrt(rho) would make.
    w, v = np.linalg.eigh(rho)
    bad = first_bad(w[..., 0] < EIG_FLOOR)
    if bad is not None:
        raise ValueError(f"input{member(bad)} is not PSD: min eigenvalue {w[bad][0]:.3e}")
    s = _psd_sqrt_from_eigen(w, v)
    m = s @ spin_flipped(rho) @ s
    m = 0.5 * (m + dagger(m))
    lam = np.linalg.eigvalsh(m)
    floor = RELATIVE_EIG_FLOOR * np.maximum(lam[..., -1:], 0.0)
    lam = np.where(lam < floor, 0.0, lam)
    roots = np.sqrt(lam)[..., ::-1]
    value = np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])
    if value.ndim == 0:
        return ConcurrenceResult(float(value), tuple(float(r) for r in roots))
    return ConcurrenceResult(value, roots)


def concurrence_x(x: XState) -> float:
    """Closed-form concurrence of an X state:
    2 max(0, |z23| - sqrt(p1 p4), |z14| - sqrt(p2 p3))."""
    inner = abs(x.z23) - math.sqrt(x.p1 * x.p4)
    outer = abs(x.z14) - math.sqrt(x.p2 * x.p3)
    return 2.0 * max(0.0, inner, outer)


def decay_bound(c0: float | np.ndarray, exponent: float | np.ndarray) -> float | np.ndarray:
    """Upper bound c0 * exp(-exponent) for the concurrence after damping.

    exponent is the accumulated decay integral (for Markov damping at rate
    Gamma it equals Gamma*t); it must be nonnegative, and c0 must be a valid
    concurrence in [0, 1].  Arrays broadcast elementwise.
    """
    c0 = np.asarray(c0, dtype=float)
    exponent = np.asarray(exponent, dtype=float)
    if not np.all((0.0 <= c0) & (c0 <= 1.0 + 1e-12)):
        raise ValueError(f"c0={c0} is not a concurrence value")
    if not np.all(exponent >= 0.0):
        raise ValueError(f"negative or undefined decay exponent {exponent}")
    bound = c0 * np.exp(-exponent)
    return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a decay-bound check on one state, or on each (state,
    channel) pair of a stack, in which case every field is an array.

    first_branch_gap is |C(K1 rho K1^dag) - e^{-exponent} C(rho)|, which the
    channel structure forces to zero; side_branch_max is the largest
    concurrence among the three decay branches, also structurally zero.
    """

    initial: float | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    satisfied: bool | np.ndarray
    first_branch_gap: float | np.ndarray
    side_branch_max: float | np.ndarray


def check_bound(rho0: np.ndarray, c: DampingCoefficients, slack: float = 1e-10) -> BoundReport:
    """Evaluate the decay bound on one state and channel, or on a stack.

    rho0 may be a stack (..., 4, 4) whose leading axes broadcast against
    array amplitudes in c; each state is validated once and its C(rho0)
    computed once, and the five concurrences of every pair come from the same
    stacked call.  The decay exponent is -log(gamma_a * gamma_b), the value
    consistent with the supplied coefficients.  slack must be finite and
    nonnegative.
    """
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    with np.errstate(divide="ignore"):
        exponent = -np.log(np.multiply(c.gamma_a, c.gamma_b))
    rho0 = assert_density_matrix(rho0)
    t1, t2, t3, t4 = _kraus_terms(rho0, c)
    pair_shape = np.broadcast_shapes(t1.shape, np.shape(exponent) + (4, 4))
    # One stacked call: C(rho) per state, then C(channel) and the four branches per pair.
    pairs = np.stack([np.broadcast_to(m, pair_shape) for m in (t1 + t2 + t3 + t4, t1, t2, t3, t4)])
    conc = concurrence(np.concatenate([rho0.reshape(-1, 4, 4), pairs.reshape(-1, 4, 4)])).value
    n0 = rho0.size // 16
    c0 = np.broadcast_to(conc[:n0].reshape(rho0.shape[:-2]), pair_shape[:-2]).copy()
    lhs, first, *sides = conc[n0:].reshape(pairs.shape[:-2])
    rhs = np.asarray(decay_bound(np.minimum(c0, 1.0), exponent))
    report = {
        "initial": c0,
        "lhs": lhs,
        "rhs": rhs,
        "satisfied": lhs <= rhs + slack,
        "first_branch_gap": np.abs(first - np.exp(-exponent) * c0),
        "side_branch_max": np.max(sides, axis=0),
    }
    if lhs.ndim == 0:
        return BoundReport(**{k: v.item() for k, v in report.items()})
    return BoundReport(**report)
