"""Sudden death of entanglement under Markov damping.

For the standard one-parameter family the concurrence along the damping
trajectory is (2/3) * max(0, g2 * f(g2)) with g2 = exp(-rate*t) and
f = 1 - sqrt(a * (1 - a + 2 w2 + w2^2 a)), w2 = 1 - g2.  The zero of f has a
closed form; death happens at finite time exactly when a > 1/3, otherwise the
concurrence only vanishes asymptotically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import coefficients_from_gammas
from .entanglement import concurrence_x
from .errors import NumericalError
from .states import XState, standard_family

FINITE_DEATH_THRESHOLD = 1.0 / 3.0
# Search window and tolerances for the bisection path, in units of 1/rate.
BISECTION_WINDOW = 50.0
BISECTION_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class EsdVerdict:
    """Classification of the disentanglement behavior at one a.

    kind is "finite" (t_d holds the death time) or "asymptotic" (t_d is None,
    the concurrence stays positive for all finite times).
    """

    a: float
    kind: str
    t_d: float | None


def family_trajectory(a: float, gamma_a: float, gamma_b: float | None = None) -> XState:
    """Damped image of the standard family at residual amplitudes gamma.

    Populations pick up the transferred weight of the excited levels; the
    surviving coherence is gamma_a*gamma_b/3.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    if gamma_b is None:
        gamma_b = gamma_a
    c = coefficients_from_gammas(gamma_a, gamma_b)
    ga2, gb2 = c.gamma_a ** 2, c.gamma_b ** 2
    wa2, wb2 = c.omega_a ** 2, c.omega_b ** 2
    third = 1.0 / 3.0
    p1 = ga2 * gb2 * a * third
    p2 = ga2 * (1.0 + wb2 * a) * third
    p3 = gb2 * (1.0 + wa2 * a) * third
    p4 = (1.0 - a + wa2 + wb2 + wa2 * wb2 * a) * third
    return XState(p1, p2, p3, p4, z23=(c.gamma_a * c.gamma_b * third) + 0.0j)


def _f_of_w2(a: float, w2: float) -> float:
    return 1.0 - math.sqrt(a * (1.0 - a + 2.0 * w2 + w2 * w2 * a))


def concurrence_markov(a: float, rate: float, t: float) -> float:
    """Concurrence of the family under equal-rate Markov damping at time t."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    g2 = math.exp(-rate * t)
    return (2.0 / 3.0) * max(0.0, g2 * _f_of_w2(a, 1.0 - g2))


def disentanglement_time_exact(a: float, rate: float) -> EsdVerdict:
    """Death time from the closed-form root of the concurrence factor.

    Solving f = 0 as a quadratic in w2 gives
    w2_d = (sqrt(a^2 - a + 2) - 1)/a, hence t_d = -log(1 - w2_d)/rate; the
    root lies inside (0, 1) only for a > 1/3.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")
    if a <= FINITE_DEATH_THRESHOLD:
        return EsdVerdict(a=a, kind="asymptotic", t_d=None)
    w2_d = (math.sqrt(a * a - a + 2.0) - 1.0) / a
    return EsdVerdict(a=a, kind="finite", t_d=-math.log(1.0 - w2_d) / rate)


def disentanglement_time(a: float, rate: float) -> EsdVerdict:
    """Death time by bisection on the concurrence factor.

    Verifies monotonicity of the factor on the bracket, bisects to
    1e-10/rate, and cross-checks the closed form; a disagreement beyond
    1e-8/rate raises NumericalError.
    """
    exact = disentanglement_time_exact(a, rate)
    if exact.kind == "asymptotic":
        return exact

    def f(t: float) -> float:
        return _f_of_w2(a, 1.0 - math.exp(-rate * t))

    lo, hi = 0.0, BISECTION_WINDOW / rate
    samples = [f(lo + (hi - lo) * k / 100.0) for k in range(101)]
    if any(b > prev + 1e-12 for prev, b in zip(samples, samples[1:])):
        raise NumericalError("concurrence factor is not monotone on the bracket")
    if not (samples[0] > 0.0 >= samples[-1]):
        raise NumericalError("bisection bracket does not straddle the zero")
    while hi - lo > BISECTION_TOL / rate:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_d = 0.5 * (lo + hi)
    if abs(t_d - exact.t_d) > CROSS_CHECK_TOL / rate:
        raise NumericalError(
            f"bisection root {t_d!r} disagrees with closed form {exact.t_d!r}"
        )
    return EsdVerdict(a=a, kind="finite", t_d=t_d)


def sweep(a_grid: np.ndarray, t_grid: np.ndarray, rate: float) -> np.ndarray:
    """Concurrence surface over (a, t): shape (len(a_grid), len(t_grid))."""
    a_grid = np.asarray(a_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if a_grid.size == 0 or t_grid.size == 0:
        raise ValueError("empty grid")
    if np.any(np.diff(a_grid) < 0) or np.any(np.diff(t_grid) < 0):
        raise ValueError("grids must be sorted ascending")
    if not (a_grid[0] >= 0.0 and a_grid[-1] <= 1.0 and t_grid[0] >= 0.0
            and np.isfinite(t_grid[-1]) and math.isfinite(rate) and rate >= 0.0):
        raise ValueError("a in [0, 1], finite t >= 0, finite rate >= 0 required")
    g2 = np.exp(-rate * t_grid)[None, :]
    w2 = 1.0 - g2
    a = a_grid[:, None]
    f = 1.0 - np.sqrt(a * (1.0 - a + 2.0 * w2 + w2 * w2 * a))
    return (2.0 / 3.0) * np.maximum(0.0, g2 * f)


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
    local = np.exp(-0.5 * rate * t_grid)
    conc = sweep(np.array([a]), t_grid, rate)[0]
    return LocalVsNonlocal(t=t_grid, local_coherence=local, concurrence=conc)


def family_concurrence_x(a: float, gamma: float) -> float:
    """Concurrence of the damped family via the X-state closed form
    (general-coefficient route, cross-checks concurrence_markov)."""
    return concurrence_x(family_trajectory(a, gamma))
