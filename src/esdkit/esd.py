"""Sudden death of entanglement under damping.

The standard family damped to residual amplitudes gamma_A, gamma_B is the X
state family_image, of concurrence (2/3) max(0, gamma_A gamma_B f) with
f = 1 - sqrt(a (1 - a + (wa2 + wb2) + wa2 wb2 a)), w2 = 1 - gamma^2 per atom.
At equal Markov rates gamma_A gamma_B = g2 = exp(-rate*t), wa2 = wb2 = 1 - g2,
and the zero of f has a closed form, death_time_s, the production death time:
finite exactly when a > 1/3.  The bisection disentanglement_time and
family_concurrence_x in esdkit.reference are its independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

FINITE_DEATH_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class EsdVerdict:
    """Classification of the disentanglement behavior at one a.

    kind is "finite" (t_d holds the death time) or "asymptotic" (t_d is None,
    the concurrence stays positive for all finite times).
    """

    a: float
    kind: str
    t_d: float | None


def _family_factor(a, wa2, wb2) -> np.ndarray:
    """Concurrence factor f = 1 - sqrt(a (1 - a + (wa2 + wb2) + wa2 wb2 a)),
    elementwise over floats or broadcasting arrays.  One w2 passed twice gives
    the equal-rate factor bit for bit: wa2 + wb2 is then exactly 2 w2."""
    return 1.0 - np.sqrt(a * (1.0 - a + (wa2 + wb2) + wa2 * wb2 * a))


def _family_inputs(a: float, gamma_a, gamma_b) -> tuple[np.ndarray, ...]:
    """(gamma_a, wa2, gamma_b, wb2), validated, with w2 = (1 - gamma)(1 + gamma):
    exact to a few ulps as gamma -> 1, where f's square root amplifies errors."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"family parameter a={a} outside [0, 1]")
    checked = []
    for name, g in (("A", gamma_a), ("B", gamma_b)):
        g = np.asarray(g, dtype=float)
        bad = ~((g >= 0.0) & (g <= 1.0))
        if bad.any():
            raise ValueError(f"atom {name}: gamma={float(g[bad].flat[0])!r} outside [0, 1]")
        checked += [g, (1.0 - g) * (1.0 + g)]
    return tuple(checked)


def family_image(a: float, gamma_a, gamma_b) -> tuple[np.ndarray, ...]:
    """X entries (p1, p2, p3, p4, z23) of the damped standard family,
    elementwise over broadcasting residual amplitudes gamma_a, gamma_b in
    [0, 1] (a ValueError names the atom otherwise).  Populations pick up the
    transferred weights w2 = 1 - gamma^2; the coherence z23 is real."""
    ga, wa2, gb, wb2 = _family_inputs(a, gamma_a, gamma_b)
    ga2, gb2 = ga * ga, gb * gb
    third = 1.0 / 3.0
    p1 = ga2 * gb2 * a * third
    p2 = ga2 * (1.0 + wb2 * a) * third
    p3 = gb2 * (1.0 + wa2 * a) * third
    p4 = (1.0 - a + (wa2 + wb2) + wa2 * wb2 * a) * third
    return p1, p2, p3, p4, ga * gb * third


def family_concurrence(a: float, gamma_a, gamma_b) -> np.ndarray:
    """Concurrence (2/3) max(0, gamma_a gamma_b f) of the damped family,
    elementwise over broadcasting residual amplitudes in [0, 1]."""
    ga, wa2, gb, wb2 = _family_inputs(a, gamma_a, gamma_b)
    return (2.0 / 3.0) * np.maximum(0.0, (ga * gb) * _family_factor(a, wa2, wb2))


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and positive, got {rate}")


def death_time_s(a: np.ndarray | float) -> np.ndarray:
    """Dimensionless death time s_d = rate * t_d of the family, elementwise.

    The root w2_d = (sqrt(a^2 - a + 2) - 1)/a of the concurrence factor gives
    s_d = -ln(1 - w2_d).  Rationalizing 1 - w2_d leaves

        s_d = ln(a (a + 1 + sqrt(a^2 - a + 2)) / (3a - 1)),

    where the only cancellation, 3a - 1, is formed exactly, so s_d keeps a
    relative error of a few ulps right up to the threshold.  Entries with
    a <= 1/3 are +inf: the concurrence then only vanishes asymptotically.
    """
    a = np.asarray(a, dtype=float)
    bad = ~((a >= 0.0) & (a <= 1.0))
    if bad.any():
        raise ValueError(f"family parameter a={a[bad].flat[0]} outside [0, 1]")
    finite = a > FINITE_DEATH_THRESHOLD
    x = np.where(finite, a, 1.0)
    # fl(1/3) = 1/3 - 2**-54/3, so 3a - 1 = 3 (a - fl(1/3)) - 2**-54; the
    # subtraction is exact (Sterbenz) for a <= 2/3, where 3a - 1 cancels.
    gap = 3.0 * (x - FINITE_DEATH_THRESHOLD) - 2.0 ** -54
    s_d = np.log(x * (x + 1.0 + np.sqrt(x * x - x + 2.0)) / gap)
    return np.where(finite, s_d, np.inf)


def _verdict(a: float, s_d: float, rate: float) -> EsdVerdict:
    """Verdict in model time t_d = s_d / rate; a t_d that overflows is a
    NumericalError, never an infinite death time."""
    if s_d == math.inf:
        return EsdVerdict(a=a, kind="asymptotic", t_d=None)
    t_d = s_d / rate
    if not math.isfinite(t_d):
        raise NumericalError(f"death time {s_d!r}/rate overflows at rate {rate!r}")
    return EsdVerdict(a=a, kind="finite", t_d=t_d)


def disentanglement_time_exact(a: float, rate: float) -> EsdVerdict:
    """Death time from the closed form of death_time_s; finite only for a > 1/3."""
    _check_rate(rate)
    return _verdict(a, float(death_time_s(a)), rate)


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
    with np.errstate(over="ignore"):  # rate*t beyond the float range: g2 is exactly 0
        g2 = np.exp(-rate * t_grid)[None, :]
    w2 = 1.0 - g2
    surface = (2.0 / 3.0) * np.maximum(0.0, g2 * _family_factor(a_grid[:, None], w2, w2))
    surface += 0.0  # an underflowed g2 times a negative factor is -0.0; report +0.0
    return surface
