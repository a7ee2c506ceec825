"""Sudden death of entanglement under damping.

The standard family damped to residual amplitudes gamma_A, gamma_B is the X
state family_image, of concurrence (2/3) max(0, gamma_A gamma_B f).  The
branch factor f = 1 - sqrt(X), X = a (1 - a + wa2 + wb2 + wa2 wb2 a) with
w2 = 1 - gamma^2, is formed as f = (1 - X)/(1 + sqrt(X)), whose numerator

    1 - X = a (1 + a) (u_A + u_B) - a^2 u_A u_B - (3a - 1),  u = gamma^2,

is summed as (a (u_A + u_B) - (3a - 1)) + a^2 (u_A + u_B - u_A u_B): its
error stays a few ulps of 3a - 1, which vanishes at the threshold, where
1 - sqrt(X) loses every digit.  At equal rates u_A = u_B = e^(-s), s = rate*t,
the numerator is a quadratic in u whose smaller root gives death_time_s, the
production death time: finite exactly when a > 1/3.  Both take 3a - 1 from
_excess, so a concurrence and its death time agree to a few ulps in s.  The
bisection disentanglement_time and the textbook factor in esdkit.reference
are their independent cross-checks.
"""

from __future__ import annotations

import numpy as np

FINITE_DEATH_THRESHOLD = 1.0 / 3.0


def _check_a(a) -> np.ndarray:
    """a as a float array, refused with a ValueError unless in [0, 1]."""
    a = np.asarray(a, dtype=float)
    bad = ~((a >= 0.0) & (a <= 1.0))
    if bad.any():
        raise ValueError(f"family parameter a={a[bad].flat[0]} outside [0, 1]")
    return a


def _excess(a: np.ndarray) -> np.ndarray:
    """3a - 1 to a few ulps of itself, however small.  fl(1/3) = 1/3 - 2**-54/3,
    so 3a - 1 = 3 (a - fl(1/3)) - 2**-54, and the subtraction is exact
    (Sterbenz) for a in [1/6, 2/3], where 3a - 1 cancels."""
    return 3.0 * (a - FINITE_DEATH_THRESHOLD) - 2.0 ** -54


def _family_inputs(gamma_a, gamma_b) -> tuple[np.ndarray, ...]:
    """(gamma_a, wa2, gamma_b, wb2), validated, with w2 = (1 - gamma)(1 + gamma):
    exact to a few ulps as gamma -> 1."""
    checked = []
    for name, g in (("A", gamma_a), ("B", gamma_b)):
        g = np.asarray(g, dtype=float)
        bad = ~((g >= 0.0) & (g <= 1.0))
        if bad.any():
            raise ValueError(f"atom {name}: gamma={float(g[bad].flat[0])!r} outside [0, 1]")
        checked += [g, (1.0 - g) * (1.0 + g)]
    return tuple(checked)


def family_image(a, gamma_a, gamma_b) -> tuple[np.ndarray, ...]:
    """X entries (p1, p2, p3, p4, z23) of the damped standard family,
    elementwise over broadcasting a and residual amplitudes gamma_a, gamma_b
    in [0, 1] (a ValueError names the atom otherwise).  Populations pick up
    the transferred weights w2 = 1 - gamma^2; the coherence z23 is real."""
    a = _check_a(a)
    ga, wa2, gb, wb2 = _family_inputs(gamma_a, gamma_b)
    ga2, gb2 = ga * ga, gb * gb
    third = 1.0 / 3.0
    p1 = ga2 * gb2 * a * third
    p2 = ga2 * (1.0 + wb2 * a) * third
    p3 = gb2 * (1.0 + wa2 * a) * third
    p4 = (1.0 - a + (wa2 + wb2) + wa2 * wb2 * a) * third
    return p1, p2, p3, p4, ga * gb * third


def family_concurrence(a, gamma_a, gamma_b) -> np.ndarray:
    """Concurrence (2/3) max(0, gamma_a gamma_b f) of the damped family,
    elementwise over broadcasting a in [0, 1] and residual amplitudes in
    [0, 1], with the branch factor f = (1 - X)/(1 + sqrt(X)).  An underflowed
    gamma gives +0.0, never -0.0."""
    a = _check_a(a)
    ga, wa2, gb, wb2 = _family_inputs(gamma_a, gamma_b)
    ua, ub = ga * ga, gb * gb
    one_minus_x = (a * (ua + ub) - _excess(a)) + (a * a) * ((ua + ub) - ua * ub)
    x = a * (1.0 - a + (wa2 + wb2) + wa2 * wb2 * a)
    f = one_minus_x / (1.0 + np.sqrt(x))
    return (2.0 / 3.0) * np.maximum(0.0, (ga * gb) * f) + 0.0


def death_time_s(a) -> np.ndarray:
    """Dimensionless death time s_d = rate * t_d of the family, elementwise.

    The equal-rate numerator 1 - X = 2a (1 + a) u - a^2 u^2 - (3a - 1) first
    vanishes at its smaller root u_d = (3a - 1)/(a (a + 1 + sqrt(a^2 - a + 2))),
    so

        s_d = -ln(u_d) = ln(a (a + 1 + sqrt(a^2 - a + 2)) / (3a - 1)),

    with 3a - 1 from _excess: s_d keeps a relative error of a few ulps right
    up to the threshold.  Entries with a <= 1/3 are +inf: the concurrence
    then only vanishes asymptotically.
    """
    a = _check_a(a)
    finite = a > FINITE_DEATH_THRESHOLD
    x = np.where(finite, a, 1.0)
    s_d = np.log(x * (x + 1.0 + np.sqrt(x * x - x + 2.0)) / _excess(x))
    return np.where(finite, s_d, np.inf)
