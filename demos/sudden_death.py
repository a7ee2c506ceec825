"""
Sudden death of entanglement under pure spontaneous emission
============================================================

Two atoms, no interaction, each coupled to its own vacuum.  Start them in
the one-parameter mixed family with a = 1 and watch the concurrence along
the damping trajectory: it does not decay to zero asymptotically, it hits
exactly zero at t_d = ln((2+sqrt(2))/2)/rate and stays there.

For contrast the a = 0 member of the family never dies: its concurrence is
a plain exponential (2/3)e^{-rate t}.

Usage:
    python3 demos/sudden_death.py
"""

import numpy as np

from esdkit.entanglement import concurrence
from esdkit.esd import family_concurrence
from esdkit.reference import apply_channel, coefficients_markov, disentanglement_time
from esdkit.states import standard_family, xstate_to_dense

RATE = 1.0
T_GRID = np.linspace(0.0, 1.2, 13)

print("concurrence along the damping trajectory (rate = 1)")
print(f"{'t':>6} {'a=1 (numeric)':>15} {'a=1 (closed)':>14} {'a=0 (closed)':>14}")
rho0 = xstate_to_dense(standard_family(1.0))
for t in T_GRID:
    rho_t = apply_channel(rho0, coefficients_markov(RATE, float(t)))
    numeric = concurrence(rho_t).value
    gamma = np.exp(-0.5 * RATE * t)
    closed = family_concurrence(1.0, gamma, gamma)
    alive = family_concurrence(0.0, gamma, gamma)
    print(f"{t:6.2f} {numeric:15.10f} {closed:14.10f} {alive:14.10f}")

s_d = disentanglement_time(1.0)  # bisection, in s = rate * t
print()
print(f"death time for a = 1: t_d = {s_d:.12f} / rate")
print(f"reference ln((2+sqrt(2))/2) = {np.log((2.0 + np.sqrt(2.0)) / 2.0):.12f}")
print("the a = 0 column stays positive forever: death needs a > 1/3")
