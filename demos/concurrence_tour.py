"""
Concurrence on familiar states
==============================

The Hermitian-route concurrence (eigenvalues of sqrt(rho) rho~ sqrt(rho))
against known anchors:

  * Bell pair                      -> 1
  * product state                  -> 0, exactly
  * Werner family                  -> max(0, (3p-1)/2); separable below p = 1/3
  * damped family, X closed form   -> same numbers without any eigensolve

Usage:
    python3 demos/concurrence_tour.py
"""

import numpy as np

from esdkit.entanglement import concurrence, concurrence_x
from esdkit.reference import family_trajectory
from esdkit.states import XState, xstate_to_dense

bell = XState(0.0, 0.5, 0.5, 0.0, z23=0.5)
print(f"Bell pair:     C = {concurrence(xstate_to_dense(bell)).value:.15f}")

product = np.zeros((4, 4), dtype=complex)
product[0, 0] = 1.0
print(f"product state: C = {concurrence(product).value!r}  (exactly zero)")

print()
print("Werner family rho = p|psi><psi| + (1-p) I/4")
print(f"{'p':>6} {'C':>10} {'max(0,(3p-1)/2)':>17}")
for p in (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0):
    q = (1.0 - p) / 4.0
    w = np.diag([q, q + p / 2.0, q + p / 2.0, q]).astype(complex)
    w[1, 2] = w[2, 1] = p / 2.0
    print(f"{p:6.3f} {concurrence(w).value:10.6f} {max(0.0, (3.0 * p - 1.0) / 2.0):17.6f}")

print()
print("damped family (a = 1): eigen route vs X-state closed form")
print(f"{'gamma':>6} {'eigen':>12} {'closed form':>12}")
for g in (1.0, 0.8, 0.6, 0.4):
    x = family_trajectory(1.0, g)
    via_eigen = concurrence(xstate_to_dense(x)).value
    via_x = concurrence_x(x)
    print(f"{g:6.2f} {via_eigen:12.8f} {via_x:12.8f}")
