"""
The a = 1/3 boundary between asymptotic decay and sudden death
==============================================================

Sweep the family parameter a and record the fate of the pair: for
a <= 1/3 the concurrence only vanishes asymptotically, for a > 1/3 it
dies at the finite time

    t_d = -ln(1 - w2_d)/rate,  w2_d = (sqrt(a^2 - a + 2) - 1)/a,

which falls from +infinity at a = 1/3+ to about 0.535/rate at a = 1.

Usage:
    python3 demos/phase_boundary.py
"""

import numpy as np

from esdkit.esd import sweep
from esdkit.reference import disentanglement_time

RATE = 1.0

print(f"{'a':>6} {'kind':>12} {'t_d * rate':>12}")
for a in np.linspace(0.0, 1.0, 21):
    verdict = disentanglement_time(float(a), RATE)
    td = "-" if verdict.t_d is None else f"{verdict.t_d * RATE:.6f}"
    print(f"{a:6.2f} {verdict.kind:>12} {td:>12}")

print()
surface = sweep(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 3.0, 200), RATE)
dead_rows = int(np.sum(np.any(surface == 0.0, axis=1)))
print(f"concurrence surface 101 x 200 over t in [0, 3]:")
print(f"rows reaching exact zero inside the window: {dead_rows} of 101")
print(f"surface minimum {surface.min():.3f}, maximum {surface.max():.3f}")
print()
print("same sweep, CLI flavor (writes the surface and a death-time summary):")
print("    esdkit sweep --a-steps 101 --t-max 3 --t-steps 200 --output sweep.csv")
