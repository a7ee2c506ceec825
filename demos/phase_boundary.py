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

from esdkit.esd import family_concurrence
from esdkit.reference import disentanglement_time

print(f"{'a':>6} {'kind':>12} {'t_d * rate':>12}")
for a in np.linspace(0.0, 1.0, 21):
    s_d = disentanglement_time(float(a))  # bisection, in s = rate * t
    finite = np.isfinite(s_d)
    td = f"{s_d:.6f}" if finite else "-"
    print(f"{a:6.2f} {'finite' if finite else 'asymptotic':>12} {td:>12}")

print()
gamma = np.exp(-0.5 * np.linspace(0.0, 3.0, 200))  # residual amplitude at rate * t
surface = family_concurrence(np.linspace(0.0, 1.0, 101)[:, None], gamma, gamma)
dead_rows = int(np.sum(np.any(surface == 0.0, axis=1)))
print(f"concurrence surface 101 x 200 over rate * t in [0, 3]:")
print(f"rows reaching exact zero inside the window: {dead_rows} of 101")
print(f"surface minimum {surface.min():.3f}, maximum {surface.max():.3f}")
print()
print("same sweep, CLI flavor (writes the surface and a death-time summary):")
print("    esdkit sweep --a-steps 101 --t-max 3 --t-steps 200 --output sweep.csv")
