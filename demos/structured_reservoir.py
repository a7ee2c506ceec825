"""
Structured reservoir: from memory to the memoryless limit
=========================================================

A single-pole reservoir kernel with memory rate lam turns the damping
factor gamma(t) = |b(t)| into the solution of a Volterra equation.  For
lam >> rate it collapses onto the Markov exponential e^{-rate t/2}; for
lam ~ rate the amplitude oscillates and even crosses zero, where the
time-local decay coefficient diverges.

Usage:
    python3 demos/structured_reservoir.py
"""

import numpy as np

from esdkit.errors import SingularCoefficientError
from esdkit.memory import ExponentialKernel, coefficient_f, solve_amplitude
from esdkit.reference import gamma_identity_defect

RATE = 1.0

print("weak coupling: sup_t |gamma(t) - e^{-t/2}| over t in [0, 3]")
print(f"{'lam/rate':>9} {'dt':>8} {'sup gap':>10} {'gamma=|b| defect':>17}")
for lam, dt in ((10.0, 5e-4), (100.0, 1e-4), (1000.0, 1e-5)):
    sol = solve_amplitude(ExponentialKernel(RATE, lam), 3.0, dt)
    gap = float(np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t))))
    print(f"{lam:9.0f} {dt:8.0e} {gap:10.2e} {gamma_identity_defect(sol):17.2e}")

print()
print("strong coupling (lam = rate): the amplitude crosses zero")
sol = solve_amplitude(ExponentialKernel(RATE, 1.0), 6.0, 1e-4)
k = int(np.argmin(np.abs(sol.b)))
print(f"min |b| = {np.abs(sol.b[k]):.3e} at t = {sol.t[k]:.4f} (3*pi/2 = {1.5 * np.pi:.4f})")
try:
    coefficient_f(sol)
except SingularCoefficientError as exc:
    print(f"coefficient extraction refuses, as it must: {exc}")
print()
print("same physics, CLI flavor (exit code 3 signals the singularity):")
print("    esdkit evolve --memory-rate 1 --t-max 6 --mem-dt 1e-5 \\")
print("        --omega-a 0 --omega-b 0 --output strong.csv")
