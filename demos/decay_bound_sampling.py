"""
The concurrence decay bound, sampled
====================================

Along a two-sided damping trajectory the concurrence can never exceed

    C(rho(t)) <= gamma_A(t) gamma_B(t) C(rho(0)).

The first Kraus branch alone saturates the right-hand side up to its own
normalization; the other three branches carry no concurrence at all.  This
script samples seeded random two-qubit states and reports how tightly the
bound holds (it is exact for the first branch, so the only slack is
round-off).

Usage:
    python3 demos/decay_bound_sampling.py
"""

import numpy as np

from esdkit.channel import DampingCoefficients
from esdkit.entanglement import check_bound
from esdkit.states import random_state

SAMPLES = 300
GAMMAS = (0.9, 0.5, 0.1)

worst_gap = -np.inf
worst_first = 0.0
worst_side = 0.0
violations = 0
for seed in range(SAMPLES):
    rho = random_state(seed)
    for g in GAMMAS:
        rep = check_bound(rho, DampingCoefficients(g, g))
        worst_gap = max(worst_gap, rep.lhs - rep.rhs)
        worst_first = max(worst_first, rep.first_branch_gap)
        worst_side = max(worst_side, rep.side_branch_max)
        violations += 0 if rep.satisfied else 1

total = SAMPLES * len(GAMMAS)
print(f"checked {total} (state, gamma) pairs, seeds 0..{SAMPLES - 1}")
print(f"violations:                      {violations}")
print(f"worst lhs - rhs (should be <~0): {worst_gap:.3e}")
print(f"worst first-branch defect:       {worst_first:.3e}")
print(f"worst side-branch concurrence:   {worst_side:.3e}")
print()
print("same check, CLI flavor:")
print("    esdkit bound --samples 300 --gammas 0.9,0.5,0.1 --output bound.csv")
