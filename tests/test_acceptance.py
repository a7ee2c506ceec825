"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import math
from time import perf_counter

import numpy as np

from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import check_bound, concurrence, concurrence_x
from esdkit.esd import disentanglement_time_exact, sweep
from esdkit.master import AtomParams, integrate_master, interaction_trajectory, \
    markov_rates, to_interaction_picture
from esdkit.memory import ExponentialKernel, full_solution
from esdkit.reference import (
    apply_channel,
    build_kraus,
    coefficients_markov,
    completeness_defect,
    concurrence_markov,
    gamma_identity_defect,
    local_coherence_decay,
    pure_state,
    random_xstate,
)
from esdkit.states import XState, random_state, standard_family, xstate_to_dense

DEATH_TIME_A1 = math.log((2.0 + math.sqrt(2.0)) / 2.0)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _numeric_concurrence(a: float, rate: float, t: float) -> float:
    rho0 = xstate_to_dense(standard_family(a))
    return concurrence(apply_channel(rho0, coefficients_markov(rate, t))).value


def _bisect_death_time(a: float, rate: float = 1.0, hi: float = 3.0) -> float:
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _numeric_concurrence(a, rate, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_finite_death_time_a1():
    start = perf_counter()
    numeric = _bisect_death_time(1.0)
    elapsed = perf_counter() - start
    fast = disentanglement_time_exact(1.0, 1.0).t_d
    gap_numeric = abs(numeric - DEATH_TIME_A1)
    gap_fast = abs(fast - DEATH_TIME_A1)
    ok = gap_numeric < 1e-6 and gap_fast < 1e-10 and elapsed < 1.0
    _report(
        1,
        f"death time at a=1: numeric gap {gap_numeric:.2e} (tol 1e-6), "
        f"fast-path gap {gap_fast:.2e} (tol 1e-10), {elapsed:.2f}s",
        ok,
    )


def test_criterion_02_phase_boundary():
    def dies_in_finite_time(a: float) -> bool:
        rho0 = xstate_to_dense(standard_family(a))
        for t in np.arange(1, 301) * 0.1:
            rho_t = apply_channel(rho0, coefficients_markov(1.0, float(t)))
            if concurrence(rho_t).value == 0.0:
                return True
        return False

    scan_ok = True
    for k in range(30, 41):
        a = k / 100.0
        want_finite = a > 1.0 / 3.0
        if dies_in_finite_time(a) != want_finite:
            scan_ok = False
    lo, hi = 0.33, 0.34
    while hi - lo > 5e-4:
        mid = 0.5 * (lo + hi)
        if dies_in_finite_time(mid):
            hi = mid
        else:
            lo = mid
    boundary = 0.5 * (lo + hi)
    gap = abs(boundary - 1.0 / 3.0)
    ok = scan_ok and gap < 1e-3
    _report(
        2,
        f"finite-death boundary: scan over a=0.30..0.40 consistent "
        f"{'yes' if scan_ok else 'no'}, refined boundary {boundary:.6f} "
        f"off 1/3 by {gap:.1e} (tol 1e-3)",
        ok,
    )


def test_criterion_03_clean_death_time_value():
    a = 2.0 / 3.0
    numeric = _bisect_death_time(a)
    fast = disentanglement_time_exact(a, 1.0).t_d
    gap_numeric = abs(numeric - math.log(2.0))
    gap_fast = abs(fast - math.log(2.0))
    ok = gap_numeric < 1e-6 and gap_fast < 1e-12
    _report(
        3,
        f"death time at a=2/3 equals log 2: numeric gap {gap_numeric:.2e} "
        f"(tol 1e-6), closed form gap {gap_fast:.2e}",
        ok,
    )


def test_criterion_04_kraus_master_equivalence():
    start = perf_counter()
    rho0 = xstate_to_dense(standard_family(1.0))
    traj = interaction_trajectory(
        integrate_master(rho0, markov_rates(1.0), AtomParams(1.0, 1.0), 3.0, 1e-3)
    )
    maxdiff = 0.0
    for i, t in enumerate(traj.t):
        want = apply_channel(rho0, coefficients_markov(1.0, float(t)))
        maxdiff = max(maxdiff, float(np.max(np.abs(traj.states[i] - want))))
    elapsed = perf_counter() - start
    ok = maxdiff < 1e-8 and elapsed < 5.0
    _report(
        4,
        f"channel vs integrated trajectory, a=1, t in [0,3], dt=1e-3: "
        f"max entry diff {maxdiff:.2e} (tol 1e-8), {elapsed:.2f}s",
        ok,
    )


def test_criterion_05_decay_bound_monte_carlo():
    start = perf_counter()
    violations = 0
    worst_first = 0.0
    worst_side = 0.0
    for seed in range(1000):
        rho = random_state(seed)
        for g in (0.9, 0.5, 0.1):
            rep = check_bound(rho, coefficients_from_gammas(g, g), slack=1e-10)
            if not rep.satisfied:
                violations += 1
            worst_first = max(worst_first, rep.first_branch_gap)
            worst_side = max(worst_side, rep.side_branch_max)
    elapsed = perf_counter() - start
    ok = (violations == 0 and worst_first < 1e-9 and worst_side < 1e-10
          and elapsed < 30.0)
    _report(
        5,
        f"decay bound, 1000 seeds x 3 gammas: {violations} violations, "
        f"first-branch gap {worst_first:.2e} (tol 1e-9), side branches "
        f"{worst_side:.2e} (tol 1e-10), {elapsed:.1f}s",
        ok,
    )


def test_criterion_06_local_vs_nonlocal_contrast():
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    traj = integrate_master(
        pure_state(psi), markov_rates(1.0), AtomParams(1.3, 0.7), 1.0, 1e-3
    )
    coh_a, _ = local_coherence_decay(traj)
    ratio = coh_a[-1] / coh_a[0]
    ratio_gap = abs(ratio - math.exp(-0.5))
    dead_numeric = _numeric_concurrence(1.0, 1.0, 1.0)
    dead_closed = concurrence_markov(1.0, 1.0, 1.0)
    ok = ratio_gap < 1e-9 and dead_numeric == 0.0 and dead_closed == 0.0
    _report(
        6,
        f"local vs nonlocal at rate*t=1: coherence ratio off exp(-1/2) by "
        f"{ratio_gap:.2e} (tol 1e-9), concurrence {dead_numeric!r} numeric / "
        f"{dead_closed!r} closed form (need exact 0.0)",
        ok,
    )


def test_criterion_07_memoryless_limit_ladder():
    sups = []
    for rate, dt in ((10.0, 1e-3), (100.0, 1e-4), (1000.0, 1e-5)):
        sol = full_solution(ExponentialKernel(1.0, rate), 0.0, 3.0, dt)
        sups.append(float(np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t)))))
    ok = sups[-1] < 0.01 and sups[0] > sups[1] > sups[2]
    _report(
        7,
        f"memoryless limit: sup|gamma - exp(-t/2)| = "
        f"{sups[0]:.1e} / {sups[1]:.1e} / {sups[2]:.1e} for memory rates "
        f"10/100/1000 (last < 0.01, decreasing)",
        ok,
    )


def test_criterion_08_residual_amplitude_identity():
    defects = []
    for rate, dt in ((10.0, 5e-4), (100.0, 1e-4), (1000.0, 1e-5)):
        sol = full_solution(ExponentialKernel(1.0, rate), 0.0, 3.0, dt)
        defects.append(gamma_identity_defect(sol))
    ok = all(d < 1e-6 for d in defects)
    _report(
        8,
        f"gamma equals |b| identity: defects "
        f"{defects[0]:.1e} / {defects[1]:.1e} / {defects[2]:.1e} (tol 1e-6)",
        ok,
    )


def test_criterion_09_concurrence_anchors():
    bell = xstate_to_dense(XState(0.0, 0.5, 0.5, 0.0, z23=0.5))
    bell_gap = abs(concurrence(bell).value - 1.0)
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    product_val = concurrence(product).value
    x_gap = 0.0
    for seed in range(1000):
        x = random_xstate(seed)
        x_gap = max(x_gap, abs(concurrence_x(x) - concurrence(xstate_to_dense(x)).value))
    werner_gap = 0.0
    for p in (0.0, 1.0 / 3.0, 0.6, 1.0):
        q = (1.0 - p) / 4.0
        w = np.diag([q, q + p / 2.0, q + p / 2.0, q]).astype(complex)
        w[1, 2] = w[2, 1] = p / 2.0
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        werner_gap = max(werner_gap, abs(concurrence(w).value - want))
    ok = (bell_gap < 1e-12 and product_val == 0.0 and x_gap < 1e-10
          and werner_gap < 1e-10)
    _report(
        9,
        f"concurrence anchors: Bell gap {bell_gap:.1e}, product {product_val!r}, "
        f"X closed form vs dense {x_gap:.1e} over 1000 states, "
        f"Werner gap {werner_gap:.1e} (tols 1e-12/exact/1e-10/1e-10)",
        ok,
    )


def test_criterion_10_cptp_suite_and_surface():
    rng = np.random.default_rng(2026)
    worst_complete = 0.0
    worst_trace = 0.0
    worst_herm = 0.0
    min_eig = 0.0
    for seed in range(100):
        ga, gb = rng.uniform(0.0, 1.0, size=2)
        coeff = coefficients_from_gammas(float(ga), float(gb))
        kraus = build_kraus(coeff)
        assert len(kraus) == 4
        worst_complete = max(worst_complete, completeness_defect(kraus))
        out = apply_channel(random_state(seed), coeff)
        worst_trace = max(worst_trace, abs(float(np.trace(out).real) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out))))

    surf = sweep(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 3.0, 200), 1.0)
    surface_ok = (
        surf.shape == (101, 200)
        and np.all(surf >= 0.0)
        and np.all(surf[0] > 0.0)
        and np.all(surf[-1][np.linspace(0.0, 3.0, 200) > 0.54] == 0.0)
        and np.all(np.diff(surf, axis=1) <= 1e-15)
    )
    ok = (worst_complete < 1e-12 and worst_trace < 1e-12 and worst_herm < 1e-13
          and min_eig > -1e-10 and surface_ok)
    _report(
        10,
        f"channel property suite, 100 coefficient pairs: completeness "
        f"{worst_complete:.1e} (tol 1e-12), trace drift {worst_trace:.1e}, "
        f"hermiticity {worst_herm:.1e}, min eigenvalue {min_eig:.1e}, "
        f"decay surface structure {'ok' if surface_ok else 'bad'}",
        ok,
    )
