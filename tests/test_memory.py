import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit import memory
from esdkit.cli import atom_kernel
from esdkit.errors import ConvergenceError, SingularCoefficientError
from esdkit.esd import family_image
from esdkit.memory import (
    AmplitudeSolution,
    ExponentialKernel,
    TabulatedKernel,
    coefficient_f,
    load_kernel_table,
    solve_amplitude,
    uniform_grid,
)
from esdkit.reference import gamma_identity_defect, gamma_of_t, volterra_residual


def closed_form_b(strength: float, rate: float, t: np.ndarray) -> np.ndarray:
    # resonant single-pole solution, written as a sum of two exponentials so
    # large rates cannot overflow a cosh
    d = np.sqrt(complex(rate * rate - 2.0 * strength * rate))
    return (0.5 * (1.0 + rate / d) * np.exp(-0.5 * (rate - d) * t)
            + 0.5 * (1.0 - rate / d) * np.exp(-0.5 * (rate + d) * t))


def test_exponential_kernel_values_and_validation():
    k = ExponentialKernel(strength=2.0, memory_rate=5.0, center_frequency=3.0)
    assert k.evaluate(0.0) == 5.0
    got = k.evaluate(np.array([0.0, 0.5]))
    np.testing.assert_allclose(got[1], 5.0 * np.exp(-(5.0 + 3.0j) * 0.5), atol=1e-15)
    ExponentialKernel(0.0, 1.0)  # zero coupling is legal
    with pytest.raises(ValueError):
        ExponentialKernel(-1.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialKernel(1.0, 0.0)


def test_tabulated_kernel_validation():
    tau = np.linspace(0.0, 1.0, 11)
    k = TabulatedKernel(tau=tau, alpha=np.exp(-tau) + 0.0j)
    assert abs(k.step - 0.1) < 1e-15
    np.testing.assert_allclose(k.evaluate(0.05), np.exp(-0.0) * 0.5 + np.exp(-0.1) * 0.5,
                               atol=1e-12)
    with pytest.raises(ValueError):
        TabulatedKernel(tau=tau + 0.5, alpha=np.exp(-tau) + 0.0j)
    with pytest.raises(ValueError):
        TabulatedKernel(tau=np.array([0.0, 0.1, 0.3]), alpha=np.zeros(3, complex))
    with pytest.raises(ValueError):
        TabulatedKernel(tau=np.array([0.0]), alpha=np.array([1.0 + 0.0j]))
    with pytest.raises(ValueError):
        TabulatedKernel(tau=tau, alpha=np.zeros(5, complex))
    with pytest.raises(ValueError):
        k.evaluate(1.5)


def test_load_kernel_table_roundtrip(tmp_path):
    src = ExponentialKernel(1.0, 5.0, 2.0)
    tau = np.arange(201) * 0.01
    alpha = src.evaluate(tau)
    path = tmp_path / "kernel.dat"
    lines = ["# tau alpha_re alpha_im", "# single-pole sample"]
    lines += [f"{t:.17e} {a.real:.17e} {a.imag:.17e}" for t, a in zip(tau, alpha)]
    path.write_text("\n".join(lines) + "\n")
    k = load_kernel_table(path)
    np.testing.assert_allclose(k.tau, tau, atol=1e-15)
    np.testing.assert_allclose(k.alpha, alpha, atol=1e-12)

    bad = tmp_path / "two_cols.dat"
    bad.write_text("0.0 1.0\n0.1 0.9\n")
    with pytest.raises(ValueError):
        load_kernel_table(bad)


def test_load_kernel_table_gives_tau_its_own_memory(tmp_path):
    path = tmp_path / "kernel.dat"
    tau = np.arange(11) * 0.1
    path.write_text("".join(f"{t:.17g} {np.exp(-t):.17g} 0.25\n" for t in tau))
    k = load_kernel_table(path)
    assert k.tau.base is None
    assert k.tau.flags.c_contiguous


def test_uniform_grid():
    g = uniform_grid(1.0, 0.25)
    np.testing.assert_allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        uniform_grid(0.1, 0.25)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.3)


def test_free_evolution_is_a_pure_phase():
    # the lab-frame amplitude of a free atom at omega = 2 is e^{-2it} b, and
    # in its rotating frame b stays exactly 1: no phase to resolve
    sol = solve_amplitude(atom_kernel(ExponentialKernel(0.0, 1.0), 2.0, 3.0, 1e-3), 3.0, 1e-3)
    assert np.all(sol.b == 1.0)
    assert np.all(sol.bdot == 0.0)


def test_resonant_closed_form():
    # the two routes differ by rounding only (measured <= 7.8e-16)
    for rate, dt in ((5.0, 1e-3), (100.0, 1e-4), (1000.0, 1e-5)):
        t_max = min(3.0, 3000.0 * dt)
        sol = solve_amplitude(ExponentialKernel(1.0, rate), t_max, dt)
        want = closed_form_b(1.0, rate, sol.t)
        assert np.max(np.abs(sol.b - want)) < 1e-15


def test_markov_limit_amplitude():
    # memory 100x faster than decay: |b| within 2% of exp(-t/2) everywhere
    sol = solve_amplitude(ExponentialKernel(1.0, 100.0), 3.0, 1e-4)
    rel = np.abs(np.abs(sol.b) / np.exp(-0.5 * sol.t) - 1.0)
    assert np.max(rel) < 0.02


def test_memoryless_limit_ladder():
    # |b| approaches exp(-t/2) monotonically as the memory rate grows tenfold
    ladder = [(10.0, 1e-3), (100.0, 1e-4), (1000.0, 1e-5)]
    sups = [np.max(np.abs(sol.gamma - np.exp(-0.5 * sol.t)))
            for sol in (solve_amplitude(ExponentialKernel(1.0, rate), 3.0, dt)
                        for rate, dt in ladder)]
    assert sups[0] > sups[1] > sups[2] and sups[2] < 0.01


def test_decay_rate_approaches_markov():
    # after a few memory times the local rate settles at strength/2 (1% here)
    rate = 1000.0
    sol = solve_amplitude(ExponentialKernel(1.0, rate), 0.02, 1e-5)
    late = sol.t >= 5.0 / rate
    rel = np.abs(coefficient_f(sol).real[late] / 0.5 - 1.0)
    assert np.max(rel) < 0.01


def test_off_resonant_frequency_shift():
    # detuned reservoir: in the atom's rotating frame the pole sits at
    # w_center - w_atom = -delta, and Im f settles at the slow root of
    # s^2 + (rate - i*delta)s + strength*rate/2; the weak-coupling formula is
    # only leading order
    rate, strength, w_atom, w_center = 100.0, 1.0, 2.0, -48.0
    delta = w_atom - w_center
    kernel = atom_kernel(ExponentialKernel(strength, rate, w_center), w_atom, 3.0, 1e-4)
    assert kernel.center_frequency == -delta
    f = coefficient_f(solve_amplitude(kernel, 3.0, 1e-4))
    roots = np.roots([1.0, rate - 1j * delta, 0.5 * strength * rate])
    slow = roots[np.argmin(np.abs(roots))]
    formula = 0.5 * strength * rate * delta / (rate * rate + delta * delta)
    assert abs(f.imag[-1] - (-slow.imag)) < 1e-12
    assert abs(f.imag[-1] / formula - 1.0) < 0.03


@pytest.mark.parametrize("dt", [1e-3, 1e-4, 2e-5])
def test_critically_damped_amplitude(dt):
    # strength 1, memory rate 2: the two poles merge, b = e^{-t}(1 + t), where
    # a two-exponential form divides by their zero distance; Sylvester's
    # formula about the slow root does not
    sol = solve_amplitude(ExponentialKernel(1.0, 2.0, 0.0), 3.0, dt)
    assert np.max(np.abs(sol.b - np.exp(-sol.t) * (1.0 + sol.t))) <= 5e-16


@pytest.mark.parametrize("memory_rate, centre", [(1e-310, 0.0), (5e-324, 0.0), (5e-324, -1.0)])
def test_subnormal_memory_rates_are_free_evolution(memory_rate, centre):
    # the coupling strength * rate / 2 is subnormal or underflows to 0, and
    # at 5e-324 with no detuning the pole underflows to 0 as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_amplitude(ExponentialKernel(1.0, memory_rate, centre), 1.0, 1e-3)
    assert np.max(np.abs(sol.b - 1.0)) <= 1e-15
    assert np.max(np.abs(sol.bdot)) <= 1e-300


def test_exponential_bdot_is_the_solvers_critically_damped_derivative():
    # b = e^{-t}(1 + t) at strength 1, memory rate 2: db/dt = -t e^{-t}
    sol = solve_amplitude(ExponentialKernel(1.0, 2.0, 0.0), 3.0, 1e-3)
    assert np.max(np.abs(sol.bdot + sol.t * np.exp(-sol.t))) <= 5e-16


def test_repeat_solves_are_identical():
    a = solve_amplitude(ExponentialKernel(1.0, 10.0, -1.0), 2.0, 1e-3)
    b = solve_amplitude(ExponentialKernel(1.0, 10.0, -1.0), 2.0, 1e-3)
    assert np.array_equal(a.b, b.b)


def test_tabulated_matches_exponential():
    # the same lab-frame kernel, single pole and table, seen by an atom at
    # omega = 1: the pole moves to the detuning, the table is rotated
    exp_kernel = ExponentialKernel(1.0, 5.0)
    tau = np.arange(2001) * 1e-3
    tab_kernel = TabulatedKernel(tau=tau, alpha=exp_kernel.evaluate(tau))
    exp_atom, tab_atom = (atom_kernel(k, 1.0, 2.0, 1e-3) for k in (exp_kernel, tab_kernel))
    np.testing.assert_allclose(tab_atom.alpha, exp_atom.evaluate(tab_atom.tau), rtol=1e-14)
    se = solve_amplitude(exp_atom, 2.0, 1e-3)
    st = solve_amplitude(tab_atom, 2.0, 1e-3, tol=np.inf)
    assert np.max(np.abs(se.b - st.b)) < 1e-6
    assert np.max(volterra_residual(st, tab_atom)) < 2e-5


def direct_trapezoid(alpha: np.ndarray, h: float):
    """The implicit trapezoid scheme with the full-history dot at every step,
    O(n^2), in extended precision (clongdouble): the oracle the quotient
    solve must reproduce.  Returns b and the accumulated local-error
    estimate."""
    alpha = alpha.astype(np.clongdouble)
    h = np.longdouble(h)
    half = h / 2
    n = alpha.size - 1
    b = np.empty(n + 1, dtype=np.clongdouble)
    bdot = np.empty(n + 1, dtype=np.clongdouble)
    b[0] = 1
    bdot[0] = 0
    denom = 1 + half * half * alpha[0]
    err_acc = np.longdouble(0)
    for i in range(1, n + 1):
        hist = alpha[i - 1:0:-1] @ b[1:i] if i > 1 else 0
        r = h * (alpha[i] / 2 * b[0] + hist)
        bi = (b[i - 1] + half * (bdot[i - 1] - r)) / denom
        if i == 1:
            pred = b[0] + h * bdot[0]
        else:
            pred = b[i - 1] + h * (bdot[i - 1] * 3 / 2 - bdot[i - 2] / 2)
        err_acc += abs(bi - pred) / 6
        b[i] = bi
        bdot[i] = -(r + half * alpha[0] * bi)
    return b, float(err_acc)


def test_overflowing_exponential_step_raises_convergence_error():
    # strength * memory_rate / 2 = 5e308: the kernel's coefficient overflows
    kernel = ExponentialKernel(1e308, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"single-pole amplitude overflows for "
                                                   r"kernel parameters \(1e\+308, 10.0, 0.0\)"):
            solve_amplitude(kernel, 1.0, 1e-3)


def test_uniform_grid_refuses_an_overflowing_step_count():
    with pytest.raises(ValueError, match="overflows: too many steps"):
        uniform_grid(1e308, 1e-3)


def decaying_table(n: int, t_max: float, weight: complex, rate: float, center: float):
    tau = np.arange(n + 1) * (t_max / n)
    return TabulatedKernel(tau=tau, alpha=weight * np.exp(-(rate + 1j * center) * tau))


def solve_quietly(kernel, t_max, n, tol):
    # random tables need not be physical: the |b| > 1 warning is expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_amplitude(kernel, t_max, t_max / n, tol=tol)


# Grids n + 1 points long take n.bit_length() Newton passes; 2^k - 1, 2^k and
# 2^k + 1 steps sit on the edges of the doubling and of the A*B half split.
edge_counts = [2**k + d for k in range(1, 10) for d in (-1, 0, 1)]
ORACLE_TOL = 5e-13  # |b - oracle| per unit of max(1, max |b|)


def oracle_gap(sol: AmplitudeSolution, want: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(sol.b - want))) / scale


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.sampled_from(edge_counts), st.integers(1, 768)),
    magnitude=st.floats(0.5, 5.0),
    phase=st.floats(-np.pi, np.pi),
    rate=st.floats(0.5, 20.0),
    center=st.floats(-8.0, 8.0),
    t_max=st.floats(0.1, 2.0),
    gate=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)),
)
def test_blocked_history_sum_matches_direct_sum(
    n, magnitude, phase, rate, center, t_max, gate
):
    kernel = decaying_table(n, t_max, magnitude * np.exp(1j * phase), rate, center)
    sol = solve_quietly(kernel, t_max, n, np.inf)
    want, err_acc = direct_trapezoid(kernel.evaluate(sol.t), sol.dt)
    assert oracle_gap(sol, want) <= ORACLE_TOL
    assert sol.error_estimate == pytest.approx(err_acc, rel=1e-3)
    # the accuracy gate falls on the same side of tol as the oracle's estimate
    tol = gate * err_acc
    try:
        solve_quietly(kernel, t_max, n, tol)
        raised = False
    except ConvergenceError:
        raised = True
    assert raised == (err_acc > tol)


@pytest.mark.parametrize("depth", range(1, 12))
def test_blocked_history_sum_at_every_depth(depth):
    # every grid that takes `depth` Newton passes up to 70 steps, and the
    # doubling and half-split edges 2^depth - 1, 2^depth, 2^depth + 1
    counts = [n for n in range(1, 71) if n.bit_length() == depth]
    for n in counts + [2**depth - 1, 2**depth, 2**depth + 1]:
        kernel = decaying_table(n, 1.5, 2.0 - 1.0j, 3.0, 0.3)
        sol = solve_quietly(kernel, 1.5, n, np.inf)
        want, err_acc = direct_trapezoid(kernel.evaluate(sol.t), sol.dt)
        assert oracle_gap(sol, want) <= ORACLE_TOL
        assert sol.error_estimate == pytest.approx(err_acc, rel=1e-3)


@pytest.mark.parametrize("depth", range(1, 14, 3))
def test_tabulated_bdot_is_the_trapezoid_schemes(depth):
    # the returned db/dt closes the scheme: b_i - b_{i-1} = (h/2)(bdot_i + bdot_{i-1})
    for n in (2**depth - 1, 2**depth, 2**depth + 1):
        kernel = decaying_table(n, 1.5, 2.0 - 1.0j, 3.0, 0.3)
        sol = solve_quietly(kernel, 1.5, n, np.inf)
        gap = sol.b[1:] - sol.b[:-1] - 0.5 * sol.dt * (sol.bdot[1:] + sol.bdot[:-1])
        assert np.all(np.abs(gap) <= 1e-13 * np.maximum(1.0, np.abs(sol.b[1:])))
        assert sol.bdot[0] == 0.0


def three_product_bdot(alpha: np.ndarray, b: np.ndarray, h: float):
    """bdot and the error estimate of the tabulated solver from its b, with
    A B mod x^(n+1) = A_lo B_lo + x^s (A_hi B_lo + A_lo B_hi) taken as three
    circular products of two transforms and an inverse each: nine FFTs."""
    n, s = b.size - 1, (b.size + 1) // 2
    size = 1 << n.bit_length()

    def product(x, y):
        fx = np.fft.fft(x, size)
        fx *= np.fft.fft(y, size)
        return np.fft.ifft(fx)

    bdot = alpha.copy()
    bdot[s:] *= 0.5
    bdot[s:] -= product(alpha[s:], b[:s])[: n + 1 - s]
    bdot[s:] -= product(alpha[:s], b[s:])[: n + 1 - s]
    bdot[:s] *= 0.5
    bdot -= product(alpha[:s], b[:s])[: n + 1]
    bdot *= h
    bdot += b * (0.5 * h * alpha[0])
    bdot[0] = 0.0
    e = b[1:] - b[:-1]
    e -= bdot[:-1] * (1.5 * h)
    e[1:] += bdot[:-2] * (0.5 * h)
    return bdot, float(np.sum(np.abs(e))) / 6.0


@pytest.mark.parametrize("recipe", ["kern.txt", "50 001 rows"])
def test_tabulated_bdot_is_the_three_product_form_bit_for_bit(tmp_path, recipe):
    # the tab.csv run of docs/reproduction.md, solved at 5e-4 on the 1e-3
    # table, and a benchmark-sized table solved at its own 2e-5 step; both
    # as the atom at omega 1 reads them.  The solver takes seven FFTs.
    path = tmp_path / "kern.txt"
    if recipe == "kern.txt":
        tau, t_max, step, tol = np.arange(0, 1.0 + 5e-4, 1e-3), 1.0, 5e-4, 1e-3
        alpha = ExponentialKernel(1.0, 5.0, 0.0).evaluate(tau)
        fmt = "%.17e"
    else:
        tau, t_max, step, tol = np.arange(50001) * 2e-5, 1.0, 2e-5, 1e-8
        alpha = 0.5 * 7.3 * np.exp(-(7.3 + 0.4j) * tau)
        fmt = "%.17g"
    np.savetxt(path, np.c_[tau, alpha.real, alpha.imag], fmt=fmt)
    kernel = atom_kernel(load_kernel_table(path), 1.0, t_max, step)
    sol = solve_amplitude(kernel, t_max, step, tol=tol)
    bdot, error = three_product_bdot(kernel.evaluate(sol.t), sol.b, sol.dt)
    assert np.array_equal(sol.bdot, bdot)
    assert sol.error_estimate == error


def test_gate_raises_exactly_when_the_error_estimate_exceeds_tol():
    kernel, dt = decaying_table(400, 2.0, 1.0 - 0.5j, 4.0, 1.0), 5e-3
    estimate = solve_amplitude(kernel, 2.0, dt, tol=np.inf).error_estimate
    assert 0.0 < estimate < np.inf
    assert solve_amplitude(kernel, 2.0, dt, tol=estimate).error_estimate == estimate
    with pytest.raises(ConvergenceError, match=f"{estimate:.3e}"):
        solve_amplitude(kernel, 2.0, dt, tol=np.nextafter(estimate, 0.0))


def test_tabulated_requires_coverage():
    tau = np.arange(101) * 0.01
    k = TabulatedKernel(tau=tau, alpha=np.exp(-5.0 * tau) + 0.0j)
    with pytest.raises(ValueError, match="covers tau"):
        solve_amplitude(k, 2.0, 0.01, tol=np.inf)


def test_tabulated_unphysical_growth_warns():
    tau = np.arange(201) * 0.01
    k = TabulatedKernel(tau=tau, alpha=-0.5 * np.exp(-tau) + 0.0j)
    with pytest.warns(RuntimeWarning, match="unphysical"):
        solve_amplitude(k, 2.0, 0.01, tol=np.inf)


def test_volterra_residual_is_second_order():
    maxima = []
    for dt in (0.01, 0.005):
        sol = solve_amplitude(ExponentialKernel(1.0, 5.0), 2.0, dt, tol=np.inf)
        maxima.append(np.max(volterra_residual(sol, ExponentialKernel(1.0, 5.0))))
    ratio = maxima[0] / maxima[1]
    assert 3.0 < ratio < 5.0


def one_pole_memory(sol: AmplitudeSolution, kernel: ExponentialKernel) -> np.ndarray:
    """Trapezoid memory integral of a single-pole kernel by its one-pole
    recurrence, one step at a time."""
    decay = np.exp(-(kernel.memory_rate + 1j * kernel.center_frequency) * sol.dt)
    s = np.zeros(sol.b.size, dtype=complex)
    for k in range(1, sol.b.size):
        s[k] = decay * s[k - 1] + 0.5 * decay * sol.b[k - 1] + 0.5 * sol.b[k]
    return sol.dt * (0.5 * kernel.strength * kernel.memory_rate) * s


def trapezoid_memory(sol: AmplitudeSolution, kernel) -> np.ndarray:
    """Trapezoid memory integral by the full O(n^2) dot at every grid point."""
    alpha = kernel.evaluate(sol.t)
    q = np.zeros(sol.b.size, dtype=complex)
    for i in range(1, sol.b.size):
        w = alpha[i::-1] * sol.b[: i + 1]
        q[i] = sol.dt * (w.sum() - 0.5 * w[0] - 0.5 * w[-1])
    return q


def residual_from(sol: AmplitudeSolution, q: np.ndarray) -> np.ndarray:
    bdot = np.gradient(sol.b, sol.dt, edge_order=2)
    return np.abs(bdot + q)


@pytest.mark.parametrize(
    "kernel, omega",
    [(ExponentialKernel(1.0, 5.0), 0.0), (ExponentialKernel(2.0, 3.0, 1.5), 1.0)],
)
def test_volterra_residual_matches_direct_sums_exponential(kernel, omega):
    # the kernel as an atom at omega reads it, in its rotating frame
    kernel = atom_kernel(kernel, omega, 2.0, 2e-3)
    sol = solve_amplitude(kernel, 2.0, 2e-3)
    res = volterra_residual(sol, kernel)
    np.testing.assert_allclose(res, residual_from(sol, one_pole_memory(sol, kernel)),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(res, residual_from(sol, trapezoid_memory(sol, kernel)),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 7, 256, 1000])
def test_volterra_residual_matches_direct_sum_tabulated(n):
    kernel = decaying_table(n, 2.0, 1.5 - 0.5j, 2.0, 3.0)
    sol = solve_quietly(kernel, 2.0, n, np.inf)
    np.testing.assert_allclose(
        volterra_residual(sol, kernel), residual_from(sol, trapezoid_memory(sol, kernel)),
        rtol=0, atol=1e-13,
    )


def test_gamma_identity():
    for rate, dt in ((10.0, 5e-4), (100.0, 1e-4), (1000.0, 1e-5)):
        sol = solve_amplitude(ExponentialKernel(1.0, rate), 3.0, dt)
        assert sol.gamma[0] == 1.0
        assert gamma_identity_defect(sol) < 1e-6


@pytest.mark.parametrize("c0, c1", [(0.7, 0.0), (0.3, -1.25), (0.0, 2.0)])
def test_gamma_of_t_is_exact_for_linear_decay_rate(c0, c1):
    # the trapezoid rule integrates a linear Re f exactly: only cumsum round-off
    t = uniform_grid(3.0, 1e-3)
    f = (c0 + c1 * t) + 0.4j
    gamma = gamma_of_t(t, f)
    assert gamma[0] == 1.0
    np.testing.assert_allclose(gamma, np.exp(-(c0 * t + 0.5 * c1 * t * t)),
                               rtol=1e-13, atol=0)


def test_gamma_of_t_clips_only_round_off_above_1():
    # A constant Re f = -log(1 + excess) gives gamma = (1 + excess)^t on [0, 1].
    t = uniform_grid(1.0, 1e-3)
    gammas = {}
    for excess in (5e-10, 1e-6):
        f = np.full(t.size, -np.log1p(excess) + 0.0j)
        gammas[excess] = gamma_of_t(t, f)
    assert np.all(gammas[5e-10] == 1.0)
    rising = gammas[1e-6]
    assert np.all(rising[rising <= 1.0 + memory.CONTRACTIVITY_SLACK] == 1.0)
    assert abs(rising[-1] - (1.0 + 1e-6)) < 1e-15
    # the larger excess is left for the family image to refuse, naming the atom
    with pytest.raises(ValueError, match=r"atom A: gamma=1\.0000\d* outside \[0, 1\]"):
        family_image(1.0, rising, 1.0)


def test_gamma_without_coupling_is_one():
    sol = solve_amplitude(ExponentialKernel(0.0, 1.0, -1.0), 2.0, 1e-3)
    # no memory integral: b stays 1 and the solver's db/dt 0, so f is 0
    assert np.all(sol.gamma == 1.0)
    assert np.all(coefficient_f(sol) == 0.0)


@pytest.mark.parametrize("points", [1, 2])
def test_differences_need_three_points(points):
    # only the residual's centered differences need three points; f comes
    # from the solver's db/dt, so a one-step solve has its coefficient
    t = np.arange(points) * 1e-3
    sol = AmplitudeSolution(t=t, b=np.exp(-t) + 0j, bdot=-np.exp(-t) + 0j, error_estimate=None)
    with pytest.raises(ValueError, match=f"at least 3 grid points .*got {points}"):
        volterra_residual(sol, ExponentialKernel(1.0, 5.0))
    one_step = coefficient_f(solve_amplitude(ExponentialKernel(1.0, 5.0), 1e-3, 1e-3))
    assert one_step[0] == 0.0 and np.isfinite(one_step[1])


def test_gamma_clips_only_round_off_above_1():
    # gamma is |b|, with an excess over 1 of at most CONTRACTIVITY_SLACK
    # clipped to 1 and a larger one kept; below 1 nothing moves.
    t = uniform_grid(4e-3, 1e-3)
    slack = memory.CONTRACTIVITY_SLACK
    b = np.array([1.0, 1.0 + 0.5 * slack, 1.0 + slack, 1.0 + 2.0 * slack, 0.5]) * 1j
    sol = AmplitudeSolution(t=t, b=b, bdot=np.zeros_like(b), error_estimate=None)
    np.testing.assert_array_equal(sol.gamma, [1.0, 1.0, 1.0, abs(b[3]), 0.5])
    # each read is a fresh array: clipping never writes into b
    assert sol.gamma is not sol.gamma and abs(sol.b[1]) > 1.0


def test_coefficient_f_is_minus_bdot_over_b_from_zero():
    sol = solve_amplitude(ExponentialKernel(1.0, 5.0), 1.0, 1e-3)
    f = coefficient_f(sol)
    assert f[0] == 0.0
    assert f[1:].tobytes() == (-sol.bdot[1:] / sol.b[1:]).tobytes()
    # the same F feeds the reference route to |b|
    assert gamma_identity_defect(sol) == np.max(np.abs(gamma_of_t(sol.t, f) - np.abs(sol.b)))


def test_singular_coefficient_in_strong_coupling():
    # memory as slow as the decay: b crosses zero near t = 3*pi/2
    sol = solve_amplitude(ExponentialKernel(1.0, 1.0), 6.0, 1e-5)
    with pytest.raises(SingularCoefficientError,
                       match=r"\|b\| = 6\.019e-07 < 1\.0e-06 first at t = 4\.71238; "):
        coefficient_f(sol)
    with pytest.raises(SingularCoefficientError):
        gamma_identity_defect(sol)
    # the floor is memory.B_FLOOR, where the same run up to t = 4.7 stops short
    assert memory.B_FLOOR == 1e-6
    assert np.isfinite(coefficient_f(solve_amplitude(ExponentialKernel(1.0, 1.0), 4.7, 1e-5))).all()


def test_coarse_step_is_exact():
    # memory rate 10 at step 0.3: the fast root times the step is -2.84,
    # outside RK4's stability interval, and every grid value is still exact
    sol = solve_amplitude(ExponentialKernel(1.0, 10.0), 3.0, 0.3)
    assert sol.error_estimate is None
    assert np.max(np.abs(sol.b - closed_form_b(1.0, 10.0, sol.t))) <= 5e-16


def exact_pair(kernel: ExponentialKernel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b and bdot of the pair (b, z)' = [[0, -1], [g, -(rate + i centre)]] (b, z),
    g = strength * rate / 2, (b, z)(0) = (1, 0), by 40-digit mpmath expm."""
    with mpmath.workdps(40):
        m = mpmath.matrix([[0, -1], [mpmath.mpf(kernel.strength) * kernel.memory_rate / 2,
                                     -(kernel.memory_rate + 1j * kernel.center_frequency)]])
        pairs = [mpmath.expm(m * float(x)) * mpmath.matrix([1, 0]) for x in t]
    return (np.array([complex(y[0]) for y in pairs]),
            np.array([-complex(y[1]) for y in pairs]))


@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_detuned_coarse_step_is_exact(centre):
    # the rotating frame keeps the phase of a large detuning (-50 here, 0.5
    # rad per step), which the exact solution carries at any step
    kernel = atom_kernel(ExponentialKernel(1.0, 5.0, centre), 50.0, 2.0, 0.01)
    sol = solve_amplitude(kernel, 2.0, 0.01)
    b, bdot = exact_pair(kernel, sol.t[::10])
    assert np.max(np.abs(sol.b[::10] - b)) <= 5e-16
    assert np.max(np.abs(sol.bdot[::10] - bdot)) <= 5e-16


def test_unsupported_kernel_type():
    with pytest.raises(ValueError, match="unsupported kernel"):
        solve_amplitude(3.14, 1.0, 0.1)


def test_solution_grid_properties():
    sol = solve_amplitude(ExponentialKernel(1.0, 5.0), 1.0, 0.01)
    assert sol.dt == 0.01
    assert sol.t.size == 101
    assert isinstance(sol, AmplitudeSolution)


@pytest.mark.parametrize("params", [
    (np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, np.inf, 0.0), (1.0, np.nan, 0.0),
    (1.0, 1.0, np.nan), (1.0, 1.0, -np.inf),
])
def test_exponential_kernel_rejects_non_finite_parameters(params):
    with pytest.raises(ValueError, match="must be finite"):
        ExponentialKernel(*params)


@pytest.mark.parametrize("t_max, dt", [
    (np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1e-3),
])
def test_uniform_grid_rejects_non_finite(t_max, dt):
    with pytest.raises(ValueError, match="finite"):
        uniform_grid(t_max, dt)


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_tolerance_must_be_non_negative(tol):
    for kernel in (ExponentialKernel(1.0, 5.0), TabulatedKernel(
            tau=np.arange(11) * 0.1, alpha=np.exp(-np.arange(11) * 0.1) + 0.0j)):
        with pytest.raises(ValueError, match="tol"):
            solve_amplitude(kernel, 1.0, 0.1, tol=tol)
    # inf is the documented "no gate"
    solve_amplitude(ExponentialKernel(1.0, 5.0), 1.0, 0.1, tol=np.inf)
