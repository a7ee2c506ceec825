import math
import warnings
from time import perf_counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit import cli
from esdkit.channel import DampingCoefficients
from esdkit.entanglement import concurrence, concurrence_x
from esdkit.errors import NumericalError
from esdkit.esd import FINITE_DEATH_THRESHOLD, death_time_s, family_concurrence, family_image
from esdkit.memory import uniform_grid
from esdkit.reference import (
    _family_factor,
    apply_channel,
    coefficients_markov,
    concurrence_markov,
    disentanglement_time,
    family_concurrence_x,
    family_trajectory,
    local_vs_nonlocal_report,
)
from esdkit.states import standard_family, xstate_to_dense


def mp_death_time(a: float) -> float:
    """-ln(1 - w2_d) at 60 digits, from the unrationalized root."""
    with mpmath.workdps(60):
        x = mpmath.mpf(a)
        w2_d = (mpmath.sqrt(x * x - x + 2) - 1) / x
        return float(-mpmath.log(1 - w2_d))


# reference death times, t_d * rate
TD_ORACLE = {a: mp_death_time(a) for a in (1.0, 0.9, 2.0 / 3.0, 0.5, 0.4, 0.34)}

# both correctly rounded; death_time_s must return them exactly
DEATH_TIME_A1 = math.log((2.0 + math.sqrt(2.0)) / 2.0)
DEATH_TIME_TWO_THIRDS = math.log(2.0)


def mp_concurrence(a: float, gamma_a: float, gamma_b: float, digits: int = 60) -> mpmath.mpf:
    """(2/3) max(0, gamma_a gamma_b (1 - sqrt(X))) at the given float inputs,
    evaluated at `digits` digits."""
    with mpmath.workdps(digits):
        x, ga, gb = mpmath.mpf(a), mpmath.mpf(gamma_a), mpmath.mpf(gamma_b)
        wa, wb = 1 - ga * ga, 1 - gb * gb
        f = 1 - mpmath.sqrt(x * (1 - x + wa + wb + wa * wb * x))
        return max(mpmath.mpf(0), 2 * ga * gb * f / 3)


def dense_concurrence(a, s) -> np.ndarray:
    """Family concurrence by the dense channel and eigenvalue route, one row
    per a, one column per rate*t in s."""
    rho0 = np.stack([xstate_to_dense(standard_family(float(x))) for x in np.atleast_1d(a)])
    g = np.exp(-0.5 * np.asarray(s, dtype=float))
    return concurrence(apply_channel(rho0[:, None], DampingCoefficients(g, g))).value


def assert_dense_crossing(a: float, s_d: float) -> None:
    before, after = dense_concurrence(a, [s_d - 1e-6, s_d + 1e-6])[0]
    assert before > 0.0 and after == 0.0


def run_sweep(tmp_path, *argv: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a grid, t column, surface) of one `esdkit sweep` run."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *argv, "--output", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    a_grid = np.unique(rows[:, 0])
    return a_grid, rows[: rows.shape[0] // a_grid.size, 1], rows[:, 2].reshape(a_grid.size, -1)


def test_family_trajectory_limits():
    undamped = family_trajectory(1.0, 1.0)
    assert undamped == standard_family(1.0)
    dead = family_trajectory(0.7, 0.0)
    assert dead.p4 == 1.0
    assert dead.z23 == 0.0


def test_family_trajectory_halfway():
    x = family_trajectory(1.0, np.sqrt(0.5))
    np.testing.assert_allclose(
        [x.p1, x.p2, x.p3, x.p4], np.array([0.25, 0.75, 0.75, 1.25]) / 3.0, atol=1e-15
    )
    assert abs(x.z23 - 0.5 / 3.0) < 1e-15


def test_family_trajectory_matches_channel():
    for a in (0.0, 0.4, 1.0):
        for ga, gb in ((0.9, 0.9), (0.8, 0.3), (1.0, 0.5)):
            want = apply_channel(
                xstate_to_dense(standard_family(a)), DampingCoefficients(ga, gb)
            )
            got = xstate_to_dense(family_trajectory(a, ga, gb))
            assert np.max(np.abs(got - want)) < 1e-13


def test_family_trajectory_rejects_bad_a():
    with pytest.raises(ValueError):
        family_trajectory(1.2, 0.5)


def test_concurrence_markov_values():
    assert abs(concurrence_markov(1.0, 1.0, 0.0) - 2.0 / 3.0) < 1e-15
    # a = 0 never dies: plain exponential decay of the coherence
    for t in (0.0, 0.5, 2.0, 10.0):
        want = (2.0 / 3.0) * np.exp(-t)
        assert abs(concurrence_markov(0.0, 1.0, t) - want) < 1e-14
    with pytest.raises(ValueError):
        concurrence_markov(-0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        concurrence_markov(0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        concurrence_markov(0.5, 1.0, -0.1)


def test_closed_form_matches_kraus_plus_eigen_route():
    # 21 x 50 grid: the closed form against the full channel + concurrence
    rate = 1.0
    for a in np.linspace(0.0, 1.0, 21):
        rho0 = xstate_to_dense(standard_family(a))
        for t in np.linspace(0.0, 5.0, 50):
            rho_t = apply_channel(rho0, coefficients_markov(rate, t))
            gap = abs(concurrence(rho_t).value - concurrence_markov(a, rate, t))
            assert gap < 1e-10


def test_family_concurrence_x_route():
    for a in (0.0, 0.34, 0.7, 1.0):
        for g in (1.0, 0.8, 0.4, 0.0):
            t = -2.0 * np.log(g) if g > 0 else None
            via_x = family_concurrence_x(a, g)
            if t is not None:
                assert abs(via_x - concurrence_markov(a, 1.0, t)) < 1e-12
            else:
                assert via_x == 0.0


def test_death_time_oracle_values():
    for a, want in TD_ORACLE.items():
        exact = float(death_time_s(a))
        bisect = disentanglement_time(a)
        assert abs(exact - want) <= 2e-15 * want
        assert abs(bisect - want) < 1e-9


def test_death_time_a1_is_exact_and_the_dense_route_crosses_there():
    start = perf_counter()
    assert float(death_time_s(1.0)) == DEATH_TIME_A1
    assert_dense_crossing(1.0, DEATH_TIME_A1)
    assert perf_counter() - start < 1.0


def test_dense_route_dies_by_30_exactly_above_one_third():
    # the dense route dies by rate*t = 30 exactly above 1/3, on a = 0.30 .. 0.40
    # and within 1e-3 of the threshold
    a = np.r_[np.arange(30, 41) / 100.0, 1.0 / 3.0 - 1e-3, 1.0 / 3.0 + 1e-3]
    dies = np.any(dense_concurrence(a, np.arange(1, 301) * 0.1) == 0.0, axis=1)
    assert dies.tolist() == (a > 1.0 / 3.0).tolist()


def test_death_time_two_thirds_is_ln2_and_the_dense_route_crosses_there():
    assert float(death_time_s(2.0 / 3.0)) == DEATH_TIME_TWO_THIRDS
    assert_dense_crossing(2.0 / 3.0, DEATH_TIME_TWO_THIRDS)


def test_death_time_threshold():
    for a in (0.0, 0.2, 1.0 / 3.0):
        assert death_time_s(a) == np.inf
        assert disentanglement_time(a) == np.inf
    assert death_time_s(1.0 / 3.0 + 1e-6) > 10.0


def test_death_time_rejects_bad_arguments():
    with pytest.raises(ValueError, match="a=1.5"):
        death_time_s(1.5)
    with pytest.raises(ValueError, match="a=-0.5"):
        disentanglement_time(-0.5)
    with pytest.raises(ValueError, match="a=1.5"):
        family_concurrence(np.array([0.5, 1.5]), 0.5, 0.5)


def test_death_time_decreases_with_a():
    tds = death_time_s(np.linspace(0.34, 1.0, 34))
    assert np.all(np.diff(tds) < 0.0)


def test_concurrence_is_exactly_zero_after_death():
    # the rounded root itself can evaluate one ulp early for general a, so the
    # scan starts a hair past it; the a = 1 anchor is exact at t_d already
    assert concurrence_markov(1.0, 1.0, DEATH_TIME_A1) == 0.0
    for a in (0.4, 0.7, 1.0):
        s_d = float(death_time_s(a))
        for t in np.linspace(s_d + 1e-12, 5.0, 40):
            assert concurrence_markov(a, 1.0, float(t)) == 0.0
        g = np.exp(-0.5 * np.linspace(s_d + 1e-12, 5.0, 40))
        assert np.all(family_concurrence(a, g, g) == 0.0)


def test_concurrence_positive_before_death():
    for a in (0.4, 1.0):
        s = np.linspace(0.0, float(death_time_s(a)) * (1.0 - 1e-9), 25)
        for t in s:
            assert concurrence_markov(a, 1.0, float(t)) > 0.0
        assert np.all(family_concurrence(a, np.exp(-0.5 * s), np.exp(-0.5 * s)) > 0.0)


def test_concurrence_obeys_exponential_bound():
    for a in np.linspace(0.0, 1.0, 11):
        c0 = concurrence_markov(float(a), 1.0, 0.0)
        for t in np.linspace(0.0, 5.0, 26):
            c = concurrence_markov(float(a), 1.0, float(t))
            assert c <= c0 * np.exp(-t) + 1e-12


def test_sweep_surface(tmp_path):
    a_grid, t_grid, surf = run_sweep(tmp_path)
    assert surf.shape == (101, 200)
    assert np.array_equal(a_grid, np.linspace(0.0, 1.0, 101))
    # nonnegative and non-increasing in t on every row
    assert np.all(surf >= 0.0) and np.all(np.diff(surf, axis=1) <= 1e-15)
    # t = 0 column reproduces the initial concurrences
    for i, a in enumerate(a_grid):
        assert abs(surf[i, 0] - concurrence_markov(float(a), 1.0, 0.0)) < 1e-14
    # the a = 1 row dies inside the window, the a = 0 row never does
    dead = surf[-1] == 0.0
    assert dead.any() and not dead[0]
    assert np.min(t_grid[dead]) > TD_ORACLE[1.0]
    assert np.all(surf[-1][t_grid > TD_ORACLE[1.0]] == 0.0)
    assert np.all(surf[0] > 0.0)
    _, _, single = run_sweep(tmp_path, "--a-min", "0.5", "--a-max", "0.5", "--a-steps", "1",
                             "--t-max", "0.7", "--t-steps", "2", "--rate", "2",
                             "--no-natural-units")
    assert single.shape == (1, 2)
    assert abs(single[0, 1] - concurrence_markov(0.5, 2.0, 0.7)) < 1e-14


def test_local_vs_nonlocal_report():
    t_grid = np.linspace(0.0, 3.0, 61)
    rep = local_vs_nonlocal_report(1.0, 1.0, t_grid)
    np.testing.assert_allclose(rep.local_coherence, np.exp(-0.5 * t_grid), atol=1e-15)
    # at rate*t = 1 the local factor is still exp(-1/2) but the pair is dead
    k = np.argmin(np.abs(t_grid - 1.0))
    assert abs(rep.local_coherence[k] - np.exp(-0.5)) < 1e-12
    assert rep.concurrence[k] == 0.0
    assert rep.concurrence[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert np.all(rep.local_coherence > 0.0)
    rep0 = local_vs_nonlocal_report(0.0, 1.0, t_grid)
    assert np.all(rep0.concurrence > 0.0)
    with pytest.raises(ValueError):
        local_vs_nonlocal_report(0.5, 1.0, np.array([]))


def test_surface_zero_after_underflow_is_positive(tmp_path):
    # gamma^2 underflows to 0 past rate*t ~ 745, and 0 times a negative
    # factor would be -0.0; past 1.8e308 rate*t overflows, still exactly 0
    t_grid = np.linspace(0.0, 800.0, 201)
    gamma = np.exp(-0.5 * t_grid)
    a_grid = np.linspace(0.0, 1.0, 101)
    surface = family_concurrence(a_grid[:, None], gamma, gamma)
    assert gamma[-1] ** 2 == 0.0 and (surface[:, -1] == 0.0).all()
    assert not np.signbit(surface).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, swept = run_sweep(tmp_path, "--t-max", "800", "--t-steps", "201")
        _, _, huge = run_sweep(tmp_path, "--t-steps", "3", "--rate", "1e308",
                               "--no-natural-units")
    assert swept.tobytes() == surface.tobytes()
    assert not np.signbit(huge).any() and (huge[:, 1:] == 0.0).all()
    assert not np.signbit(local_vs_nonlocal_report(1.0, 1.0, t_grid).concurrence).any()
    assert math.copysign(1.0, concurrence_markov(1.0, 1.0, 800.0)) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arguments_are_rejected(bad):
    with pytest.raises(ValueError):
        concurrence_markov(1.0, bad, 1.0)
    with pytest.raises(ValueError):
        concurrence_markov(1.0, 1.0, bad)
    with pytest.raises(ValueError):
        concurrence_markov(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        death_time_s(bad)
    with pytest.raises(ValueError):
        disentanglement_time(bad)
    with pytest.raises(ValueError):
        family_concurrence(bad, 0.5, 0.5)
    with pytest.raises(ValueError):
        family_concurrence(0.5, bad, 0.5)
    with pytest.raises(ValueError):
        local_vs_nonlocal_report(0.5, bad, np.array([0.0, 1.0]))


def ulps_above_threshold(k: int) -> float:
    # floats in [1/4, 1/2) are 2**-54 apart
    return FINITE_DEATH_THRESHOLD + k * 2.0 ** -54


@settings(max_examples=60, deadline=None)
@given(
    wide=st.lists(st.floats(min_value=FINITE_DEATH_THRESHOLD, max_value=1.0, exclude_min=True),
                  min_size=1, max_size=20),
    ulps=st.lists(st.integers(min_value=1, max_value=4096), max_size=10),
)
def test_closed_form_matches_mpmath_to_the_threshold(wide, ulps):
    a = np.array(wide + [ulps_above_threshold(k) for k in ulps])
    s_d = death_time_s(a)
    for x, got in zip(a.tolist(), s_d.tolist()):
        want = mp_death_time(x)
        assert abs(got - want) <= 2e-15 * want, (x, got, want)
        # a scalar call is the same formula, bit for bit
        assert float(death_time_s(x)) == got


def test_closed_form_marks_no_death_at_or_below_threshold():
    a = np.array([0.0, 0.2, FINITE_DEATH_THRESHOLD, ulps_above_threshold(1), 1.0])
    s_d = death_time_s(a)
    assert s_d[:3].tolist() == [np.inf] * 3
    assert np.all(np.isfinite(s_d[3:]))
    assert death_time_s(1.0).shape == ()
    with pytest.raises(ValueError, match="a=1.5"):
        death_time_s(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        death_time_s(np.nan)


# The ids name the two death-time routes: the reference bisection and the
# closed form that td and sweep report.
@pytest.mark.parametrize("solver", [lambda a: np.asarray(disentanglement_time(a)), death_time_s],
                         ids=["disentanglement_time", "disentanglement_time_exact"])
def test_model_time_overflow_is_a_numerical_error(solver):
    # either route's s_d goes through the one refusal td and sweep share
    with pytest.raises(NumericalError, match="overflows"):
        cli._death_times(solver(1.0), 1e-310, False)
    # the solve itself is in rate*t, so a tiny rate that leaves t_d finite works
    assert abs(cli._death_times(solver(1.0), 1e-300, False) * 1e-300 - TD_ORACLE[1.0]) < 1e-9
    assert cli._death_times(solver(0.2), 1e-310, False) == np.inf


def test_two_atom_factor_keeps_equal_rate_bits():
    # concurrence_markov and the bisection pass one w2 twice; the textbook
    # factor must be bit for bit the equal-rate 1 - sqrt(a (1 - a + 2 w2 + w2^2 a)).
    a = np.linspace(0.0, 1.0, 201)[:, None]
    w2 = 1.0 - np.exp(-np.linspace(0.0, 40.0, 401))[None, :]
    equal_rate = 1.0 - np.sqrt(a * (1.0 - a + 2.0 * w2 + w2 * w2 * a))
    assert _family_factor(a, w2, w2).tobytes() == equal_rate.tobytes()


def test_family_image_rows_are_family_trajectory():
    rng = np.random.default_rng(5)
    ga, gb = rng.uniform(0.0, 1.0, size=(2, 40))
    for a in (0.0, 0.34, 1.0):
        entries = np.stack(family_image(a, ga, gb), axis=-1)
        for i in range(ga.size):
            x = family_trajectory(a, float(ga[i]), float(gb[i]))
            assert list(entries[i]) == [x.p1, x.p2, x.p3, x.p4, x.z23.real]
            assert x.z23.imag == 0.0 and x.z14 == 0.0


def test_family_concurrence_matches_x_and_dense_routes():
    rng = np.random.default_rng(6)
    ga, gb = rng.uniform(0.0, 1.0, size=(2, 60))
    for a in (0.0, 0.2, 1.0 / 3.0, 0.34, 0.5, 0.7, 1.0):
        closed = family_concurrence(a, ga, gb)
        via_x = [concurrence_x(family_trajectory(a, float(x), float(y))) for x, y in zip(ga, gb)]
        assert np.max(np.abs(closed - via_x)) < 1e-15
        dense = concurrence(apply_channel(xstate_to_dense(standard_family(a)),
                                          DampingCoefficients(ga, gb))).value
        assert np.max(np.abs(closed - dense)) < 1e-10


def test_family_image_refuses_gamma_outside_unit_interval():
    with pytest.raises(ValueError, match=r"atom B: gamma=1\.000001 outside \[0, 1\]"):
        family_image(1.0, 1.0, np.array([1.0, 1.0 + 1e-6]))
    with pytest.raises(ValueError, match=r"atom A: gamma=-0\.5 outside \[0, 1\]"):
        family_concurrence(0.5, -0.5, 0.5)
    with pytest.raises(ValueError, match="atom A: gamma=nan"):
        family_trajectory(0.5, math.nan)


def zero_set_misses(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per a: whether the concurrence at gamma = e^(-s/2) is already 0 four
    ulps of s before s_d = death_time_s(a), and whether it is still positive
    four ulps after it."""
    before = after = death_time_s(a)
    for _ in range(4):
        before, after = np.nextafter(before, 0.0), np.nextafter(after, np.inf)
    g_before, g_after = np.exp(-0.5 * before), np.exp(-0.5 * after)
    return (family_concurrence(a, g_before, g_before) == 0.0,
            family_concurrence(a, g_after, g_after) > 0.0)


@settings(max_examples=60, deadline=None)
@given(
    wide=st.lists(st.floats(min_value=FINITE_DEATH_THRESHOLD, max_value=1.0, exclude_min=True),
                  max_size=20),
    decades=st.lists(st.floats(min_value=1.0, max_value=15.0), max_size=10),
    ulps=st.lists(st.integers(min_value=1, max_value=4096), max_size=10),
)
def test_concurrence_dies_where_the_death_time_says(wide, decades, ulps):
    # Next to the threshold the zero set of the surface is that of death_time_s
    # to 4 ulps in s (the textbook 1 - sqrt(X) misses up to eps/u_d there).
    near = np.array([FINITE_DEATH_THRESHOLD + 10.0 ** -x for x in decades]
                    + [ulps_above_threshold(k) for k in ulps])
    early, late = zero_set_misses(near)
    assert not (early | late).any(), near[early | late]
    # Just before death every digit but the last few stays: measured 6.7e-13.
    a = np.concatenate([wide, near])
    g = np.exp(-0.5 * 0.999 * death_time_s(a))
    for x, gx, got in zip(a.tolist(), g.tolist(), family_concurrence(a, g, g).tolist()):
        want = mp_concurrence(x, gx, gx)
        assert abs(got - want) <= 1e-12 * want, (x, got, want)


def test_zero_set_misses_on_seeded_samples():
    rng = np.random.default_rng(0)
    early, late = zero_set_misses(FINITE_DEATH_THRESHOLD + 10.0 ** -rng.uniform(1, 15, 2000))
    assert early.sum() == late.sum() == 0
    # On uniform a, s_d falls to 0.53, where 4 ulps of s are 2 ulps of
    # gamma^2: measured 4 early and 0 late of 2000 (the textbook factor: 71, 22).
    early, late = zero_set_misses(rng.uniform(FINITE_DEATH_THRESHOLD, 1.0, 2000))
    assert early.sum() <= 8 and late.sum() <= 2


def test_family_concurrence_within_2_2e_16_of_50_digits(tmp_path):
    # docs/invariants.md quotes both figures
    grid = uniform_grid(3.0, 1e-3)
    ga = np.exp(-0.5 * grid)
    worst = 0.0
    for a in (0.0, 0.2, 1.0 / 3.0, 0.34, 0.5, 0.7, 1.0):
        for gb in (ga, ga ** 1.3):
            got = family_concurrence(a, ga, gb).tolist()
            worst = max(worst, max(abs(c - float(mp_concurrence(a, x, y, 50)))
                                   for x, y, c in zip(ga.tolist(), gb.tolist(), got)))
    assert f"{worst:.1e}" == "2.2e-16"
    out = tmp_path / "evolve.csv"
    assert cli.main(["evolve", "--memory-rate", "5", "--omega-b", "1.3", "--output", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:4].tolist()
    worst = max(abs(c - float(mp_concurrence(1.0, x, y, 50))) for c, x, y in rows)
    assert f"{worst:.1e}" == "2.2e-16"
