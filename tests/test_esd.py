import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit.channel import coefficients_from_gammas
from esdkit.entanglement import concurrence, concurrence_x
from esdkit.errors import NumericalError
from esdkit.esd import (
    FINITE_DEATH_THRESHOLD,
    EsdVerdict,
    death_time_s,
    disentanglement_time_exact,
    _family_factor,
    family_concurrence,
    family_image,
    sweep,
)
from esdkit.reference import (
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
                xstate_to_dense(standard_family(a)), coefficients_from_gammas(ga, gb)
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
        exact = disentanglement_time_exact(a, 1.0)
        bisect = disentanglement_time(a, 1.0)
        assert exact.kind == bisect.kind == "finite"
        assert abs(exact.t_d - want) <= 2e-15 * want
        assert abs(bisect.t_d - want) < 1e-9
    # rate scaling: t_d carries units 1/rate
    want = TD_ORACLE[1.0] / 4.0
    assert abs(disentanglement_time_exact(1.0, 4.0).t_d - want) <= 2e-15 * want


def test_death_time_threshold():
    for a in (0.0, 0.2, 1.0 / 3.0):
        v = disentanglement_time_exact(a, 1.0)
        assert v.kind == "asymptotic"
        assert v.t_d is None
        assert disentanglement_time(a, 1.0) == v
    just_above = disentanglement_time_exact(1.0 / 3.0 + 1e-6, 1.0)
    assert just_above.kind == "finite"
    assert just_above.t_d > 10.0


def test_death_time_rejects_bad_arguments():
    with pytest.raises(ValueError):
        disentanglement_time_exact(1.5, 1.0)
    with pytest.raises(ValueError):
        disentanglement_time_exact(1.0, 0.0)
    with pytest.raises(ValueError):
        disentanglement_time(0.5, -1.0)


def test_death_time_decreases_with_a():
    a_vals = np.linspace(0.34, 1.0, 34)
    tds = [disentanglement_time_exact(float(a), 1.0).t_d for a in a_vals]
    assert all(b < a for a, b in zip(tds, tds[1:]))


def test_concurrence_is_exactly_zero_after_death():
    # the rounded root itself can evaluate one ulp early for general a, so the
    # scan starts a hair past it; the a = 1 anchor is exact at t_d already
    t_d1 = disentanglement_time_exact(1.0, 1.0).t_d
    assert concurrence_markov(1.0, 1.0, t_d1) == 0.0
    for a in (0.4, 0.7, 1.0):
        t_d = disentanglement_time_exact(a, 1.0).t_d
        for t in np.linspace(t_d + 1e-12, 5.0, 40):
            assert concurrence_markov(a, 1.0, float(t)) == 0.0


def test_concurrence_positive_before_death():
    for a in (0.4, 1.0):
        t_d = disentanglement_time_exact(a, 1.0).t_d
        for t in np.linspace(0.0, t_d * (1.0 - 1e-9), 25):
            assert concurrence_markov(a, 1.0, float(t)) > 0.0


def test_concurrence_obeys_exponential_bound():
    for a in np.linspace(0.0, 1.0, 11):
        c0 = concurrence_markov(float(a), 1.0, 0.0)
        for t in np.linspace(0.0, 5.0, 26):
            c = concurrence_markov(float(a), 1.0, float(t))
            assert c <= c0 * np.exp(-t) + 1e-12


def test_sweep_surface():
    a_grid = np.linspace(0.0, 1.0, 101)
    t_grid = np.linspace(0.0, 3.0, 200)
    surf = sweep(a_grid, t_grid, 1.0)
    assert surf.shape == (101, 200)
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
    single = sweep(np.array([0.5]), np.array([0.7]), 2.0)
    assert single.shape == (1, 1)
    assert abs(single[0, 0] - concurrence_markov(0.5, 2.0, 0.7)) < 1e-14


def test_sweep_rejects_bad_grids():
    good_t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        sweep(np.array([]), good_t, 1.0)
    with pytest.raises(ValueError):
        sweep(np.array([0.5, 0.2]), good_t, 1.0)
    with pytest.raises(ValueError):
        sweep(np.array([0.5, 1.2]), good_t, 1.0)
    with pytest.raises(ValueError):
        sweep(np.array([0.5]), good_t - 0.5, 1.0)
    with pytest.raises(ValueError):
        sweep(np.array([0.5]), good_t, -1.0)


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


def test_surface_zero_after_underflow_is_positive():
    # e^(-rate*t) underflows to 0 past rate*t ~ 745, and 0 times a negative
    # factor would be -0.0; past 1.8e308 rate*t overflows, still exactly 0
    t_grid = np.linspace(0.0, 800.0, 201)
    a_grid = np.linspace(0.0, 1.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surface = sweep(a_grid, t_grid, 1.0)
        huge = sweep(a_grid, t_grid[:3], 1e308)
    assert np.exp(-t_grid[-1]) == 0.0 and (surface[:, -1] == 0.0).all()
    assert not np.signbit(surface).any()
    assert not np.signbit(huge).any() and (huge[:, 1:] == 0.0).all()
    assert not np.signbit(local_vs_nonlocal_report(1.0, 1.0, t_grid).concurrence).any()
    assert math.copysign(1.0, concurrence_markov(1.0, 1.0, 800.0)) == 1.0


def test_verdict_is_frozen_and_comparable():
    v = EsdVerdict(a=0.5, kind="finite", t_d=1.0)
    assert v == EsdVerdict(a=0.5, kind="finite", t_d=1.0)
    with pytest.raises(AttributeError):
        v.t_d = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arguments_are_rejected(bad):
    with pytest.raises(ValueError):
        concurrence_markov(1.0, bad, 1.0)
    with pytest.raises(ValueError):
        concurrence_markov(1.0, 1.0, bad)
    with pytest.raises(ValueError):
        concurrence_markov(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        disentanglement_time_exact(1.0, bad)
    with pytest.raises(ValueError):
        disentanglement_time_exact(bad, 1.0)
    with pytest.raises(ValueError):
        disentanglement_time(1.0, bad)
    with pytest.raises(ValueError):
        sweep(np.array([0.5]), np.array([0.0, 1.0]), bad)


def ulps_above_threshold(k: int) -> float:
    a = FINITE_DEATH_THRESHOLD
    for _ in range(k):
        a = math.nextafter(a, 1.0)
    return a


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
        # the scalar wrapper is the same formula, bit for bit
        assert disentanglement_time_exact(x, 1.0).t_d == got


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


@pytest.mark.parametrize("solver", [disentanglement_time, disentanglement_time_exact])
def test_model_time_overflow_is_a_numerical_error(solver):
    with pytest.raises(NumericalError, match="overflows"):
        solver(1.0, 1e-310)
    # the solve itself is in rate*t, so a tiny rate that leaves t_d finite works
    assert abs(solver(1.0, 1e-300).t_d * 1e-300 - TD_ORACLE[1.0]) < 1e-9
    assert solver(0.2, 1e-310).kind == "asymptotic"


def test_two_atom_factor_keeps_equal_rate_bits():
    # sweep, concurrence_markov and the bisection pass one w2 twice; the
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
                                          coefficients_from_gammas(ga, gb))).value
        assert np.max(np.abs(closed - dense)) < 1e-10


def test_family_image_refuses_gamma_outside_unit_interval():
    with pytest.raises(ValueError, match=r"atom B: gamma=1\.000001 outside \[0, 1\]"):
        family_image(1.0, 1.0, np.array([1.0, 1.0 + 1e-6]))
    with pytest.raises(ValueError, match=r"atom A: gamma=-0\.5 outside \[0, 1\]"):
        family_concurrence(0.5, -0.5, 0.5)
    with pytest.raises(ValueError, match="atom A: gamma=nan"):
        family_trajectory(0.5, math.nan)
