"""The stack contract: every dense-state function takes (..., 4, 4) stacks,
and element i of a stacked call is bit-equal to the call on element i alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit.channel import apply_channel, coefficients_from_gammas, kraus_term
from esdkit.entanglement import check_bound, concurrence
from esdkit.linalg import dagger, psd_sqrt
from esdkit.states import (
    assert_density_matrix,
    random_state,
    random_xstate,
    xstate_to_dense,
)

REPORT_FIELDS = ("initial", "lhs", "rhs", "satisfied", "first_branch_gap", "side_branch_max")

seeds = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)
kinds = st.sampled_from(["ginibre", "x"])
unit = st.floats(0.0, 1.0)


def make_stack(kind: str, seed_list: list[int]) -> np.ndarray:
    if kind == "ginibre":
        return np.stack([random_state(s) for s in seed_list])
    return np.stack([xstate_to_dense(random_xstate(s)) for s in seed_list])


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=30, deadline=None)
@given(kind=kinds, seed_list=seeds, ga=unit, gb=unit)
def test_stacked_calls_match_single_calls_bitwise(kind, seed_list, ga, gb):
    rhos = make_stack(kind, seed_list)
    c = coefficients_from_gammas(ga, gb)
    assert bits(assert_density_matrix(rhos)) == bits(rhos)
    out = apply_channel(rhos, c)
    terms = [kraus_term(rhos, c, mu) for mu in (1, 2, 3, 4)]
    conc = concurrence(rhos)
    rep = check_bound(rhos, c)
    for i, rho in enumerate(rhos):
        assert bits(out[i]) == bits(apply_channel(rho, c))
        for mu, term in zip((1, 2, 3, 4), terms):
            assert bits(term[i]) == bits(kraus_term(rho, c, mu))
        single = concurrence(rho)
        assert bits(conc.value[i]) == bits(single.value)
        assert bits(conc.roots[i]) == bits(single.roots)
        one = check_bound(rho, c)
        for field in REPORT_FIELDS:
            assert bits(getattr(rep, field)[i]) == bits(getattr(one, field))


@settings(max_examples=30, deadline=None)
@given(kind=kinds, seed_list=seeds, data=st.data())
def test_per_state_gammas_match_single_calls_bitwise(kind, seed_list, data):
    rhos = make_stack(kind, seed_list)
    n = len(seed_list)
    ga = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    gb = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    c = coefficients_from_gammas(ga, gb)
    out = apply_channel(rhos, c)
    rep = check_bound(rhos, c)
    for i, rho in enumerate(rhos):
        ci = coefficients_from_gammas(float(ga[i]), float(gb[i]))
        assert bits(out[i]) == bits(apply_channel(rho, ci))
        one = check_bound(rho, ci)
        for field in REPORT_FIELDS:
            assert bits(getattr(rep, field)[i]) == bits(getattr(one, field))


def test_state_by_gamma_grid_is_seed_major():
    rhos = np.stack([random_state(s) for s in range(4)])
    gammas = np.array([0.9, 0.5, 0.1])
    rep = check_bound(rhos[:, None], coefficients_from_gammas(gammas, gammas))
    assert rep.lhs.shape == (4, 3)
    for i in range(4):
        for j, g in enumerate(gammas):
            one = check_bound(rhos[i], coefficients_from_gammas(float(g), float(g)))
            assert rep.lhs[i, j] == one.lhs and rep.rhs[i, j] == one.rhs


def test_single_state_results_keep_scalar_types():
    rho = random_state(1)
    c = coefficients_from_gammas(0.6, 0.4)
    res = concurrence(rho)
    assert type(res.value) is float
    assert isinstance(res.roots, tuple) and all(type(r) is float for r in res.roots)
    rep = check_bound(rho, c)
    assert type(rep.satisfied) is bool
    assert all(type(getattr(rep, f)) is float for f in REPORT_FIELDS if f != "satisfied")
    assert type(c.omega_a) is float


def test_dagger_swaps_only_last_two_axes():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    d = dagger(a)
    assert d.shape == (3, 4, 4)
    for i in range(3):
        np.testing.assert_array_equal(d[i], a[i].conj().T)


def test_stack_with_one_non_psd_member_names_its_index():
    rhos = np.stack([random_state(s) for s in range(5)])
    rhos[3] = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"state 3 is not positive"):
        assert_density_matrix(rhos)
    with pytest.raises(ValueError, match=r"state 3 is not positive"):
        apply_channel(rhos, coefficients_from_gammas(0.5, 0.5))
    with pytest.raises(ValueError, match=r"input 3 is not PSD"):
        concurrence(rhos)
    with pytest.raises(ValueError, match=r"matrix 3 is not PSD"):
        psd_sqrt(rhos)


def test_stack_errors_name_the_first_bad_member():
    rhos = np.stack([random_state(s) for s in range(6)])
    rhos[4, 0, 1] += 1e-6  # not Hermitian
    rhos[2] *= 1.5  # trace 1.5
    with pytest.raises(ValueError, match=r"state 2 trace"):
        assert_density_matrix(rhos)
    nested = rhos.reshape(2, 3, 4, 4)
    with pytest.raises(ValueError, match=r"state \(0, 2\) trace"):
        assert_density_matrix(nested)
    with pytest.raises(ValueError, match=r"input 4 is not Hermitian"):
        concurrence(rhos)


def test_stack_with_non_finite_member_is_rejected():
    rhos = np.stack([random_state(s) for s in range(3)])
    rhos[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match=r"state 1 is not Hermitian"):
        assert_density_matrix(rhos)
