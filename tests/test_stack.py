"""The stack contract: every dense-state function takes (..., 4, 4) stacks,
and element i of a stacked call is bit-equal to the call on element i alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit.channel import DampingCoefficients
from esdkit.entanglement import check_bound, concurrence
from esdkit.linalg import dagger
from esdkit.reference import apply_channel, kraus_term, psd_sqrt, random_xstate
from esdkit.states import EIG_FLOOR, assert_density_matrix, random_state, xstate_to_dense

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
    c = DampingCoefficients(ga, gb)
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
    c = DampingCoefficients(ga, gb)
    out = apply_channel(rhos, c)
    rep = check_bound(rhos, c)
    for i, rho in enumerate(rhos):
        ci = DampingCoefficients(float(ga[i]), float(gb[i]))
        assert bits(out[i]) == bits(apply_channel(rho, ci))
        one = check_bound(rho, ci)
        for field in REPORT_FIELDS:
            assert bits(getattr(rep, field)[i]) == bits(getattr(one, field))


def test_state_by_gamma_grid_is_seed_major():
    rhos = np.stack([random_state(s) for s in range(4)])
    gammas = np.array([0.9, 0.5, 0.1])
    rep = check_bound(rhos[:, None], DampingCoefficients(gammas, gammas))
    assert rep.lhs.shape == (4, 3)
    for i in range(4):
        for j, g in enumerate(gammas):
            one = check_bound(rhos[i], DampingCoefficients(float(g), float(g)))
            assert rep.lhs[i, j] == one.lhs and rep.rhs[i, j] == one.rhs


def test_single_state_results_keep_scalar_types():
    rho = random_state(1)
    c = DampingCoefficients(0.6, 0.4)
    res = concurrence(rho)
    assert type(res.value) is float
    assert isinstance(res.roots, tuple) and all(type(r) is float for r in res.roots)
    rep = check_bound(rho, c)
    assert type(rep.satisfied) is bool
    assert all(type(getattr(rep, f)) is float for f in REPORT_FIELDS if f != "satisfied")


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
        apply_channel(rhos, DampingCoefficients(0.5, 0.5))
    with pytest.raises(ValueError, match=r"input 3 is not PSD"):
        concurrence(rhos)
    with pytest.raises(ValueError, match=r"matrix 3 is not PSD"):
        psd_sqrt(rhos)


def stack_with_min_eigenvalue(w_min: float) -> np.ndarray:
    """Five Ginibre states whose member 2 is replaced by a rotated diagonal
    matrix with smallest eigenvalue w_min."""
    rhos = np.stack([random_state(s) for s in range(5)])
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rhos[2] = (u * np.array([0.5, 0.3, 0.2, w_min])) @ dagger(u)
    rhos[2] = 0.5 * (rhos[2] + dagger(rhos[2]))
    return rhos


def test_concurrence_psd_check_and_clamp_share_one_eigendecomposition():
    # concurrence refuses below states.EIG_FLOOR = -1e-9, before the square
    # root's looser -1e-8 clamp, which psd_sqrt still meets on its own.
    assert EIG_FLOOR == -1e-9
    for w_min in (-1.1e-9, -5e-9, -5e-8):
        with pytest.raises(ValueError, match=rf"input 2 is not PSD: min eigenvalue {w_min:.3e}"):
            concurrence(stack_with_min_eigenvalue(w_min))
    assert np.all(np.isfinite(concurrence(stack_with_min_eigenvalue(-0.9e-9)).value))
    clamp = r"matrix 2 is not PSD: min eigenvalue -5\.000e-08 < -1\.0e-08"
    with pytest.raises(ValueError, match=clamp):
        psd_sqrt(stack_with_min_eigenvalue(-5e-8))
    rhos = stack_with_min_eigenvalue(-5e-10)
    value = concurrence(rhos).value
    assert np.all(np.isfinite(value))
    assert bits(value[2]) == bits(concurrence(rhos[2]).value)


def test_check_bound_initial_is_one_concurrence_per_state():
    rhos = np.stack([random_state(s) for s in range(6)])
    gammas = np.array([0.9, 0.5, 0.1])
    initial = check_bound(rhos[:, None], DampingCoefficients(gammas, gammas)).initial
    assert initial.shape == (6, 3)
    for i, rho in enumerate(rhos):
        c0 = concurrence(rho).value
        assert [bits(x) for x in initial[i]] == [bits(c0)] * 3


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
