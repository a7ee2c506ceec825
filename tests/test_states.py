import numpy as np
import pytest

from esdkit.entanglement import concurrence_x
from esdkit.linalg import dagger, hermiticity_defect
from esdkit.reference import dense_to_xstate, partial_trace, pure_state, random_xstate
from esdkit.states import (
    XState,
    assert_density_matrix,
    random_state,
    random_states,
    standard_family,
    xstate_to_dense,
)


def test_standard_family_entries():
    x = standard_family(1.0)
    np.testing.assert_allclose(
        [x.p1, x.p2, x.p3, x.p4], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-15)
    assert x.z23 == 1 / 3
    assert x.z14 == 0.0
    x = standard_family(0.0)
    np.testing.assert_allclose(
        [x.p1, x.p2, x.p3, x.p4], [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert x.z23 == 1 / 3


def test_standard_family_halfway_concurrence():
    # initial concurrence (2/3)(1 - sqrt(a(1-a))) at a = 1/2
    assert abs(concurrence_x(standard_family(0.5)) - 1 / 3) < 1e-15


def test_standard_family_rejects_out_of_range():
    for a in (-0.01, 1.01, 2.0):
        with pytest.raises(ValueError):
            standard_family(a)


def test_standard_family_trace_and_positivity_grid():
    for a in np.linspace(0.0, 1.0, 101):
        rho = xstate_to_dense(standard_family(float(a)))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_xstate_validation():
    with pytest.raises(ValueError):
        XState(0.5, 0.5, 0.25, -0.25)
    with pytest.raises(ValueError):
        XState(0.4, 0.4, 0.4, 0.4)  # trace 1.6
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, z23=0.5)  # |z23| > sqrt(p2 p3)


def test_roundtrip_standard_family():
    x = standard_family(1.0)
    back = dense_to_xstate(xstate_to_dense(x))
    for field in ("p1", "p2", "p3", "p4", "z23", "z14"):
        assert abs(getattr(back, field) - getattr(x, field)) < 1e-14


def test_roundtrip_random_xstates():
    for seed in range(50):
        x = random_xstate(seed)
        back = dense_to_xstate(xstate_to_dense(x))
        for field in ("p1", "p2", "p3", "p4", "z23", "z14"):
            assert abs(getattr(back, field) - getattr(x, field)) < 1e-14


def test_bell_state_as_xstate():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    x = dense_to_xstate(pure_state(psi))
    assert abs(x.p2 - 0.5) < 1e-12 and abs(x.p3 - 0.5) < 1e-12
    assert abs(x.z23 - 0.5) < 1e-12
    assert abs(x.p1) < 1e-12 and abs(x.p4) < 1e-12


def test_dense_to_xstate_rejects_off_x_entry():
    rho = xstate_to_dense(standard_family(0.5))
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(ValueError):
        dense_to_xstate(rho)


def test_partial_trace_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # both excited
    up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(partial_trace(pure_state(psi), "A"), up, atol=1e-15)
    np.testing.assert_allclose(partial_trace(pure_state(psi), "B"), up, atol=1e-15)
    for seed in range(20):
        ra, rb = random_state(seed, dim=2), random_state(seed + 1000, dim=2)
        prod = np.kron(ra, rb)
        assert np.max(np.abs(partial_trace(prod, "A") - ra)) < 1e-12
        assert np.max(np.abs(partial_trace(prod, "B") - rb)) < 1e-12


def test_partial_trace_bell_is_maximally_mixed():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(
        partial_trace(pure_state(psi), "A"), 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_preserves_trace():
    for seed in range(20):
        rho = random_state(seed)
        for which in ("A", "B"):
            red = partial_trace(rho, which)
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert hermiticity_defect(red) < 1e-12


def test_partial_trace_rejects_bad_subsystem():
    with pytest.raises(ValueError):
        partial_trace(random_state(0), "C")


def test_random_state_is_valid_and_deterministic():
    for seed in (0, 1, 99):
        rho = random_state(seed)
        assert_density_matrix(rho)
        assert np.linalg.eigvalsh(rho).min() >= 0.0
        np.testing.assert_array_equal(rho, random_state(seed))
    assert np.abs(random_state(0) - random_state(1)).max() > 1e-3


def per_seed_random_state(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [4, 2])
def test_random_states_stack_is_bit_equal_to_per_seed_draws(dim):
    seeds = [*range(300), 2**64 + 12345]
    stack = random_states(seeds, dim)
    assert stack.shape == (len(seeds), dim, dim)
    for seed, rho in zip(seeds, stack):
        want = per_seed_random_state(seed, dim)
        assert rho.tobytes() == want.tobytes()
        assert random_state(seed, dim).tobytes() == want.tobytes()


def test_random_state_mean_purity():
    purities = [np.trace(random_state(s) @ random_state(s)).real for s in range(1000)]
    mean = float(np.mean(purities))
    assert 0.25 < mean < 1.0


def test_assert_density_matrix_rejects_invalid():
    good = random_state(2)
    bad_herm = good.copy()
    bad_herm[0, 1] += 1e-6
    with pytest.raises(ValueError):
        assert_density_matrix(bad_herm)
    with pytest.raises(ValueError):
        assert_density_matrix(1.5 * good)
    negative = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        assert_density_matrix(negative)
