import numpy as np
import pytest

from esdkit.channel import coefficients_from_gammas, coefficients_markov, kraus_term
from esdkit.entanglement import (
    check_bound,
    concurrence,
    concurrence_x,
    decay_bound,
    spin_flipped,
)
from esdkit.linalg import SIGMA_Y, kron
from esdkit.states import (
    XState,
    pure_state,
    random_state,
    random_xstate,
    standard_family,
    xstate_to_dense,
)

FLIP = kron(SIGMA_Y, SIGMA_Y)


def bell_dense() -> np.ndarray:
    return xstate_to_dense(XState(0.0, 0.5, 0.5, 0.0, z23=0.5))


def random_pure(rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return psi / np.linalg.norm(psi)


def one_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    theta, p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=3)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([
        [np.exp(1j * p1) * c, np.exp(1j * p2) * s],
        [-np.exp(-1j * p2) * s, np.exp(-1j * p1) * c],
    ])


def test_bell_and_product_anchors():
    assert abs(concurrence(bell_dense()).value - 1.0) < 1e-12
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1.0
    assert concurrence(prod).value == 0.0


def test_standard_family_values():
    # (2/3)(1 - sqrt(a(1-a))) at a in {0, 1/4, 1/2, 1}
    expected = {
        0.0: 2.0 / 3.0,
        0.25: (2.0 / 3.0) * (1.0 - np.sqrt(3.0) / 4.0),
        0.5: 1.0 / 3.0,
        1.0: 2.0 / 3.0,
    }
    for a, want in expected.items():
        dense_val = concurrence(xstate_to_dense(standard_family(a))).value
        x_val = concurrence_x(standard_family(a))
        assert abs(dense_val - want) < 1e-12
        assert abs(x_val - want) < 1e-15
    assert abs(expected[0.25] - 0.37799153207185376) < 1e-16


def test_concurrence_x_examples():
    assert concurrence_x(standard_family(1.0)) == 2.0 / 3.0
    assert concurrence_x(XState(0.0, 0.5, 0.5, 0.0, z23=0.5)) == 1.0
    # outer-branch X state: Bell (|ee>+|gg>)/sqrt(2)
    assert concurrence_x(XState(0.5, 0.0, 0.0, 0.5, z14=0.5)) == 1.0


def test_werner_family():
    for p in (0.0, 1.0 / 3.0, 0.6, 1.0):
        q = (1.0 - p) / 4.0
        w = np.diag([q, q + p / 2.0, q + p / 2.0, q]).astype(complex)
        w[1, 2] = w[2, 1] = p / 2.0
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence(w).value - want) < 1e-10


def test_x_closed_form_agrees_with_dense():
    for seed in range(1000):
        x = random_xstate(seed)
        gap = abs(concurrence_x(x) - concurrence(xstate_to_dense(x)).value)
        assert gap < 1e-10


def test_pure_state_oracle():
    rng = np.random.default_rng(97)
    for _ in range(200):
        psi = random_pure(rng)
        want = abs(psi.conj() @ FLIP @ psi.conj())
        got = concurrence(pure_state(psi)).value
        assert abs(got - want) < 1e-10


def test_local_unitary_invariance():
    rng = np.random.default_rng(13)
    for seed in range(50):
        rho = random_state(seed)
        base = concurrence(rho).value
        u = kron(one_qubit_unitary(rng), one_qubit_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated).value - base) < 1e-10


def test_homogeneity():
    rng = np.random.default_rng(29)
    for seed in range(20):
        rho = random_state(seed)
        base = concurrence(rho).value
        for scale in rng.uniform(0.0, 2.0, size=4):
            got = concurrence(scale * rho).value
            assert abs(got - scale * base) < 1e-12
    assert concurrence(np.zeros((4, 4), dtype=complex)).value == 0.0


def test_range_on_normalized_states():
    for seed in range(200):
        val = concurrence(random_state(seed)).value
        assert 0.0 <= val <= 1.0 + 1e-12


def test_roots_diagnostics():
    res = concurrence(random_state(4))
    assert all(r >= 0.0 for r in res.roots)
    assert all(a >= b for a, b in zip(res.roots, res.roots[1:]))
    r1, r2, r3, r4 = res.roots
    assert res.value == max(0.0, r1 - r2 - r3 - r4)


def test_accepts_unnormalized_input():
    rho = random_state(5)
    res = concurrence(2.0 * rho)
    assert abs(res.value - 2.0 * concurrence(rho).value) < 1e-12
    term = kraus_term(rho, coefficients_from_gammas(0.7, 0.4), 1)
    assert np.trace(term).real < 1.0
    concurrence(term)  # must not raise


def test_rejects_invalid_input():
    bad = random_state(0).copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError):
        concurrence(bad)
    with pytest.raises(ValueError):
        concurrence(np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex))
    with pytest.raises(ValueError):
        concurrence(np.eye(3, dtype=complex))


def test_spin_flipped_involution():
    rho = random_state(21)
    np.testing.assert_allclose(spin_flipped(spin_flipped(rho)), rho, atol=1e-14)


def test_decay_bound_values():
    assert decay_bound(0.5, 0.0) == 0.5
    assert decay_bound(0.0, 3.0) == 0.0
    assert decay_bound(0.25, np.inf) == 0.0
    # Markov both atoms: bound = c0 * gamma^2 at exponent rate*t
    t, rate, c0 = 0.7, 1.3, 0.6
    gamma2 = np.exp(-rate * t)
    assert abs(decay_bound(c0, rate * t) - c0 * gamma2) < 1e-15
    exps = np.linspace(0.0, 5.0, 40)
    vals = [decay_bound(0.8, float(e)) for e in exps]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_decay_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decay_bound(0.5, -0.1)
    with pytest.raises(ValueError):
        decay_bound(1.5, 0.1)
    with pytest.raises(ValueError):
        decay_bound(-0.1, 0.1)


def test_check_bound_identity_channel():
    rho = random_state(6)
    rep = check_bound(rho, coefficients_from_gammas(1.0, 1.0))
    assert rep.satisfied
    assert rep.lhs == rep.rhs == rep.initial
    assert rep.first_branch_gap < 1e-14
    assert rep.side_branch_max < 1e-14


def test_check_bound_family_saturation():
    # a = 0 has p1*p4 = 0, so the family saturates the bound exactly ...
    rho0 = xstate_to_dense(standard_family(0.0))
    for t in (0.3, 1.0, 2.5):
        rep = check_bound(rho0, coefficients_markov(1.0, t))
        assert rep.satisfied
        assert abs(rep.lhs - rep.rhs) < 1e-12
    # ... and a > 0 sits below it by exactly the factor f(t)
    a, rate, t = 0.5, 1.0, 0.8
    rep = check_bound(xstate_to_dense(standard_family(a)), coefficients_markov(rate, t))
    w2 = 1.0 - np.exp(-rate * t)
    f = 1.0 - np.sqrt(a * (1.0 - a + 2.0 * w2 + w2 * w2 * a))
    assert rep.lhs <= rep.rhs + 1e-12
    assert abs(rep.lhs / rep.rhs - f / (1.0 - np.sqrt(a * (1.0 - a)))) < 1e-10


def test_check_bound_random_smoke():
    for seed in range(25):
        rho = random_state(seed)
        for g in (0.9, 0.5, 0.1):
            rep = check_bound(rho, coefficients_from_gammas(g, g))
            assert rep.satisfied
            assert rep.first_branch_gap < 1e-9
            assert rep.side_branch_max < 1e-10


@pytest.mark.parametrize("slack", [np.nan, -1.0, np.inf])
def test_check_bound_rejects_bad_slack(slack):
    with pytest.raises(ValueError, match="slack"):
        check_bound(random_state(0), coefficients_from_gammas(0.5, 0.5), slack=slack)
