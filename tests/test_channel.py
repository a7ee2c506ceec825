import dataclasses

import numpy as np
import pytest

from esdkit.channel import DampingCoefficients, _omega
from esdkit.linalg import I4, hermiticity_defect
from esdkit.reference import (
    apply_channel,
    build_kraus,
    coefficients_markov,
    completeness_defect,
    kraus_term,
    pure_state,
    random_xstate,
)
from esdkit.states import random_state, random_states, standard_family, xstate_to_dense

X_MASK = np.zeros((4, 4), dtype=bool)
for _i in range(4):
    X_MASK[_i, _i] = X_MASK[_i, 3 - _i] = True


def random_coefficients(rng: np.random.Generator) -> DampingCoefficients:
    ga, gb = rng.uniform(0.0, 1.0, size=2)
    return DampingCoefficients(float(ga), float(gb))


def test_coefficients_markov_values():
    c = coefficients_markov(1.0, 0.0)
    assert c.gamma_a == 1.0 and _omega(c.gamma_a) == 0.0
    c = coefficients_markov(1.0, np.log(2.0))
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose([c.gamma_a, _omega(c.gamma_a), c.gamma_b, _omega(c.gamma_b)],
                               [r, r, r, r], atol=1e-15)
    c = coefficients_markov(1.0, 80.0)
    assert c.gamma_a < 1e-17 and abs(_omega(c.gamma_a) - 1.0) < 1e-15


def test_coefficients_markov_rejects_negative():
    with pytest.raises(ValueError):
        coefficients_markov(-1.0, 1.0)
    with pytest.raises(ValueError):
        coefficients_markov(1.0, -0.5)


def test_coefficients_validation():
    # Each atom's gamma must lie in [0, 1], float or array, NaN refused too;
    # the refusal names the atom and the value.
    for bad in (-0.1, 1.2, np.nan, np.array([0.5, 1.0 + 1e-15])):
        with pytest.raises(ValueError, match=r"atom A: gamma=.* outside \[0, 1\]"):
            DampingCoefficients(bad, 0.5)
        with pytest.raises(ValueError, match=r"atom B: gamma=.* outside \[0, 1\]"):
            DampingCoefficients(0.5, bad)
    # the ends are valid, and omega = sqrt(1 - gamma^2) is derived, not stored
    c = DampingCoefficients(0.0, np.array([1.0, 0.6]))
    assert [f.name for f in dataclasses.fields(c)] == ["gamma_a", "gamma_b"]
    assert _omega(c.gamma_a) == 1.0
    np.testing.assert_array_equal(_omega(c.gamma_b), [0.0, 0.8])


def test_build_kraus_identity_and_full_decay():
    kraus = build_kraus(DampingCoefficients(1.0, 1.0))
    np.testing.assert_array_equal(kraus[0], I4)
    for k in kraus[1:]:
        np.testing.assert_array_equal(k, np.zeros((4, 4)))

    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    dead = DampingCoefficients(0.0, 0.0)
    for seed in range(5):
        np.testing.assert_allclose(apply_channel(random_state(seed), dead), ground, atol=1e-14)


def test_completeness():
    half = DampingCoefficients(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    assert completeness_defect(build_kraus(half)) < 1e-15
    rng = np.random.default_rng(42)
    for _ in range(100):
        kraus = build_kraus(random_coefficients(rng))
        assert len(kraus) == 4 and completeness_defect(kraus) < 1e-12


def test_apply_channel_family_analytic_entries():
    # gamma^2 = 1/2 on the a=1 family: diag (0.25, 0.75, 0.75, 1.25)/3, z = 0.5/3
    g = 0.5 ** 0.5
    rho = apply_channel(xstate_to_dense(standard_family(1.0)),
                        DampingCoefficients(g, g))
    want = np.array([0.25, 0.75, 0.75, 1.25]) / 3.0
    np.testing.assert_allclose(np.diag(rho).real, want, atol=1e-15)
    np.testing.assert_allclose(rho[1, 2], 0.5 / 3.0, atol=1e-15)

    # general a against the analytic matrix elements
    for a in (0.0, 0.3, 1.0):
        for g2 in (1.0, 0.7, 0.2):
            g = np.sqrt(g2)
            w2 = 1.0 - g2
            rho = apply_channel(xstate_to_dense(standard_family(a)),
                                DampingCoefficients(g, g))
            want = np.array([
                g2 * g2 * a,
                g2 * (1.0 + w2 * a),
                g2 * (1.0 + w2 * a),
                1.0 - a + 2.0 * w2 + w2 * w2 * a,
            ]) / 3.0
            np.testing.assert_allclose(np.diag(rho).real, want, atol=1e-14)
            np.testing.assert_allclose(rho[1, 2], g2 / 3.0, atol=1e-14)


def test_apply_channel_identity_exact():
    rho = random_state(3)
    np.testing.assert_array_equal(
        apply_channel(rho, DampingCoefficients(1.0, 1.0)), rho)


def test_apply_channel_one_sided_decay():
    # both excited; A decays fully, B untouched -> ground(x)excited
    both = np.zeros(4, dtype=complex)
    both[0] = 1.0
    out = apply_channel(pure_state(both), DampingCoefficients(0.0, 1.0))
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_kraus_terms_sum_to_channel():
    rng = np.random.default_rng(7)
    for seed in range(20):
        rho = random_state(seed)
        c = random_coefficients(rng)
        terms = [kraus_term(rho, c, mu) for mu in (1, 2, 3, 4)]
        np.testing.assert_allclose(sum(terms), apply_channel(rho, c), atol=1e-13)
        traces = [float(np.trace(t).real) for t in terms]
        assert min(traces) >= -1e-15
        assert abs(sum(traces) - 1.0) < 1e-12


def test_kraus_term_identity_branch():
    rho = random_state(11)
    np.testing.assert_array_equal(
        kraus_term(rho, DampingCoefficients(1.0, 1.0), 1), rho)


def test_kraus_term_rejects_bad_index():
    rho = random_state(0)
    c = DampingCoefficients(0.5, 0.5)
    for mu in (0, 5, -1):
        with pytest.raises(ValueError):
            kraus_term(rho, c, mu)


def test_cptp_preservation():
    # 100 states one call each, then in one stacked call with per-state gammas
    ga, gb = np.random.default_rng(1234).uniform(0.0, 1.0, size=(100, 2)).T
    rhos = random_states(range(100))
    single = [apply_channel(rho, DampingCoefficients(float(a), float(b)))
              for rho, a, b in zip(rhos, ga, gb)]
    for out in (np.stack(single), apply_channel(rhos, DampingCoefficients(ga, gb))):
        assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) < 1e-12
        assert np.max(hermiticity_defect(out)) < 1e-15
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_x_structure_preserved():
    rng = np.random.default_rng(55)
    for seed in range(50):
        rho = xstate_to_dense(random_xstate(seed))
        out = apply_channel(rho, random_coefficients(rng))
        assert np.abs(out[~X_MASK]).max() < 1e-13


def test_markov_semigroup_composition():
    rate = 1.3
    times = [(0.2, 0.5), (1.0, 1.0), (0.05, 2.4), (0.4, 0.9)]
    for seed in range(20):
        t1, t2 = times[seed % len(times)]
        rho = random_state(seed)
        stepped = apply_channel(apply_channel(rho, coefficients_markov(rate, t1)),
                                coefficients_markov(rate, t2))
        direct = apply_channel(rho, coefficients_markov(rate, t1 + t2))
        assert np.max(np.abs(stepped - direct)) < 1e-12


def test_full_decay_purity_tends_to_one():
    rho = random_state(8)
    purities = []
    for g in (0.8, 0.4, 0.1, 0.01, 0.0):
        out = apply_channel(rho, DampingCoefficients(g, g))
        purities.append(float(np.trace(out @ out).real))
    assert all(b >= a - 1e-12 for a, b in zip(purities, purities[1:]))
    assert abs(purities[-1] - 1.0) < 1e-12
