import numpy as np
import pytest
from numpy import kron

from esdkit.linalg import I2, I4, SIGMA_MINUS, SIGMA_Y, SIGMA_Z, dagger, hermiticity_defect
from esdkit.reference import hermitian_eigen, psd_sqrt


def cofactor_det(m: np.ndarray) -> complex:
    """Determinant by first-row cofactor expansion (independent oracle)."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * complex(m[0, j]) * cofactor_det(minor)
    return total


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def test_kron_identities():
    np.testing.assert_array_equal(kron(I2, I2), I4)
    np.testing.assert_array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))
    anti = np.zeros((4, 4), dtype=complex)
    anti[0, 3], anti[1, 2], anti[2, 1], anti[3, 0] = -1.0, 1.0, 1.0, -1.0
    np.testing.assert_array_equal(kron(SIGMA_Y, SIGMA_Y), anti)


def test_kron_entry_layout():
    # (kron(a,b))[2i+k][2j+l] = a[i][j] * b[k][l]
    # vectorized and scalar complex multiplies may round one ulp apart
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = kron(a, b)
    eps = np.finfo(np.float64).eps
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = a[i, j] * b[k, l]
                    assert abs(out[2 * i + k, 2 * j + l] - want) <= 4.0 * eps * abs(want)


def test_kron_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = kron(alpha * a + b, c)
        rhs = alpha * kron(a, c) + kron(b, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_lowering_operator_is_lower_left():
    # Excited state comes first in the basis, so lowering maps e -> g.
    e = np.array([1.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(SIGMA_MINUS @ e, g)
    np.testing.assert_array_equal(SIGMA_MINUS @ g, np.zeros(2, dtype=complex))


def test_hermitian_eigen_examples():
    w, _ = hermitian_eigen(SIGMA_Z)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    w, _ = hermitian_eigen(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex))
    np.testing.assert_allclose(w, [0.0, 1.0, 4.0, 9.0], atol=1e-14)


def test_hermitian_eigen_reconstruction():
    rng = np.random.default_rng(5)
    for dim in (4, 2):
        for _ in range(20):
            h = random_hermitian(rng, dim)
            w, v = hermitian_eigen(h)
            assert np.max(np.abs((v * w) @ dagger(v) - h)) < 1e-12
            # eigenpairs and orthonormality
            np.testing.assert_allclose(h @ v, v * w, atol=1e-10)
            np.testing.assert_allclose(dagger(v) @ v, np.eye(dim), atol=1e-10)
            assert np.all(np.diff(w) >= 0.0)


def test_hermitian_eigen_trace_and_determinant():
    rng = np.random.default_rng(17)
    for _ in range(30):
        h = random_hermitian(rng, 4)
        w, _ = hermitian_eigen(h)
        assert abs(w.sum() - np.trace(h).real) < 1e-10
        det = cofactor_det(h)
        assert abs(det.imag) < 1e-9
        assert abs(np.prod(w) - det.real) < 1e-9 * max(1.0, abs(det.real))


def test_hermitian_eigen_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_eigen(bad)


def test_psd_sqrt_examples():
    np.testing.assert_allclose(psd_sqrt(I4), I4, atol=1e-14)
    s = psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex))
    np.testing.assert_allclose(s, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-14)
    # rank-1 projector is its own square root
    v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    p = np.outer(v, v.conj())
    np.testing.assert_allclose(psd_sqrt(p), p, atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(23)
    for _ in range(100):
        h = random_psd(rng, 4)
        s = psd_sqrt(h)
        assert hermiticity_defect(s) == 0.0
        assert np.max(np.abs(s @ s - h)) < 1e-12 * max(1.0, np.abs(h).max())


def test_psd_sqrt_clamps_dust_but_rejects_negative():
    dusty = np.diag([1.0, 0.5, -1e-9, 0.2]).astype(complex)
    s = psd_sqrt(dusty)
    assert s[2, 2] == 0.0
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, 0.5, -1e-6, 0.2]).astype(complex))


def psd_sqrt_reference(h: np.ndarray) -> np.ndarray:
    """psd_sqrt of PSD input as one function body: decompose, zero eigenvalues
    below 1e-14 of the largest, then the symmetrized (v sqrt(w)) v^dagger."""
    w, v = hermitian_eigen(h)
    w = np.where(w < 1e-14 * np.maximum(w[..., -1:], 0.0), 0.0, w)
    s = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    return 0.5 * (s + dagger(s))


@pytest.mark.parametrize("rank", [4, 3, 1])
def test_psd_sqrt_bits_match_single_body_reference(rank):
    rng = np.random.default_rng(41 + rank)
    g = rng.standard_normal((50, 4, rank)) + 1j * rng.standard_normal((50, 4, rank))
    h = g @ dagger(g)
    assert psd_sqrt(h).tobytes() == psd_sqrt_reference(h).tobytes()
    assert psd_sqrt(h[7]).tobytes() == psd_sqrt_reference(h[7]).tobytes()


def test_elementary_identities():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.trace(I4) == 4.0
    np.testing.assert_array_equal(dagger(dagger(a)), a)
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12 * np.abs(a).max() * np.abs(b).max()
