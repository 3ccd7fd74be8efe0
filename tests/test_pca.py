"""Sorted eigenpairs and PCA: analytic oracles, LAPACK cross-checks, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrkit.pca import PcaModel, absorption_ratio, eigh_descending, fit_pca, pca_reconstruct


def test_two_by_two_analytic_eigenpairs():
    w, v = eigh_descending(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(v[:, 0], [s, s], atol=1e-14)
    np.testing.assert_allclose(v[:, 1], [s, -s], atol=1e-14)


def test_diagonal_matrix_is_already_solved():
    w, v = eigh_descending(np.diag([1.0, 5.0, 3.0]))
    np.testing.assert_array_equal(w, [5.0, 3.0, 1.0])
    np.testing.assert_array_equal(v, np.eye(3)[:, [1, 2, 0]])


def test_identity_and_zero_matrices():
    w, v = eigh_descending(np.eye(4))
    np.testing.assert_array_equal(w, np.ones(4))
    w0, v0 = eigh_descending(np.zeros((3, 3)))
    np.testing.assert_array_equal(w0, np.zeros(3))
    np.testing.assert_array_equal(v0, np.eye(3))


def test_one_by_one():
    w, v = eigh_descending(np.array([[-2.5]]))
    assert w[0] == -2.5 and v[0, 0] == 1.0


def test_fidelity_orthonormality_and_lapack_agreement():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        b = rng.normal(size=(n, n))
        a = b + b.T
        w, v = eigh_descending(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs(a @ v - v * w).max() < 1e-10 * scale
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(w) <= 0)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a)[::-1], atol=1e-10 * scale)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(6, 6))
    _, v = eigh_descending(b + b.T)
    for k in range(6):
        col = v[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_eigenvalue_sum_equals_trace(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    a = b + b.T
    w, _ = eigh_descending(a)
    assert abs(float(np.sum(w)) - float(np.trace(a))) < 1e-10 * max(1.0, abs(float(np.trace(a))))


# ---------------------------------------------------------------------------
# fit / reconstruct / absorption


def _panel(seed=0, t=40, n=5):
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(t, 2))
    loadings = rng.normal(size=(2, n))
    return factors @ loadings + 0.1 * rng.normal(size=(t, n))


def test_fit_pca_covariance_matches_numpy():
    x = _panel()
    model = fit_pca(x, n_components=2)
    np.testing.assert_allclose(model.covariance, np.cov(x.T, ddof=1), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(model.mean, x.mean(axis=0), rtol=0, atol=0)


def test_fit_pca_requires_more_rows_than_assets():
    with pytest.raises(ValueError, match="more rows than assets"):
        fit_pca(np.ones((4, 4)), 1)
    with pytest.raises(ValueError, match="2-D"):
        fit_pca(np.ones(7), 1)


def test_full_rank_reconstruction_is_identity():
    x = _panel(seed=2)
    model = fit_pca(x, n_components=x.shape[1])
    np.testing.assert_allclose(pca_reconstruct(model, x), x, atol=1e-10)


def test_in_sample_error_equals_trailing_eigenvalue_mass():
    x = _panel(seed=3)
    t = x.shape[0]
    for k in (1, 2, 3):
        model = fit_pca(x, n_components=k)
        resid = x - pca_reconstruct(model, x)
        # squared residual mass per degree of freedom = discarded eigenvalue mass
        assert float(np.sum(resid * resid)) / (t - 1) == pytest.approx(
            float(np.sum(model.eigenvalues[k:])), rel=1e-10
        )


def test_reconstruction_on_new_rows_uses_training_mean():
    x = _panel(seed=4)
    model = fit_pca(x, n_components=1)
    fresh = np.zeros((3, x.shape[1]))
    vk = model.eigenvectors[:, :1]
    expected = model.mean + (fresh - model.mean) @ vk @ vk.T
    np.testing.assert_array_equal(pca_reconstruct(model, fresh), expected)


def test_absorption_ratio_hand_values():
    x = _panel(seed=5)
    model = fit_pca(x, n_components=1)
    w = model.eigenvalues
    assert absorption_ratio(model) == pytest.approx(w[0] / np.sum(w), rel=1e-14)
    assert absorption_ratio(model, 2) == pytest.approx((w[0] + w[1]) / np.sum(w), rel=1e-14)
    assert absorption_ratio(model, len(w)) == pytest.approx(1.0, rel=1e-14)


def test_absorption_ratio_rejects_zero_variance():
    model = PcaModel(
        mean=np.zeros(2),
        covariance=np.zeros((2, 2)),
        eigenvalues=np.zeros(2),
        eigenvectors=np.eye(2),
        n_components=1,
    )
    with pytest.raises(ValueError, match="zero total variance"):
        absorption_ratio(model)


def test_model_validates_component_count_and_freezes_arrays():
    x = _panel(seed=6)
    with pytest.raises(ValueError, match="n_components"):
        fit_pca(x, n_components=0)
    with pytest.raises(ValueError, match="n_components"):
        fit_pca(x, n_components=x.shape[1] + 1)
    model = fit_pca(x, n_components=1)
    with pytest.raises(ValueError):
        model.eigenvalues[0] = 99.0
