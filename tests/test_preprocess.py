import numpy as np
import pytest

from ppfa import (
    ConfigError,
    DataError,
    NumericsError,
    WhiteningTransform,
    apply_whitening,
    fit_whitening,
    invert_whitening,
)


def white_basis(n, m, seed=0):
    """Matrix with exactly zero column means and identity sample covariance."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    Z -= Z.mean(axis=0)
    # orthonormalize columns, then scale to sample covariance I
    Q, _ = np.linalg.qr(Z)
    return Q[:, :m] * np.sqrt(n - 1)


def test_identical_rows_is_rank_deficient():
    data = np.tile([1.0, 2.0, 3.0], (50, 1))
    with pytest.raises(NumericsError):
        fit_whitening(data)


def test_overflowing_covariance_is_data_error():
    data = np.random.default_rng(1).standard_normal((50, 3)) * 1e200
    with pytest.raises(DataError, match=r"overflows along channel\(s\) \[0, 1, 2\]"):
        fit_whitening(data)


def test_underflowing_covariance_is_data_error_not_rank_deficiency():
    data = np.random.default_rng(2).standard_normal((50, 3))
    data[:, 1] *= 1e-200
    with pytest.raises(DataError, match=r"underflows along channel\(s\) \[1\]"):
        fit_whitening(data)


def test_already_white_data_gives_unit_singvals():
    Z = white_basis(400, 3, seed=1)
    t = fit_whitening(Z)
    assert np.allclose(t.singvals, 1.0, atol=1e-10)
    # the transform is then an orthonormal rotation
    W = t.eigvecs / np.sqrt(t.singvals)
    assert np.allclose(W.T @ W, np.eye(3), atol=1e-10)


def test_constructed_covariance_recovers_singvals():
    # exact sample covariance [[4, 0], [0, 1]] by scaling a white basis
    Z = white_basis(300, 2, seed=2)
    data = Z @ np.diag([2.0, 1.0])
    t = fit_whitening(data)
    assert np.allclose(sorted(t.singvals, reverse=True), [4.0, 1.0], atol=1e-8)
    whitened = apply_whitening(t, data)
    cov = np.cov(whitened, rowvar=False)
    assert np.max(np.abs(cov - np.eye(2))) < 1e-6


def test_apply_at_mean_is_zero():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(100, 4)) + np.array([5.0, -2.0, 0.0, 1.0])
    t = fit_whitening(data)
    assert np.allclose(apply_whitening(t, t.mean), 0.0, atol=1e-12)


def test_identity_transform_is_noop():
    t = WhiteningTransform.identity(3)
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(apply_whitening(t, x), x)


def test_training_set_whitens_to_zero_mean_identity_cov():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(1000, 3))
    mix = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    data = base @ mix.T + np.array([1.0, -3.0, 0.5])
    t = fit_whitening(data)
    w = apply_whitening(t, data)
    assert np.max(np.abs(w.mean(axis=0))) < 1e-8
    cov = w.T @ w / (len(w) - 1)
    assert np.max(np.abs(cov - np.eye(3))) < 1e-6


def test_round_trip():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(200, 5)) @ (rng.normal(size=(5, 5)) + 3 * np.eye(5))
    t = fit_whitening(data)
    back = invert_whitening(t, apply_whitening(t, data))
    assert np.max(np.abs(back - data)) < 1e-8


def test_eigvecs_orthonormal_and_singvals_descending():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(500, 4)) * np.array([3.0, 1.0, 0.5, 2.0])
    t = fit_whitening(data)
    assert np.max(np.abs(t.eigvecs.T @ t.eigvecs - np.eye(4))) < 1e-10
    assert np.all(np.diff(t.singvals) <= 0)
    assert np.all(t.singvals > 0)


def test_dimension_mismatch_errors():
    t = WhiteningTransform.identity(3)
    with pytest.raises(ConfigError):
        apply_whitening(t, np.zeros(4))
    with pytest.raises(ConfigError):
        invert_whitening(t, np.zeros((5, 2)))


def test_nonfinite_input_rejected():
    data = np.ones((10, 2))
    data[3, 1] = np.nan
    with pytest.raises(Exception):
        fit_whitening(data)
