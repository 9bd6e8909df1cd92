import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GaussianOracle, exact_filter, exact_smoother
from ppfa import (
    ModelParams,
    augment,
    backward_smooth,
    filter_step,
    forward_filter,
    random_stable_params,
    simulate,
)
from ppfa.kalman import log_likelihood_filter


def conjugate_params(sigma2=1.0):
    # r=1, s=1, H=1, B=0: one Gaussian measurement of a unit-variance latent
    return ModelParams.from_dynamics(
        B=np.array([[0.0]]), H=np.array([[1.0]]), Sigma=np.array([sigma2])
    )


def test_single_sample_conjugate_posterior():
    p = conjugate_params()
    aug = augment(p)
    belief, mu, innovation = filter_step(aug, p.Sigma, None, np.array([0.8]))
    assert mu[0] == pytest.approx(0.4)
    assert belief.V[0, 0] == pytest.approx(0.5)
    assert innovation[0] == pytest.approx(0.8)


def test_uninformative_observation_limit():
    # huge measurement noise: posterior follows the dynamics prediction
    p = ModelParams.from_dynamics(
        B=np.array([[0.9]]), H=np.array([[1.0]]), Sigma=np.array([1e12])
    )
    aug = augment(p)
    belief, _, _ = filter_step(aug, p.Sigma, None, np.array([5.0]))
    mu0 = belief.mu.copy()
    belief, mu, _ = filter_step(aug, p.Sigma, belief, np.array([-3.0]))
    assert abs(mu[0] - 0.9 * mu0[0]) < 1e-4


def test_filter_and_smoother_match_oracle():
    rng = np.random.default_rng(0)
    for trial in range(8):
        r = int(rng.integers(1, 3))
        s = int(rng.integers(1, 4))
        m = int(rng.integers(r, 5))
        p = random_stable_params(m=m, r=r, s=s, seed=int(rng.integers(1_000_000)))
        T = 6
        _, X = simulate(p, T + s - 1, seed=int(rng.integers(1_000_000)))
        oracle = GaussianOracle(p, X, T)
        aug = augment(p)
        filtered = forward_filter(aug, p.Sigma, X)
        smoothed = backward_smooth(aug, filtered)
        for k in range(T):
            mean_f, cov_f = oracle.filtered(k)
            assert np.max(np.abs(filtered[k].mu - mean_f)) < 1e-8
            assert np.max(np.abs(filtered[k].V - cov_f)) < 1e-8
            mean_s, cov_s = oracle.smoothed(k)
            assert np.max(np.abs(smoothed.mean[k] - mean_s)) < 1e-8
            assert np.max(np.abs(smoothed.cov[k] - cov_s)) < 1e-8
        for k in range(T - 1):
            assert np.max(np.abs(smoothed.lag1[k] - oracle.smoothed_pair(k))) < 1e-8


def test_last_step_smoothed_equals_filtered():
    p = random_stable_params(m=3, r=2, s=2, seed=1)
    _, X = simulate(p, 40, seed=2)
    aug = augment(p)
    filtered = forward_filter(aug, p.Sigma, X)
    smoothed = backward_smooth(aug, filtered)
    assert np.array_equal(smoothed.mean[-1], filtered[-1].mu)
    assert np.array_equal(smoothed.cov[-1], filtered[-1].V)


def test_no_dynamics_smoothing_changes_nothing():
    # B = 0: no information flows backward
    p = ModelParams.from_dynamics(
        B=np.zeros((1, 2)), H=np.random.default_rng(3).normal(size=(4, 2)),
        Sigma=np.full(4, 0.5),
    )
    _, X = simulate(p, 30, seed=4)
    aug = augment(p)
    filtered = forward_filter(aug, p.Sigma, X)
    smoothed = backward_smooth(aug, filtered)
    for k in range(len(filtered)):
        assert np.max(np.abs(smoothed.mean[k] - filtered[k].mu)) < 1e-10
        assert np.max(np.abs(smoothed.cov[k] - filtered[k].V)) < 1e-10


def test_smoothing_never_adds_uncertainty():
    p = random_stable_params(m=3, r=1, s=2, seed=5)
    _, X = simulate(p, 50, seed=6)
    aug = augment(p)
    filtered = forward_filter(aug, p.Sigma, X)
    smoothed = backward_smooth(aug, filtered)
    for k in range(len(filtered)):
        gap_eigs = np.linalg.eigvalsh(filtered[k].V - smoothed.cov[k])
        assert gap_eigs.min() > -1e-10


def test_covariances_stay_symmetric():
    p = random_stable_params(m=4, r=2, s=3, seed=7)
    _, X = simulate(p, 200, seed=8)
    aug = augment(p)
    filtered = forward_filter(aug, p.Sigma, X)
    smoothed = backward_smooth(aug, filtered)
    for k in range(len(filtered)):
        assert np.max(np.abs(filtered[k].V - filtered[k].V.T)) <= 1e-8
        assert np.max(np.abs(smoothed.cov[k] - smoothed.cov[k].T)) <= 1e-8


def test_streaming_steps_match_batch_bitwise():
    p = random_stable_params(m=3, r=2, s=2, seed=9)
    _, X = simulate(p, 60, seed=10)
    aug = augment(p)
    batch = forward_filter(aug, p.Sigma, X)
    belief = None
    for k, x in enumerate(X[p.s - 1:]):
        belief, mu, _ = filter_step(aug, p.Sigma, belief, x)
        assert np.array_equal(mu, batch[k].mu)
        assert np.array_equal(belief.V, batch[k].V)


def test_log_likelihood_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(5):
        s = int(rng.integers(1, 4))
        p = random_stable_params(m=3, r=2, s=s, seed=int(rng.integers(1_000_000)))
        T = 6
        _, X = simulate(p, T + s - 1, seed=int(rng.integers(1_000_000)))
        oracle = GaussianOracle(p, X, T)
        ll = log_likelihood_filter(augment(p), p.Sigma, X)
        assert ll == pytest.approx(oracle.log_likelihood(), abs=1e-8)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 2),
    s=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    max_radius=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    n_rows=st.sampled_from([3, 8, 30, 400]),
    seed=st.integers(0, 2**31 - 1),
)
def test_steady_state_filter_and_smoother_match_exact_recursion(
    r, s, extra_m, max_radius, n_rows, seed
):
    p = random_stable_params(m=r + extra_m, r=r, s=s, seed=seed, max_radius=max_radius,
                             beta_scale=1.9 if max_radius > 0.9 else 0.8)
    _, X = simulate(p, n_rows + s - 1, seed=seed + 1)
    aug = augment(p)
    filtered = forward_filter(aug, p.Sigma, X)
    smoothed = backward_smooth(aug, filtered)
    mu, V, P, loglik = exact_filter(aug, p.Sigma, X)
    mean, cov, lag1 = exact_smoother(aug, mu, V, P)
    assert _rel_err(filtered.mu, mu) <= 1e-12
    assert _rel_err(np.stack([filtered[k].V for k in range(n_rows)]), V) <= 1e-12
    assert _rel_err(np.stack([filtered[k].P for k in range(n_rows)]), P) <= 1e-12
    assert _rel_err(smoothed.mean, mean) <= 1e-12
    assert _rel_err(smoothed.cov, cov) <= 1e-12
    if n_rows > 1:
        assert _rel_err(smoothed.lag1, lag1) <= 1e-12
    assert abs(filtered.log_likelihood() - loglik) <= 1e-12 * abs(loglik)
    assert log_likelihood_filter(aug, p.Sigma, X) == filtered.log_likelihood()


def test_steady_state_switch_engages_only_on_long_series():
    p = random_stable_params(m=4, r=2, s=2, seed=12)
    _, X = simulate(p, 2000, seed=13)
    aug = augment(p)
    long = forward_filter(aug, p.Sigma, X)
    assert long.covariances[-1].steady
    assert len(long.covariances) < 100
    # every later row reuses the covariance step of the switch
    assert long[len(X) - 2].covariance is long.covariances[-1]
    short = forward_filter(aug, p.Sigma, X[:6])
    assert not short.covariances[-1].steady
    assert len(short.covariances) == len(short)


def test_filtering_continues_from_a_batch_belief():
    p = random_stable_params(m=3, r=2, s=2, seed=14)
    _, X = simulate(p, 300, seed=15)
    aug = augment(p)
    whole = forward_filter(aug, p.Sigma, X)
    head = forward_filter(aug, p.Sigma, X[:150])
    belief = head[-1]
    for k, x in enumerate(X[150:], start=150 - p.s + 1):
        belief, mu, innovation = filter_step(aug, p.Sigma, belief, x)
        assert np.array_equal(mu, whole.mu[k])
        assert np.array_equal(innovation, whole.innovation[k])
