import numpy as np
import pytest

from conftest import GaussianOracle
from ppfa import (
    ConfigError,
    DataError,
    EmConfig,
    ModelParams,
    augment,
    fit,
    init_params,
    log_likelihood,
    random_stable_params,
    simulate,
)
from ppfa.kalman import SmoothedMoments
from ppfa.training import e_step, lagged_moment_matrix, update_H, update_Sigma, update_beta


def deterministic_moments(means, s=1, r=None):
    """SmoothedMoments with point-mass posteriors (zero covariance)."""
    means = np.asarray(means, dtype=float)
    T, d = means.shape
    r = r if r is not None else d // s
    cov = np.zeros((T, d, d))
    lag1 = np.array([np.outer(means[k + 1], means[k]) for k in range(T - 1)])
    return SmoothedMoments(mean=means, cov=cov, lag1=lag1, r=r, s=s)


class TestInitParams:
    def test_initial_params_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 5))
        cfg = EmConfig(r=2, s=2, seed=1)
        p = init_params(X, cfg)
        assert p.m == 5 and p.r == 2 and p.s == 2
        assert np.max(p.unit_variance_residual()) <= 1e-6
        assert np.all(np.abs(p.B) < 0.3)

    def test_white_noise_sigma_matches_residual_fraction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20_000, 6))
        cfg = EmConfig(r=2, s=1, seed=2)
        p = init_params(X, cfg)
        # direct residual-variance oracle for the same directions is implied:
        # white noise splits variance evenly, leaving about 1 - explained/m
        centered = X - X.mean(axis=0)
        expected = centered.var(axis=0) - (p.H ** 2).sum(axis=1)
        assert np.max(np.abs(p.Sigma - expected)) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        cfg = EmConfig(r=2, s=2, seed=5)
        a = init_params(X, cfg)
        b = init_params(X, cfg)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.H, b.H)

    def test_r_exceeding_m_rejected(self):
        with pytest.raises(ConfigError):
            init_params(np.zeros((100, 2)), EmConfig(r=3, s=1))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_em_config_rejects_bad_loglik_rel_tol(tol):
    with pytest.raises(ConfigError, match="loglik_rel_tol"):
        EmConfig(r=1, s=1, loglik_rel_tol=tol)


class TestEStep:
    def test_conjugate_static_posterior(self):
        # B=0, H=I, Sigma=I: posterior mean is x/2 coordinate-wise
        p = ModelParams.from_dynamics(B=np.zeros((1, 3)), H=np.eye(3), Sigma=np.ones(3))
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        moments = e_step(p, X)
        assert np.max(np.abs(moments.mean - X / 2)) < 1e-12

    def test_noiseless_limit_recovers_pseudoinverse(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(5, 2))
        p = ModelParams.from_dynamics(B=np.zeros((1, 2)), H=H, Sigma=np.full(5, 1e-10))
        _, X = simulate(p, 40, seed=6)
        moments = e_step(p, X)
        recon = X @ np.linalg.pinv(H).T
        assert np.max(np.abs(moments.mean - recon)) < 1e-4

    def test_matches_oracle(self):
        p = random_stable_params(m=3, r=2, s=2, seed=7)
        T = 6
        _, X = simulate(p, T + p.s - 1, seed=8)
        oracle = GaussianOracle(p, X, T)
        moments = e_step(p, X)
        for k in range(T):
            mean_s, cov_s = oracle.smoothed(k)
            assert np.max(np.abs(moments.mean[k] - mean_s)) < 1e-8
            assert np.max(np.abs(moments.cov[k] - cov_s)) < 1e-8


class TestUpdateH:
    def test_scalar_least_squares(self):
        # two steps with t = 1, 2 and x = 2, 4: H = (2 + 8) / (1 + 4) = 2
        moments = deterministic_moments(np.array([[1.0], [2.0]]))
        H = update_H(moments, np.array([[2.0], [4.0]]))
        assert H[0, 0] == pytest.approx(2.0)

    def test_identity_second_moment_reduces_to_cross_covariance(self):
        rng = np.random.default_rng(9)
        T, r, m = 8, 2, 3
        means = rng.normal(scale=1e-3, size=(T, r))
        outer_sum = sum(np.outer(mu, mu) for mu in means)
        cov = np.array([(np.eye(r) - outer_sum) / T for _ in range(T)])
        lag1 = np.array([np.outer(means[k + 1], means[k]) for k in range(T - 1)])
        moments = SmoothedMoments(mean=means, cov=cov, lag1=lag1, r=r, s=1)
        X = rng.normal(size=(T, m))
        H = update_H(moments, X)
        assert np.max(np.abs(H - X.T @ means)) < 1e-10

    def test_collapsed_latent_reported_by_index(self):
        from ppfa import NumericsError
        means = np.zeros((5, 2))
        means[:, 0] = np.arange(5.0)  # latent 1 carries no moment mass
        moments = SmoothedMoments(
            mean=means, cov=np.zeros((5, 2, 2)),
            lag1=np.zeros((4, 2, 2)), r=2, s=1,
        )
        with pytest.raises(NumericsError, match=r"\[1\]"):
            update_H(moments, np.zeros((5, 3)))

    def test_recovers_emission_from_exact_e_step(self):
        p = random_stable_params(m=6, r=2, s=1, seed=10, noise_range=(0.01, 0.02))
        _, X = simulate(p, 10_000, seed=11)
        moments = e_step(p, X)
        H = update_H(moments, X)
        for col in range(2):
            direct = H[:, col]
            truth = p.H[:, col]
            err = min(np.max(np.abs(direct - truth)), np.max(np.abs(direct + truth)))
            assert err < 0.05


class TestUpdateSigma:
    def test_exact_fit_floors_at_tiny_value(self):
        means = np.array([[1.0], [2.0], [-1.0]])
        moments = deterministic_moments(means)
        H = np.array([[3.0]])
        X = means * 3.0
        sigma = update_Sigma(moments, X, H)
        assert sigma[0] == pytest.approx(1e-8)

    def test_zero_emission_gives_mean_square(self):
        rng = np.random.default_rng(12)
        means = rng.normal(size=(20, 1))
        moments = deterministic_moments(means)
        X = rng.normal(size=(20, 2))
        sigma = update_Sigma(moments, X, np.zeros((2, 1)))
        assert np.allclose(sigma, np.mean(X ** 2, axis=0))

    def test_recovers_noise_level(self):
        p = random_stable_params(m=4, r=2, s=1, seed=13, noise_range=(0.25, 0.25))
        _, X = simulate(p, 10_000, seed=14)
        moments = e_step(p, X)
        sigma = update_Sigma(moments, X, update_H(moments, X))
        assert np.all(sigma > 0.2) and np.all(sigma < 0.3)


class TestUpdateBeta:
    def _moments_from_population(self, gamma_by_lag, T=500, s=1):
        """Moments whose lagged products equal exact population values."""
        d = s
        cov = np.empty((T, d, d))
        for k in range(T):
            cov[k] = np.array([[gamma_by_lag[abs(a - b)] for b in range(s)] for a in range(s)])
        lag1 = np.empty((T - 1, d, d))
        for k in range(T - 1):
            lag1[k] = np.array([[gamma_by_lag[abs(a - b - 1)] for b in range(s)] for a in range(s)])
        mean = np.zeros((T, d))
        return SmoothedMoments(mean=mean, cov=cov, lag1=lag1, r=1, s=s)

    def test_recovers_ar1_coefficient_and_noise(self):
        moments = self._moments_from_population({0: 1.0, 1: 0.6})
        prev = ModelParams.from_dynamics(
            B=np.array([[0.1]]), H=np.array([[1.0]]), Sigma=np.array([1.0])
        )
        cfg = EmConfig(r=1, s=1, seed=15)
        B, Gamma, warnings = update_beta(moments, prev, cfg)
        assert abs(B[0, 0] - 0.6) <= 0.02
        assert abs(Gamma[0] - 0.64) <= 0.03
        assert not warnings

    def test_white_latent_gives_zero_beta_unit_noise(self):
        moments = self._moments_from_population({0: 1.0, 1: 0.0})
        prev = ModelParams.from_dynamics(
            B=np.array([[0.2]]), H=np.array([[1.0]]), Sigma=np.array([1.0])
        )
        cfg = EmConfig(r=1, s=1, seed=16)
        B, Gamma, _ = update_beta(moments, prev, cfg)
        assert abs(B[0, 0]) <= 0.02
        assert abs(Gamma[0] - 1.0) <= 0.03

    def test_deterministic(self):
        moments = self._moments_from_population({0: 1.0, 1: 0.6})
        prev = ModelParams.from_dynamics(
            B=np.array([[0.1]]), H=np.array([[1.0]]), Sigma=np.array([1.0])
        )
        cfg = EmConfig(r=1, s=1, seed=17)
        out1 = update_beta(moments, prev, cfg, iteration=3)
        out2 = update_beta(moments, prev, cfg, iteration=3)
        assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])

    def test_infeasible_search_keeps_previous_coefficients(self):
        # autocovariance estimate of 1 and a search box above 1 make every
        # candidate violate the noise-variance constraint
        from ppfa import GaConfig
        moments = self._moments_from_population({0: 1.0, 1: 1.0})
        prev = ModelParams.from_dynamics(
            B=np.array([[0.3]]), H=np.array([[1.0]]), Sigma=np.array([1.0])
        )
        ga = GaConfig(search_box=(1.5, 2.0), population_size=20, generations=10, seed=0)
        cfg = EmConfig(r=1, s=1, ga=ga, seed=0)
        B, Gamma, warnings = update_beta(moments, prev, cfg)
        assert warnings, "expected an infeasibility warning"
        assert B[0, 0] == 0.3
        assert Gamma[0] == pytest.approx(1 - 0.09)

    def test_lagged_moment_matrix_is_psd(self):
        p = random_stable_params(m=3, r=2, s=3, seed=18)
        _, X = simulate(p, 100, seed=19)
        moments = e_step(p, X)
        for latent in range(2):
            M = lagged_moment_matrix(moments, latent)
            assert np.max(np.abs(M - M.T)) < 1e-8
            assert np.linalg.eigvalsh(M).min() > -1e-8 * max(1.0, np.trace(M))


class TestLogLikelihood:
    def test_static_single_sample(self):
        p = ModelParams.from_dynamics(
            B=np.array([[0.0]]), H=np.array([[0.0]]), Sigma=np.array([2.0])
        )
        x = 0.7
        ll = log_likelihood(p, np.array([[x]]))
        expected = -0.5 * (np.log(2 * np.pi * 2.0) + x ** 2 / 2.0)
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_consistent_scaling_shifts_by_jacobian(self):
        p = random_stable_params(m=3, r=1, s=1, seed=20)
        _, X = simulate(p, 50, seed=21)
        c = 2.5
        scaled = ModelParams(B=p.B, H=c * p.H, Gamma=p.Gamma, Sigma=c ** 2 * p.Sigma)
        ll = log_likelihood(p, X)
        ll_scaled = log_likelihood(scaled, c * X)
        n_scored = X.shape[0] - p.s + 1
        assert ll_scaled == pytest.approx(ll - n_scored * p.m * np.log(c), abs=1e-8)

    def test_matches_oracle(self):
        p = random_stable_params(m=2, r=1, s=2, seed=22)
        T = 6
        _, X = simulate(p, T + p.s - 1, seed=23)
        oracle = GaussianOracle(p, X, T)
        assert log_likelihood(p, X) == pytest.approx(oracle.log_likelihood(), abs=1e-8)


@pytest.fixture(scope="module")
def small_data():
    p = random_stable_params(m=4, r=1, s=1, seed=24, noise_range=(0.2, 0.4))
    _, X = simulate(p, 600, seed=25)
    X = X - X.mean(axis=0)
    return X / X.std(axis=0, ddof=1)


class TestFit:
    def test_single_iteration_trace(self, small_data):
        cfg = EmConfig(r=1, s=1, max_iterations=1, seed=26)
        params, trace = fit(small_data, cfg)
        assert len(trace) == 1

    def test_deterministic_given_seed(self, small_data):
        cfg = EmConfig(r=1, s=1, max_iterations=3, seed=27)
        p1, t1 = fit(small_data, cfg)
        p2, t2 = fit(small_data, cfg)
        assert np.array_equal(p1.B, p2.B)
        assert np.array_equal(p1.H, p2.H)
        assert np.array_equal(t1.logliks(), t2.logliks())

    def test_returned_model_at_least_as_good_as_init(self, small_data):
        cfg = EmConfig(r=1, s=1, max_iterations=5, seed=28)
        params, trace = fit(small_data, cfg)
        assert log_likelihood(params, small_data) >= trace.init_loglik

    def test_returned_model_satisfies_constraint(self, small_data):
        cfg = EmConfig(r=1, s=1, max_iterations=3, seed=29)
        params, _ = fit(small_data, cfg)
        assert np.max(params.unit_variance_residual()) <= 1e-6

    def test_trace_logliks_equal_fresh_log_likelihoods(self, small_data):
        cfg = EmConfig(r=1, s=1, max_iterations=3, loglik_rel_tol=1e-15, seed=30)
        _, trace = fit(small_data, cfg)
        # replay the EM iterates with the public steps
        params = init_params(small_data, cfg)
        assert trace.init_loglik == pytest.approx(log_likelihood(params, small_data), rel=1e-12)
        for row in trace.rows:
            moments = e_step(params, small_data)
            H = update_H(moments, small_data)
            Sigma = update_Sigma(moments, small_data, H)
            B, Gamma, _ = update_beta(moments, params, cfg, iteration=row.iteration)
            params = ModelParams(B=B, H=H, Gamma=Gamma, Sigma=Sigma)
            assert np.array_equal(params.B, row.beta)
            assert row.loglik == pytest.approx(log_likelihood(params, small_data), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input_is_data_error(self, small_data, bad):
        X = small_data.copy()
        X[17, 1] = bad
        with pytest.raises(DataError, match="row 17, column 1"):
            fit(X, EmConfig(r=1, s=1, max_iterations=1))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ConfigError):
            fit(np.zeros((15, 2)), EmConfig(r=1, s=2))
