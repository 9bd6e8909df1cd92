import numpy as np
import pytest
import scipy.stats

from ppfa import (
    ConfigError,
    ControlLimits,
    DataError,
    DynamicsCovariance,
    ModelParams,
    MonitorReport,
    MonitorSession,
    NumericsError,
    WhiteningTransform,
    augment,
    calibrate,
    estimate_D,
    filter_step,
    fit_whitening,
    kde_limit,
    random_stable_params,
    simulate,
)
from ppfa.kalman import SmoothedMoments
from ppfa.training import e_step


def static_moments(means, covs, lag1s, r, s):
    return SmoothedMoments(
        mean=np.asarray(means, float),
        cov=np.asarray(covs, float),
        lag1=np.asarray(lag1s, float),
        r=r, s=s,
    )


def identity_session(params, dynamics, limits):
    """Session on data that is already white (identity whitening)."""
    return MonitorSession(params, WhiteningTransform.identity(params.m), dynamics, limits)


def static_session(m, D=None):
    """Session on a static model (B = 0, H = I, Sigma = 3) with limits that
    never fire. The predicted state covariance is I and the innovation
    covariance 4 I, whose Cholesky factor 2 I is exact, so every row's latent
    estimate is exactly a quarter of the row and its innovation is the row
    itself: T2 = |x/4|^2, SPE = |x|^2, and DI is the D-norm of a quarter of
    the row-to-row difference."""
    params = ModelParams.from_dynamics(B=np.zeros((1, m)), H=np.eye(m), Sigma=np.full(m, 3.0))
    dynamics = DynamicsCovariance(D=np.eye(m) if D is None else D)
    limits = ControlLimits(t2=1e9, spe=1e9, di=1e9, alpha=0.99)
    return identity_session(params, dynamics, limits)


def first_row(m, x):
    return static_session(m).score(np.array([x], dtype=float))


class TestPointStatistics:
    def test_t2_values(self):
        assert first_row(3, [0.0, 0.0, 0.0]).t2[0] == 0.0
        assert first_row(3, [0.0, 4.0, 0.0]).t2[0] == 1.0
        assert first_row(3, [4.0, 8.0, 8.0]).t2[0] == 9.0

    def test_spe_values(self):
        assert first_row(2, [0.0, 0.0]).spe[0] == 0.0
        assert first_row(2, [3.0, 4.0]).spe[0] == 25.0

    def test_di_values(self):
        def second_di(x, D=None):
            return static_session(2, D).score(np.array([[0.0, 0.0], x])).di[1]

        assert second_di([0.0, 0.0]) == 0.0
        assert second_di([4.0, 0.0]) == pytest.approx(1.0)
        assert second_di([8.0, 0.0], D=2 * np.eye(2)) == pytest.approx(2.0)

    def test_di_invariant_under_recoordinatization(self):
        rng = np.random.default_rng(0)
        d = 4
        D = rng.normal(size=(d, d))
        D = D @ D.T + np.eye(d)
        delta = rng.normal(size=d)
        A = rng.normal(size=(d, d)) + 2 * np.eye(d)
        base = DynamicsCovariance(D=0.5 * (D + D.T)).mahalanobis(delta)
        mapped_D = A @ D @ A.T
        mapped = DynamicsCovariance(D=0.5 * (mapped_D + mapped_D.T)).mahalanobis(A @ delta)
        assert mapped == pytest.approx(base, abs=1e-8)


class TestEstimateD:
    def test_static_latent_gives_ridge_only(self):
        # identical consecutive states: difference covariance is exactly zero
        T, d = 5, 2
        mean = np.ones((T, d))
        cov = np.zeros((T, d, d))
        lag1 = np.array([np.outer(mean[k + 1], mean[k]) for k in range(T - 1)])
        D = estimate_D(static_moments(mean, cov, lag1, r=2, s=1))
        assert np.allclose(D.D, D.D[0, 0] * np.eye(d))
        assert np.linalg.eigvalsh(D.D).min() >= 1e-10

    def test_white_latent_gives_two_identity(self):
        T, d = 6, 2
        mean = np.zeros((T, d))
        cov = np.array([np.eye(d)] * T)
        lag1 = np.zeros((T - 1, d, d))
        D = estimate_D(static_moments(mean, cov, lag1, r=2, s=1))
        assert np.allclose(D.D, 2 * np.eye(d))

    def test_simulated_ar1_matches_stationary_difference_variance(self):
        # Var(t_k - t_{k-1}) = 2 (1 - gamma_1) = 0.8 for beta = 0.6
        p = ModelParams.from_dynamics(
            B=np.array([[0.6]]), H=np.ones((4, 1)), Sigma=np.full(4, 0.01)
        )
        _, X = simulate(p, 20_000, seed=1)
        moments = e_step(p, X)
        D = estimate_D(moments)
        assert D.D[0, 0] == pytest.approx(0.8, abs=0.05)


class TestKdeLimit:
    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(100_000)
        psi95, _ = kde_limit(values, 0.95)
        assert psi95 == pytest.approx(scipy.stats.norm.ppf(0.95), abs=0.05)

    def test_median_at_half(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(5000)
        psi, bw = kde_limit(values, 0.5)
        assert abs(psi - np.median(values)) < 2 * bw

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        values = rng.gamma(3.0, size=2000)
        psi, _ = kde_limit(values, 0.9)
        psi_shifted, _ = kde_limit(values + 7.5, 0.9)
        assert psi_shifted == pytest.approx(psi + 7.5, abs=1e-6)

    def test_identical_values_error(self):
        with pytest.raises(NumericsError):
            kde_limit(np.full(200, 3.0), 0.95)

    def test_too_few_values_error(self):
        with pytest.raises(ConfigError):
            kde_limit(np.arange(50, dtype=float), 0.95)


@pytest.fixture(scope="module")
def trained_setup():
    """Small true-parameter monitoring setup on whitened-scale data."""
    params = random_stable_params(m=4, r=2, s=2, seed=5, noise_range=(0.3, 0.6))
    _, X_train = simulate(params, 3000, seed=6)
    limits, dynamics = calibrate(params, X_train, alpha=0.99)
    return params, X_train, limits, dynamics


@pytest.mark.parametrize("t2", [float("nan"), float("inf"), 0.0, -1.0])
def test_control_limits_must_be_finite_and_positive(t2):
    with pytest.raises(ConfigError):
        ControlLimits(t2=t2, spe=1.0, di=1.0, alpha=0.99)


class TestCalibrate:
    def test_alpha_ordering(self, trained_setup):
        params, X_train, _, _ = trained_setup
        lim95, _ = calibrate(params, X_train, alpha=0.95)
        lim99, _ = calibrate(params, X_train, alpha=0.99)
        assert lim95.t2 <= lim99.t2
        assert lim95.spe <= lim99.spe
        assert lim95.di <= lim99.di

    def test_self_calibration_exceedance(self, trained_setup):
        params, X_train, limits, dynamics = trained_setup
        report = identity_session(params, dynamics, limits).score(X_train)
        rates = report.alarm_rates()
        for key in ("t2", "spe", "di"):
            assert rates[key] <= 0.02, (key, rates)

    def test_alpha_validated(self, trained_setup):
        params, X_train, _, _ = trained_setup
        with pytest.raises(ConfigError):
            calibrate(params, X_train, alpha=1.5)


class TestScoreStream:
    def test_replay_training_matches_confidence_level(self, trained_setup):
        params, X_train, limits, dynamics = trained_setup
        report = identity_session(params, dynamics, limits).score(X_train)
        n = len(X_train)
        tol = 3 * np.sqrt(0.01 * 0.99 / n)
        rates = report.alarm_rates()
        for key in ("t2", "spe", "di"):
            assert abs(rates[key] - 0.01) <= tol + 0.005, (key, rates)

    def test_batch_equals_chunked_bitwise(self, trained_setup):
        params, _, limits, dynamics = trained_setup
        _, X_new = simulate(params, 400, seed=7)
        ident = WhiteningTransform.identity(params.m)
        batch = MonitorSession(params, ident, dynamics, limits).score(X_new)
        session = MonitorSession(params, ident, dynamics, limits)
        chunks = [session.score(X_new[:150]), session.score(X_new[150:151]),
                  session.score(X_new[151:])]
        merged = MonitorReport.concat(chunks)
        assert np.array_equal(batch.t2, merged.t2)
        assert np.array_equal(batch.spe, merged.spe)
        assert np.array_equal(batch.di, merged.di)
        assert np.array_equal(batch.flag_di, merged.flag_di)
        assert batch.verdict == merged.verdict
        assert np.array_equal(batch.burn_in, merged.burn_in)

    def test_one_row_calls_equal_batch_bitwise_with_fitted_whitening(self, trained_setup):
        params, _, limits, dynamics = trained_setup
        _, X_new = simulate(params, 300, seed=13)
        # raw units far from white, so the whitening is not the identity
        X_raw = X_new @ np.array([[2.0, 0.3, 0.0, 0.1], [0.0, 1.5, 0.4, 0.0],
                                  [0.2, 0.0, 0.7, 0.0], [0.0, 0.1, 0.0, 3.0]]) + 5.0
        whitening = fit_whitening(X_raw)
        batch = MonitorSession(params, whitening, dynamics, limits).score(X_raw)
        session = MonitorSession(params, whitening, dynamics, limits)
        merged = MonitorReport.concat([session.score(X_raw[i:i + 1]) for i in range(len(X_raw))])
        for field in ("t2", "spe", "di", "flag_t2", "flag_spe", "flag_di", "burn_in"):
            assert np.array_equal(getattr(batch, field), getattr(merged, field)), field
        assert batch.verdict == merged.verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_is_data_error(self, trained_setup, bad):
        params, _, limits, dynamics = trained_setup
        X = np.zeros((5, params.m))
        X[3, 2] = bad
        session = MonitorSession(params, WhiteningTransform.identity(params.m), dynamics, limits)
        with pytest.raises(DataError, match="row 3, column 2"):
            session.score(X)

    def test_zero_input_static_model_never_fires_t2(self):
        params = ModelParams.from_dynamics(
            B=np.zeros((1, 2)), H=np.eye(2), Sigma=np.ones(2)
        )
        limits = ControlLimits(t2=1e-6, spe=1e-6, di=1e-6, alpha=0.99)
        dynamics = DynamicsCovariance(D=np.eye(2))
        report = identity_session(params, dynamics, limits).score(np.zeros((50, 2)))
        assert np.all(report.t2 == 0.0)
        assert not report.flag_t2.any()

    def test_flags_are_pure_threshold_comparisons(self, trained_setup):
        params, _, limits, dynamics = trained_setup
        _, X_new = simulate(params, 300, seed=8)
        report = identity_session(params, dynamics, limits).score(X_new)
        assert np.array_equal(report.flag_t2, report.t2 > limits.t2)
        assert np.array_equal(report.flag_spe, report.spe > limits.spe)
        assert np.array_equal(report.flag_di, report.di > limits.di)
        assert np.all(report.t2 >= 0) and np.all(report.spe >= 0) and np.all(report.di >= 0)

    def test_verdict_rules(self):
        params = ModelParams.from_dynamics(B=np.zeros((1, 1)), H=np.ones((1, 1)), Sigma=np.ones(1))
        dynamics = DynamicsCovariance(D=np.eye(1))
        # thresholds chosen so each statistic can be forced independently
        high = ControlLimits(t2=1e9, spe=1e9, di=1e9, alpha=0.99)
        report = identity_session(params, dynamics, high).score(np.ones((5, 1)))
        assert set(report.verdict) == {"normal"}
        low_spe = ControlLimits(t2=1e9, spe=1e-9, di=1e9, alpha=0.99)
        report = identity_session(params, dynamics, low_spe).score(np.ones((5, 1)))
        assert report.verdict[1] == "correlation-break"
        low_t2 = ControlLimits(t2=1e-9, spe=1e9, di=1e9, alpha=0.99)
        report = identity_session(params, dynamics, low_t2).score(np.ones((5, 1)))
        assert report.verdict[1] == "dynamic-or-shift"
        low_both = ControlLimits(t2=1e-9, spe=1e-9, di=1e9, alpha=0.99)
        report = identity_session(params, dynamics, low_both).score(np.ones((5, 1)))
        assert report.verdict[1] == "both"

    def test_first_sample_di_is_zero_and_burn_in_marked(self, trained_setup):
        params, _, limits, dynamics = trained_setup
        _, X_new = simulate(params, 20, seed=9)
        report = identity_session(params, dynamics, limits).score(X_new)
        assert report.di[0] == 0.0
        assert np.array_equal(report.burn_in, np.arange(20) < params.s)

    def test_dimension_mismatch_rejected(self, trained_setup):
        params, _, limits, dynamics = trained_setup
        with pytest.raises(ConfigError):
            identity_session(params, dynamics, limits).score(np.zeros((10, params.m + 1)))


class TestFilterStepOnline:
    def test_zero_innovation_when_prediction_exact(self):
        p = random_stable_params(m=2, r=1, s=1, seed=10)
        aug = augment(p)
        belief, _, _ = filter_step(aug, p.Sigma, None, np.array([0.5, -0.2]))
        prediction = aug.Hk @ (aug.Phi @ belief.mu)
        _, _, innovation = filter_step(aug, p.Sigma, belief, prediction)
        assert np.max(np.abs(innovation)) < 1e-14

    def test_first_step_conjugate(self):
        p = ModelParams.from_dynamics(B=np.zeros((1, 1)), H=np.ones((1, 1)), Sigma=np.ones(1))
        limits = ControlLimits(t2=1e9, spe=1e9, di=1e9, alpha=0.99)
        session = identity_session(p, DynamicsCovariance(D=np.eye(1)), limits)
        report = session.score(np.array([[1.0]]))
        assert report.t2[0] == pytest.approx(0.25)  # estimate x/2
        assert report.spe[0] == pytest.approx(1.0)  # innovation is x itself
        assert report.di[0] == 0.0


def test_mean_spe_under_pure_noise_model():
    # H = 0 model: innovations are the observations; mean SPE is m
    m = 3
    params = ModelParams.from_dynamics(B=np.zeros((1, 1)), H=np.zeros((m, 1)), Sigma=np.ones(m))
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20_000, m))
    limits = ControlLimits(t2=1e9, spe=1e9, di=1e9, alpha=0.99)
    report = identity_session(params, DynamicsCovariance(D=np.eye(1)), limits).score(X)
    assert report.spe.mean() == pytest.approx(m, rel=0.05)


def test_report_csv_round_trip(tmp_path, trained_setup):
    params, _, limits, dynamics = trained_setup
    _, X_new = simulate(params, 50, seed=12)
    report = identity_session(params, dynamics, limits).score(X_new)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,T2,SPE,DI,flag_T2,flag_SPE,flag_DI,verdict,burn_in"
    assert len(lines) == 51
    cells = lines[1].split(",")
    assert float(cells[1]) == report.t2[0]
