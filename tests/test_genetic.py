import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_minimize
from ppfa import BetaObjective, ConfigError, GaConfig, minimize, objective_f, objective_g


def ar1_population_objective(beta_star=0.6, n=1000.0):
    """Exact population moments of a unit-variance AR(1) latent."""
    g1 = beta_star
    moments = n * np.array([[1.0, g1], [g1, 1.0]])
    return BetaObjective(gamma=np.array([g1]), moments=moments, n=n)


def flat_objective(gamma_value=0.0):
    """All lagged statistics zero: f vanishes everywhere."""
    return BetaObjective(gamma=np.array([gamma_value]), moments=np.zeros((2, 2)), n=0.0)


class TestObjectiveF:
    def test_zero_at_true_root(self):
        obj = ar1_population_objective()
        assert objective_f(np.array([0.6]), obj) <= 1e-9

    def test_larger_away_from_root(self):
        obj = ar1_population_objective()
        assert objective_f(np.array([0.3]), obj) > objective_f(np.array([0.6]), obj)

    def test_flat_objective_is_zero_everywhere(self):
        obj = flat_objective()
        for beta in (-1.5, 0.0, 0.7, 2.0):
            assert objective_f(np.array([beta]), obj) == 0.0

    def test_pure_function(self):
        obj = ar1_population_objective()
        beta = np.array([0.41])
        assert objective_f(beta, obj) == objective_f(beta, obj)

    def test_ar2_population_root_is_zero(self):
        # population moments of a stable AR(2): the full-vector root must
        # zero the objective (exercises the cross-lag term)
        from ppfa import stationary_autocovariances
        beta = np.array([0.5, 0.2])
        gam = stationary_autocovariances(beta)
        g = np.concatenate([[1.0], gam])  # gamma_0, gamma_1, gamma_2
        n = 500.0
        moments = n * np.array([
            [g[0], g[1], g[2]],
            [g[1], g[0], g[1]],
            [g[2], g[1], g[0]],
        ])
        obj = BetaObjective(gamma=gam, moments=moments, n=n)
        assert objective_f(beta, obj) <= 1e-9
        assert objective_f(beta + 0.1, obj) > 1e-3


class TestObjectiveG:
    def test_equals_f_when_feasible(self):
        obj = ar1_population_objective()
        beta = np.array([0.5])
        assert objective_g(beta, obj, 10.0) == objective_f(beta, obj)

    def test_penalty_value_direct_substitution(self):
        # f == 0 everywhere, gamma = 1, beta = 2: g = 0 - 10 * (1 - 2) = 10
        obj = flat_objective(gamma_value=1.0)
        assert objective_g(np.array([2.0]), obj, 10.0) == pytest.approx(10.0)

    def test_penalty_monotone_in_lambda(self):
        obj = flat_objective(gamma_value=1.0)
        beta = np.array([1.5])
        assert objective_g(beta, obj, 20.0) >= objective_g(beta, obj, 10.0)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            objective_g(np.array([0.5]), ar1_population_objective(), 0.0)


class TestMinimize:
    def test_finds_known_root(self):
        obj = ar1_population_objective()
        result = minimize(obj, GaConfig(seed=1))
        assert abs(result.beta[0] - 0.6) <= 0.01
        assert result.feasible

    def test_flat_objective_returns_zero_in_box(self):
        obj = flat_objective()
        cfg = GaConfig(seed=2)
        result = minimize(obj, cfg)
        assert result.g_value == 0.0
        lo, hi = cfg.search_box
        assert lo <= result.beta[0] <= hi

    def test_deterministic_given_seed(self):
        obj = ar1_population_objective()
        a = minimize(obj, GaConfig(seed=3))
        b = minimize(obj, GaConfig(seed=3))
        assert np.array_equal(a.beta, b.beta)
        assert a.g_value == b.g_value
        assert np.array_equal(a.history, b.history)

    def test_best_so_far_never_increases(self):
        obj = ar1_population_objective()
        result = minimize(obj, GaConfig(seed=4))
        assert np.all(np.diff(result.history) <= 0)

    def test_warm_start_is_an_upper_bound(self):
        obj = ar1_population_objective()
        cfg = GaConfig(seed=5, generations=5, population_size=8)
        warm = np.array([0.6])  # exact root
        result = minimize(obj, cfg, warm_start=warm)
        assert result.g_value <= objective_g(warm, obj, cfg.lambda_penalty) + 1e-15

    def test_result_respects_search_box(self):
        obj = ar1_population_objective()
        cfg = GaConfig(seed=6, search_box=(-0.1, 0.1))
        result = minimize(obj, cfg)
        assert -0.1 <= result.beta[0] <= 0.1

    def test_seed_override_argument(self):
        obj = ar1_population_objective()
        cfg = GaConfig(seed=7)
        a = minimize(obj, cfg, seed=99)
        b = minimize(obj, cfg, seed=99)
        c = minimize(obj, cfg, seed=100)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.history, b.history)
        # a different seed draws a different initial population
        assert a.history[0] != c.history[0]


def random_objective(rng, s, dead_lags):
    """Random PSD lagged moments. A dead lag has zero gamma and zero moments,
    so f ignores its gene: individuals that differ only there tie, and the
    tournament's tie rule decides which one breeds."""
    L = rng.normal(size=(s + 1, s + 1))
    n = float(rng.uniform(1.0, 1000.0))
    moments = n * (L @ L.T) / (s + 1)
    moments = 0.5 * (moments + moments.T)
    gamma = rng.uniform(-0.95, 0.95, size=s)
    for j, dead in enumerate(dead_lags, start=1):
        if dead:
            moments[j, :] = 0.0
            moments[:, j] = 0.0
            gamma[j - 1] = 0.0
    return BetaObjective(gamma=gamma, moments=moments, n=n)


RATES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 0.95))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_minimize_matches_per_pair_reference_bitwise(data):
    s = data.draw(st.integers(1, 4), label="s")
    population_size = data.draw(st.integers(2, 61), label="population_size")
    cfg = GaConfig(
        population_size=population_size,
        generations=data.draw(st.integers(1, 40), label="generations"),
        crossover_rate=data.draw(RATES, label="crossover_rate"),
        mutation_rate=data.draw(RATES, label="mutation_rate"),
        mutation_scale=data.draw(st.floats(0.01, 1.0), label="mutation_scale"),
        lambda_penalty=data.draw(st.sampled_from([1.0, 1e3]), label="lambda_penalty"),
        elitism_count=data.draw(st.integers(0, min(2, population_size - 1)), label="elitism"),
        search_box=data.draw(
            st.sampled_from([(-2.0, 2.0), (-0.3, 0.3), (-0.05, 0.05)]), label="search_box"
        ),
    )
    dead = data.draw(st.lists(st.booleans(), min_size=s, max_size=s), label="dead_lags")
    obj = random_objective(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), s, dead)
    warm = data.draw(
        st.none() | st.lists(st.floats(-3.0, 3.0), min_size=s, max_size=s), label="warm_start"
    )
    seed = data.draw(st.none() | st.integers(0, 2**32 - 1), label="seed")

    got = minimize(obj, cfg, warm_start=warm, seed=seed)
    want = reference_minimize(obj, cfg, warm_start=warm, seed=seed)
    assert got.beta.tobytes() == want.beta.tobytes()
    assert np.float64(got.g_value).tobytes() == np.float64(want.g_value).tobytes()
    assert got.history.tobytes() == want.history.tobytes()
    assert got.feasible is want.feasible


class TestConfigValidation:
    def test_bad_population(self):
        with pytest.raises(ConfigError):
            GaConfig(population_size=1)

    def test_bad_elitism(self):
        with pytest.raises(ConfigError):
            GaConfig(population_size=4, elitism_count=4)

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(ConfigError):
            GaConfig(mutation_rate=-0.1)

    def test_bad_lambda(self):
        with pytest.raises(ConfigError):
            GaConfig(lambda_penalty=0.0)

    def test_bad_box(self):
        with pytest.raises(ConfigError):
            GaConfig(search_box=(1.0, -1.0))

    @pytest.mark.parametrize("kwargs", [
        {"search_box": (float("nan"), 1.0)},
        {"search_box": (-1.0, float("inf"))},
        {"search_box": (-1e308, 1e308)},
        {"mutation_scale": float("nan")},
        {"mutation_scale": float("inf")},
        {"lambda_penalty": float("nan")},
        {"lambda_penalty": float("inf")},
        {"crossover_rate": float("nan")},
        {"mutation_rate": float("nan")},
    ])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="finite"):
            GaConfig(**kwargs)

    def test_moments_must_be_psd(self):
        with pytest.raises(ConfigError):
            BetaObjective(gamma=np.array([0.5]), moments=np.array([[1.0, 2.0], [2.0, 1.0]]), n=1.0)
