import numpy as np
import pytest

from ppfa import (
    ConfigError,
    EmConfig,
    GaConfig,
    ModelParams,
    MonitorReport,
    SelectionGrid,
    inject_step_fault,
    select,
    simulate,
)


def alarm_report(alarms, burn_in=0):
    """Report whose any-statistic alarm is raised exactly on the given rows,
    with the first ``burn_in`` rows marked as burn-in."""
    alarms = np.asarray(alarms, dtype=bool)
    n = alarms.shape[0]
    quiet = np.zeros(n, dtype=bool)
    return MonitorReport(
        t2=np.zeros(n), spe=np.zeros(n), di=np.zeros(n),
        flag_t2=alarms & (np.arange(n) % 2 == 0), flag_spe=alarms & (np.arange(n) % 2 == 1),
        flag_di=quiet, verdict=["normal"] * n, burn_in=np.arange(n) < burn_in,
    )


def fault_rate(normal_alarms, fault_alarms, burn_in=0):
    """FDR as select reads it: the alarm rate from the fault onset on."""
    report = alarm_report(list(normal_alarms) + list(fault_alarms), burn_in)
    return report.alarm_rates(slice(len(normal_alarms), None))["any"]


def false_alarm_rate(normal_alarms, fault_alarms, burn_in=0):
    """FAR as select reads it: the alarm rate before the fault onset."""
    report = alarm_report(list(normal_alarms) + list(fault_alarms), burn_in)
    return report.alarm_rates(slice(0, len(normal_alarms)))["any"]


class TestRates:
    def test_fdr_values(self):
        assert fault_rate([0, 1], [1] * 9 + [0]) == 9 / 10
        assert fault_rate([1], [1] * 5) == 1.0
        assert fault_rate([1], [0] * 5) == 0.0

    def test_far_values(self):
        assert false_alarm_rate([1] * 2 + [0] * 98, [1]) == 2 / 100
        assert false_alarm_rate([0] * 10, [1]) == 0.0
        assert false_alarm_rate([1] * 3, [0]) == 1.0
        # burn-in rows count in neither rate
        assert false_alarm_rate([1, 1, 0, 0], [1], burn_in=2) == 0.0

    def test_empty_denominators_error(self):
        with pytest.raises(ConfigError):
            fault_rate([0, 1], [])
        with pytest.raises(ConfigError):
            false_alarm_rate([1, 0], [1], burn_in=2)


class TestInjectStepFault:
    def test_adds_step_in_window_only(self):
        X = np.zeros((10, 2))
        out = inject_step_fault(X, np.array([1]), np.array([2.5]), onset=4, end=8)
        assert np.all(out[:4] == 0.0)
        assert np.all(out[8:] == 0.0)
        assert np.all(out[4:8, 1] == 2.5)
        assert np.all(out[4:8, 0] == 0.0)
        assert np.all(X == 0.0)  # input untouched

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            inject_step_fault(np.zeros((10, 2)), np.array([0]), np.array([1.0]), onset=8, end=20)


def small_em(seed=0):
    ga = GaConfig(population_size=30, generations=40, seed=seed)
    return EmConfig(r=1, s=1, max_iterations=5, ga=ga, seed=seed)


@pytest.fixture(scope="module")
def normal_data():
    params = ModelParams.from_dynamics(
        B=np.array([[0.7, 0.5]]),
        H=np.random.default_rng(1).normal(scale=0.8, size=(4, 2)),
        Sigma=np.full(4, 0.3),
    )
    _, X = simulate(params, 1500, seed=2)
    return X


class TestSelect:
    def test_single_pair_grid_returns_that_pair(self, normal_data):
        grid = SelectionGrid(r_candidates=(1,), s_candidates=(1,))
        result = select(normal_data, grid, small_em(), alpha=0.99, seed=3)
        assert (result.r, result.s) == (1, 1)
        assert len(result.scoreboard) == 1

    def test_scoreboard_row_count(self, normal_data):
        grid = SelectionGrid(r_candidates=(1, 2), s_candidates=(1, 2))
        result = select(normal_data, grid, small_em(), alpha=0.99, seed=4)
        assert len(result.scoreboard) == 4
        for row in result.scoreboard:
            if row.skipped is None:
                assert 0.0 <= row.fdr <= 1.0
                assert 0.0 <= row.far <= 1.0

    def test_deterministic_given_seed(self, normal_data):
        grid = SelectionGrid(r_candidates=(1, 2), s_candidates=(1,))
        a = select(normal_data, grid, small_em(), alpha=0.99, seed=5)
        b = select(normal_data, grid, small_em(), alpha=0.99, seed=5)
        assert (a.r, a.s) == (b.r, b.s)
        for ra, rb in zip(a.scoreboard, b.scoreboard):
            assert (ra.fdr, ra.far, ra.loglik) == (rb.fdr, rb.far, rb.loglik)

    def test_selected_entry_is_maximal(self, normal_data):
        grid = SelectionGrid(r_candidates=(1, 2), s_candidates=(1, 2))
        result = select(normal_data, grid, small_em(), alpha=0.99, seed=6)
        scores = {(row.r, row.s): row.fdr - row.far
                  for row in result.scoreboard if row.skipped is None}
        assert scores[(result.r, result.s)] == max(scores.values())

    def test_validation_slice_too_small(self):
        grid = SelectionGrid(r_candidates=(1,), s_candidates=(1,))
        with pytest.raises(ConfigError):
            select(np.zeros((100, 3)), grid, small_em(), alpha=0.99)

    def test_recovers_generating_orders(self):
        # two latents generated with lag order 2 (lag-2 dominated, so a
        # lag-1 model predicts markedly worse); subtle step deviations make
        # detection sensitive to how tight each candidate's limits are
        B = np.array([[0.05, -0.05], [0.9, 0.85]])
        colA = 0.6 * np.array([1, -1, 1, -1, 1, -1.0])
        colB = 0.6 * np.array([1, 1, -1, -1, 1, 1.0])
        true = ModelParams.from_dynamics(
            B=B, H=np.column_stack([colA, colB]), Sigma=np.full(6, 0.02)
        )
        _, X = simulate(true, 4000, seed=42)
        grid = SelectionGrid(
            r_candidates=(1, 2, 3), s_candidates=(1, 2, 3), magnitudes=(0.3, 0.6)
        )
        em = EmConfig(
            r=1, s=1, max_iterations=6,
            ga=GaConfig(population_size=40, generations=60, seed=2), seed=2,
        )
        result = select(X, grid, em, alpha=0.99, seed=11)
        assert result.s >= 2, f"selected lag order {result.s}"
        assert result.r in (2, 3), f"selected latent dimension {result.r}"

    def test_scoreboard_csv(self, tmp_path, normal_data):
        grid = SelectionGrid(r_candidates=(1,), s_candidates=(1,))
        result = select(normal_data, grid, small_em(), alpha=0.99, seed=7)
        path = tmp_path / "scoreboard.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("r,s,FDR,FAR")
        assert len(lines) == 2


class TestGridValidation:
    def test_empty_candidates(self):
        with pytest.raises(ConfigError):
            SelectionGrid(r_candidates=(), s_candidates=(1,))

    def test_bad_split(self):
        with pytest.raises(ConfigError):
            SelectionGrid(r_candidates=(1,), s_candidates=(1,), split_fraction=1.2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_magnitude(self, bad):
        with pytest.raises(ConfigError, match="magnitudes"):
            SelectionGrid(r_candidates=(1,), s_candidates=(1,), magnitudes=(1.0, bad))
