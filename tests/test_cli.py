import json

import numpy as np
import pytest

from ppfa import EmConfig
from ppfa.cli import EXIT_CODES, _Config, _em_config, main, read_csv

TRAIN_CONFIG = """
[em]
r = 1
s = 1
max_iterations = 4
seed = 9

[ga]
population_size = 30
generations = 40
seed = 9

[monitor]
alpha = 0.99
"""

SIM_CONFIG = """
[simulate]
n_steps = 1000
m = 6
r = 2
s = 1
seed = 5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    sim_cfg = root / "sim.ini"
    sim_cfg.write_text(SIM_CONFIG)
    data = root / "data.csv"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(data)]) == 0
    train_cfg = root / "train.ini"
    train_cfg.write_text(TRAIN_CONFIG)
    model = root / "model.json"
    assert main(["train", "--data", str(data), "--config", str(train_cfg),
                 "--model", str(model)]) == 0
    return root


class TestSimulate:
    def test_output_shape_and_sidecar(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_CONFIG + "faults = 0:500:800:4.0\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert data.shape == (1000, 6)
        assert len(header) == 6
        sidecar = json.loads((tmp_path / "sim.csv.faults.json").read_text())
        assert sidecar["faults"][0]["channel"] == 0
        assert sidecar["faults"][0]["start"] == 500
        assert sidecar["faults"][0]["end"] == 800

    def test_deterministic_given_seed(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unstable_spec_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulate]\nn_steps = 100\nm = 2\nfaults = 5:0:10:1.0\n")
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: config"


    @pytest.mark.parametrize("line", [
        "noise_low = nan", "noise_high = inf", "noise_low = 0.5\nnoise_high = 0.1",
    ])
    def test_bad_noise_range_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_CONFIG + line + "\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: config"
        assert "noise_range" in err and "Traceback" not in err


def test_em_config_defaults_come_from_em_config(tmp_path):
    cfg = tmp_path / "em.ini"
    cfg.write_text("[em]\nr = 2\ns = 3\n")
    assert _em_config(_Config(cfg), None) == EmConfig(r=2, s=3)


class TestTrain:
    def test_model_file_reloads(self, workdir):
        from ppfa import load_model
        model = load_model(workdir / "model.json")
        assert model.params.m == 6

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        other = tmp_path / "model2.json"
        assert main(["train", "--data", str(workdir / "data.csv"),
                     "--config", str(workdir / "train.ini"),
                     "--model", str(other)]) == 0
        assert other.read_bytes() == (workdir / "model.json").read_bytes()

    def test_non_numeric_cell_is_io_error(self, tmp_path, capsys, workdir):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        code = main(["train", "--data", str(bad),
                     "--config", str(workdir / "train.ini"),
                     "--model", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: io"
        assert "line 3" in err[1] and "column 2" in err[1]

    def test_missing_config_key_reported(self, tmp_path, capsys, workdir):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[em]\nr = 1\ns = 1\nmax_iterations = zebra\n")
        code = main(["train", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--model", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: config"
        assert "max_iterations" in err[1]

    def test_unknown_config_key_reported(self, tmp_path, capsys, workdir):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[em]\nr = 1\ns = 1\nmax_iter = 3\n")
        code = main(["train", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--model", str(tmp_path / "m.json")])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("line,name", [
        ("[ga]\nsearch_lo = nan", "search_box"),
        ("[ga]\nsearch_hi = inf", "search_box"),
        ("[ga]\nmutation_scale = nan", "mutation_scale"),
        ("[ga]\nlambda_penalty = nan", "lambda_penalty"),
        ("[ga]\nlambda_penalty = inf", "lambda_penalty"),
        ("loglik_rel_tol = nan", "loglik_rel_tol"),
    ])
    def test_non_finite_config_value_is_config_error(self, tmp_path, capsys, workdir,
                                                     line, name):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[em]\nr = 1\ns = 1\n{line}\n")
        code = main(["train", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--model", str(tmp_path / "m.json")])
        assert code == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: config"
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_data_is_io_error(self, tmp_path, capsys, workdir):
        huge = tmp_path / "huge.csv"
        rows = np.random.default_rng(3).standard_normal((40, 3)) * 1e200
        lines = [",".join(repr(float(v)) for v in row) for row in rows]
        huge.write_text("a,b,c\n" + "\n".join(lines) + "\n")
        code = main(["train", "--data", str(huge), "--config", str(workdir / "train.ini"),
                     "--model", str(tmp_path / "m.json")])
        assert code == EXIT_CODES["io"]
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: io"
        assert "overflows" in err and "Traceback" not in err


class TestScore:
    def test_report_rows_match_input(self, workdir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(["score", "--model", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"),
                     "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "rows=1000" in out
        lines = report.read_text().splitlines()
        assert len(lines) == 1001

    def test_rerun_report_is_byte_identical(self, workdir, tmp_path):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for path in (r1, r2):
            assert main(["score", "--model", str(workdir / "model.json"),
                         "--data", str(workdir / "data.csv"), "--out", str(path)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_alarm_rate_close_to_confidence_level(self, workdir, tmp_path, capsys):
        report = tmp_path / "r.csv"
        assert main(["score", "--model", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        counts = {line.split("=")[0]: int(line.split("=")[1])
                  for line in out.splitlines() if line.startswith("alarms_")}
        for key, count in counts.items():
            assert count <= 0.04 * 1000, (key, count)

    def test_empty_data_is_io_error(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["score", "--model", str(workdir / "model.json"),
                     "--data", str(empty), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[0] == "error: io"

    def test_column_mismatch_is_config_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "narrow.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        code = main(["score", "--model", str(workdir / "model.json"),
                     "--data", str(bad), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: config"

    def test_wrong_size_dynamics_covariance_is_config_error(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "model.json").read_text())
        doc["dynamics_covariance"] = [[1.0, 0.0], [0.0, 1.0]]  # the model has r*s = 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(["score", "--model", str(model),
                     "--data", str(workdir / "data.csv"), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: config"
        assert "dynamics_covariance" in err[1]


class TestSelect:
    def test_single_pair(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "sel.ini"
        cfg.write_text(TRAIN_CONFIG + "\n[select]\nr_candidates = 1\ns_candidates = 1\n")
        out = tmp_path / "scoreboard.csv"
        assert main(["select", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert "selected r=1 s=1" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_non_finite_magnitude_is_config_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "sel.ini"
        cfg.write_text(TRAIN_CONFIG + "\n[select]\nr_candidates = 1\ns_candidates = 1\n"
                       "magnitudes = nan\n")
        code = main(["select", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "scoreboard.csv")])
        assert code == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: config"
        assert "magnitudes" in err and "Traceback" not in err
