import numpy as np
import pytest

from ppfa import (
    ConfigError,
    EmConfig,
    GaConfig,
    load_model,
    random_stable_params,
    save_model,
    simulate,
    train_monitoring_model,
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    true = random_stable_params(m=4, r=1, s=1, seed=0, noise_range=(0.2, 0.4))
    _, X = simulate(true, 1200, seed=1)
    cfg = EmConfig(
        r=1, s=1, max_iterations=4,
        ga=GaConfig(population_size=30, generations=40, seed=2), seed=2,
    )
    model, trace = train_monitoring_model(X, cfg, alpha=0.99)
    return X, cfg, model, trace


def test_round_trip_is_lossless(tmp_path, trained):
    _, _, model, _ = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.params.B, model.params.B)
    assert np.array_equal(loaded.params.H, model.params.H)
    assert np.array_equal(loaded.params.Gamma, model.params.Gamma)
    assert np.array_equal(loaded.params.Sigma, model.params.Sigma)
    assert np.array_equal(loaded.whitening.mean, model.whitening.mean)
    assert np.array_equal(loaded.whitening.eigvecs, model.whitening.eigvecs)
    assert np.array_equal(loaded.whitening.singvals, model.whitening.singvals)
    assert np.array_equal(loaded.dynamics.D, model.dynamics.D)
    assert loaded.limits == model.limits


def test_reserialization_is_byte_identical(tmp_path, trained):
    _, _, model, _ = trained
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_retraining_same_seed_gives_identical_model_files(tmp_path, trained):
    X, cfg, _, _ = trained
    paths = []
    for name in ("one.json", "two.json"):
        model, _ = train_monitoring_model(X, cfg, alpha=0.99)
        path = tmp_path / name
        save_model(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scoring_through_bundle(trained):
    X, _, model, _ = trained
    report = model.score(X[:200])
    assert len(report) == 200


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ConfigError):
        load_model(path)


def test_load_rejects_missing_field(tmp_path, trained):
    import json
    _, _, model, _ = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["dynamics_covariance"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_model(path)


@pytest.mark.parametrize("edit, fragment", [
    (lambda doc: doc["limits"].update(t2=float("nan")), "limits.t2"),
    (lambda doc: doc["limits"].update(spe=-1.0), "spe limit"),
    (lambda doc: doc.update(dynamics_covariance=[[1.0, 0.0], [0.0, 1.0]]), "dynamics_covariance"),
    (lambda doc: doc.update(m=5), "emission"),
    (lambda doc: doc["whitening"].update(mean=[0.0] * 3), "whitening.mean"),
    (lambda doc: doc["whitening"]["singvals"].__setitem__(0, float("inf")), "whitening.singvals"),
    (lambda doc: doc.update(emission=[["a"]] * 4), "malformed"),
])
def test_load_rejects_inconsistent_or_non_finite_fields(tmp_path, trained, edit, fragment):
    import json
    _, _, model, _ = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=fragment):
        load_model(path)


def test_trace_csv(tmp_path, trained):
    _, _, _, trace = trained
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,loglik,residual,seconds"
    assert len(lines) == len(trace) + 1
