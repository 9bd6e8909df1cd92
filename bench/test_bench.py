"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import metrics  # noqa: E402
import ppfa  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train-long": {"n_train": 1000, "n_heldout": 300, "max_iterations": 1},
    "select-grid": {"n": 1000, "n_stream": 200, "max_iterations": 1},
    "score-stream": {"n_train": 600, "n_batch": 1200, "n_stream": 300, "max_iterations": 1},
}


def _ppfa_namespaces() -> dict[str, dict]:
    spaces = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if mod is not None and (name == "ppfa" or name.startswith("ppfa."))
    }
    for layer, cls_name, _, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"ppfa.{layer}"], cls_name)
        spaces[f"ppfa.{layer}.{cls_name}"] = dict(vars(cls))
    return spaces


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_workload_runs_end_to_end_at_tiny_size(name, trace, capsys):
    code = run.run(name, seed=3, seconds=0.01, trace=bool(trace), sizes=TINY[name])
    lines = capsys.readouterr().out.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    # The detection-rate floors are stated for the full input sizes; a
    # tiny model may miss them. Every other gate must pass.
    failed = [g for g in detail["gates"] if not g["ok"]]
    assert all(g["name"].split()[-3] in ("FDR", "FAR") for g in failed), failed
    assert code == (0 if result["correct"] else 1)
    assert result["correct"] == (not failed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == len(failed)
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert np.isfinite(entry["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in metrics.END_TO_END)
    assert {"setup_s", "error_rate"} <= set(detail["figures"])
    for figure in detail["figures"].values():
        assert set(figure) == {"value", "unit"}
    for entry in detail["inputs"]:
        assert len(entry["sha256"]) == 64 and entry["shape"]
    assert {"python", "numpy", "scipy", "blas", "thread_env", "nproc", "cpu_model"} <= set(
        detail["environment"]
    )


@pytest.mark.parametrize("name,figures", [
    ("train-long", {"train_s", "heldout_loglik_per_row", "far"}),
    ("select-grid", {"select_s", "fdr", "far"}),
    ("score-stream", {"batch_rows_per_s", "stream_p50_us", "fdr", "far"}),
])
def test_workload_figures_have_units(name, figures, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path, **TINY[name])
    workload.prepare()
    workload.setup()
    workload.iteration()
    workload.finish()
    assert figures <= set(workload.out.figures)
    assert all(f["unit"] for f in workload.out.figures.values())


def test_restore_leaves_every_ppfa_attribute_identical():
    before = _ppfa_namespaces()
    t = tracer.Tracer()
    t.install()
    try:
        assert ppfa.kalman.filter_step is not before["ppfa.kalman"]["filter_step"]
        assert ppfa.monitoring.filter_step is ppfa.kalman.filter_step
        assert ppfa.MonitorSession.score is not before["ppfa.monitoring.MonitorSession"]["score"]
    finally:
        t.restore()
    after = _ppfa_namespaces()
    assert after.keys() == before.keys()
    for space, attrs in before.items():
        assert after[space].keys() == attrs.keys(), space
        for attr, obj in attrs.items():
            assert after[space][attr] is obj, f"{space}.{attr}"


def test_traced_calls_give_exact_counts_and_self_times():
    rng = np.random.default_rng(0)
    params = ppfa.ModelParams.from_dynamics(
        B=np.array([[0.5, -0.3]]), H=rng.standard_normal((4, 2)), Sigma=np.full(4, 0.5)
    )
    X = rng.standard_normal((50, 4))
    t = tracer.Tracer()
    t.install()
    try:
        ppfa.log_likelihood(params, X)
        ppfa.training.e_step(params, X)
    finally:
        t.restore()
    assert t.calls["training.log_likelihood"] == 1
    assert t.calls["kalman.log_likelihood_filter"] == 1
    assert t.calls["kalman.filter_step"] == 50
    assert metrics.named_counts(t)["kalman.filter_rows"] == 100
    by_id = {span[0]: span for span in t.spans}
    for span_id, parent, name_idx, _, start, end in t.spans:
        assert end >= start
        if parent >= 0:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    roots = sum(end - start for _, parent, _, _, start, end in t.spans if parent < 0)
    assert sum(t.self_s.values()) == pytest.approx(roots, rel=1e-9)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = workloads.inputs.measurements(5, "x", 300, 4, 2, 2, (0.5, 0.8))
    b = workloads.inputs.measurements(5, "x", 300, 4, 2, 2, (0.5, 0.8))
    c = workloads.inputs.measurements(6, "x", 300, 4, 2, 2, (0.5, 0.8))
    assert workloads.inputs.describe("a", a) == workloads.inputs.describe("a", b)
    assert not np.array_equal(a, c)


def test_benchmark_json_matches_metric_definitions():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {k: doc[k] for k in ("end_to_end", "per_layer")} == metrics.benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert set(metrics.WORKLOADS) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for name, (_, _, moves) in metrics.PER_LAYER.items():
        for e2e, targets in moves:
            assert e2e in metrics.END_TO_END, name
            assert set(targets) <= set(metrics.WORKLOADS), name


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
