"""Names, units and meaning of every metric the benchmark reports.

End-to-end metrics come from untraced runs (``--trace 0``) and are reported
by every workload. Per-layer metrics come from the traced run
(``--trace 1``); times and counts are per operation (one iteration of the
workload's timed loop), and a metric is 0 on a workload that never enters
its layer. The last field of each PER_LAYER entry names the end-to-end
metrics, and the workloads, that a change in that layer metric is expected
to move. BENCHMARK.json lists the same names, units and directions.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS, Tracer

WORKLOADS = ("train-long", "select-grid", "score-stream")

# name -> (unit, better, bound). op_s is the 10%-trimmed mean wall time of
# the workload's operation (the plain mean below ten operations),
# online_tmean_us that of one one-row MonitorSession.score call (median and
# p99 are in the run's details). On a shared 2-CPU machine the same work
# runs at speeds up to 1.7x apart from one few-second stretch to the next; a
# median of such times jumps between the fast and slow values as their mix
# crosses one half, while a trimmed mean moves with the mix, and measured
# run-to-run spreads were lower with it. The time bounds are wide for the
# same reason.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_s": ("s", "lower", 0.25),
    "online_tmean_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

TRAIN = ("op_s", ("train-long",))
SELECT = ("op_s", ("select-grid",))
BATCH = ("op_s", ("score-stream",))
ONLINE = ("online_tmean_us", WORKLOADS)

# name -> (unit, better, [(end-to-end metric, workloads), ...])
PER_LAYER = {
    # kalman
    "kalman.forward_filter.self_s": ("s", "lower", [TRAIN, SELECT]),
    "kalman.forward_filter.calls": ("count", "lower", [TRAIN, SELECT]),
    "kalman.backward_smooth.self_s": ("s", "lower", [TRAIN, SELECT]),
    "kalman.log_likelihood_filter.self_s": ("s", "lower", [TRAIN, SELECT]),
    "kalman.log_likelihood_filter.calls": ("count", "lower", [TRAIN, SELECT]),
    "kalman.filter_step.calls": ("count", "lower", [TRAIN, SELECT, BATCH, ONLINE]),
    "kalman.filter_step.self_s": ("s", "lower", [TRAIN, SELECT, BATCH, ONLINE]),
    "kalman.filter_rows": ("count", "lower", [TRAIN, SELECT, BATCH]),
    "kalman.us_per_row": ("us", "lower", [TRAIN, SELECT, BATCH, ONLINE]),
    # training
    "training.fit.self_s": ("s", "lower", [TRAIN, SELECT]),
    "training.em_iterations": ("count", "lower", [TRAIN, SELECT]),
    "training.e_step.self_s": ("s", "lower", [TRAIN, SELECT]),
    "training.update_H.self_s": ("s", "lower", [TRAIN, SELECT]),
    "training.update_Sigma.self_s": ("s", "lower", [TRAIN, SELECT]),
    "training.update_beta.self_s": ("s", "lower", [TRAIN, SELECT]),
    "training.log_likelihood.calls": ("count", "lower", [TRAIN, SELECT]),
    "training.ga_fallbacks": ("count", "lower", [TRAIN, SELECT]),
    "training.heldout_loglik_per_row": ("nats", "higher", [TRAIN]),
    # genetic
    "genetic.minimize.calls": ("count", "lower", [SELECT, TRAIN]),
    "genetic.minimize.self_s": ("s", "lower", [SELECT, TRAIN]),
    "genetic.evaluations": ("count", "lower", [SELECT, TRAIN]),
    "genetic.feasible_ratio": ("ratio", "higher", [SELECT, TRAIN]),
    # monitoring
    "monitoring.calibrate.self_s": ("s", "lower", [TRAIN, SELECT]),
    "monitoring.estimate_D.self_s": ("s", "lower", [TRAIN, SELECT]),
    "monitoring.kde_limit.self_s": ("s", "lower", [TRAIN, SELECT]),
    "monitoring.kde_limit.calls": ("count", "lower", [TRAIN, SELECT]),
    "monitoring.kde_values": ("count", "lower", [TRAIN, SELECT]),
    "monitoring.session_score.calls": ("count", "lower", [BATCH, ONLINE]),
    "monitoring.session_score.self_s": ("s", "lower", [BATCH, ONLINE]),
    "monitoring.session_score.p99_us": ("us", "lower", [ONLINE]),
    "monitoring.report_write.self_s": ("s", "lower", [BATCH]),
    "monitoring.report_write.bytes": ("count", "lower", [BATCH]),
    "monitoring.fdr": ("ratio", "higher", [SELECT, BATCH]),
    "monitoring.far": ("ratio", "lower", [TRAIN, SELECT, BATCH]),
    "monitoring.stream_batch_mismatch_rows": ("count", "lower", [ONLINE]),
    # preprocess
    "preprocess.fit_whitening.self_s": ("s", "lower", [TRAIN, SELECT]),
    "preprocess.apply_whitening.self_s": ("s", "lower", [ONLINE, BATCH]),
    "preprocess.apply_whitening.calls": ("count", "lower", [ONLINE, BATCH]),
    # statespace
    "statespace.augment.calls": ("count", "lower", [TRAIN, SELECT]),
    "statespace.augment.self_s": ("s", "lower", [TRAIN, SELECT]),
    "statespace.stationary_autocovariances.calls": ("count", "lower", [TRAIN, SELECT]),
    # pipeline
    "pipeline.train_monitoring_model.self_s": ("s", "lower", [TRAIN, SELECT]),
    "pipeline.save_model.self_s": ("s", "lower", [TRAIN]),
    "pipeline.load_model.self_s": ("s", "lower", [BATCH, ("setup_s", ("score-stream",))]),
    "pipeline.model_bytes": ("count", "lower", [TRAIN]),
    # selection
    "selection.select.self_s": ("s", "lower", [SELECT]),
    "selection.candidates": ("count", "higher", [SELECT]),
    "selection.candidates_skipped": ("count", "lower", [SELECT]),
    # cli
    "cli.main.self_s": ("s", "lower", [BATCH]),
    "cli.read_csv.self_s": ("s", "lower", [BATCH]),
    "cli.read_csv.mb_per_s": ("MB/s", "higher", [BATCH]),
    # share of the traced operation's wall time spent in each layer
    **{
        f"{layer}.share": ("ratio", "lower", [TRAIN, SELECT, BATCH])
        for layer in LAYERS
    },
    # the tracing itself
    "trace.overhead_s": ("s", "lower", []),
    "trace.overhead_share": ("ratio", "lower", []),
    "trace.self_coverage": ("ratio", "higher", []),
}

def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values between the ``cut`` and ``1 - cut`` quantiles."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def benchmark_json() -> dict:
    """The metric lists of BENCHMARK.json, as this module defines them."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()
        ],
    }


def named_counts(tracer: Tracer) -> dict[str, int]:
    """Running totals of the counts that must repeat exactly between
    operations and between runs of the same seed and code."""
    calls, counts = tracer.calls, tracer.counts
    values = {
        "kalman.filter_rows": calls["kalman.filter_step"] + counts["kalman.loglik_rows"],
        "training.em_iterations": counts["training.em_iterations"],
        "genetic.minimize.calls": calls["genetic.minimize"],
        "genetic.evaluations": counts["genetic.evaluations"],
        "monitoring.kde_values": counts["monitoring.kde_values"],
    }
    return {name: int(v) for name, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(
    tracer: Tracer,
    traced_walls: list[float],
    untraced_walls: list[float],
    quality: dict[str, float],
) -> dict[str, float]:
    """Every PER_LAYER metric, per traced operation."""
    n_ops = len(traced_walls)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s[name[: -len(".self_s")]] / n_ops
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] / n_ops
    values.update({name: v / n_ops for name, v in named_counts(tracer).items()})

    filter_rows = named_counts(tracer)["kalman.filter_rows"]
    filtering_s = sum(
        v for name, v in self_s.items()
        if name.startswith("kalman.") and name != "kalman.backward_smooth"
    )
    single_row = tracer.single_row_score_s
    traced_total = sum(traced_walls)
    layer_self = tracer.layer_self_s()
    overhead = float(np.median(traced_walls) - np.median(untraced_walls))
    values.update({
        "kalman.us_per_row": _ratio(filtering_s, filter_rows) * 1e6,
        "training.ga_fallbacks": counts["training.ga_fallbacks"] / n_ops,
        "training.heldout_loglik_per_row": quality.get("training.heldout_loglik_per_row", 0.0),
        "genetic.feasible_ratio": _ratio(counts["genetic.feasible"], calls["genetic.minimize"]),
        "monitoring.session_score.p99_us":
            float(np.percentile(single_row, 99)) * 1e6 if len(single_row) >= 100 else 0.0,
        "monitoring.report_write.bytes": counts["monitoring.report_write.bytes"] / n_ops,
        "monitoring.fdr": quality.get("monitoring.fdr", 0.0),
        "monitoring.far": quality.get("monitoring.far", 0.0),
        "monitoring.stream_batch_mismatch_rows":
            quality.get("monitoring.stream_batch_mismatch_rows", 0.0),
        "pipeline.model_bytes": counts["pipeline.model_bytes"] / n_ops,
        "selection.candidates": counts["selection.candidates"] / n_ops,
        "selection.candidates_skipped": counts["selection.candidates_skipped"] / n_ops,
        "cli.read_csv.mb_per_s":
            _ratio(counts["cli.read_csv.bytes"], self_s["cli.read_csv"]) / 1e6,
        **{f"{layer}.share": layer_self[layer] / traced_total for layer in LAYERS},
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / float(np.median(untraced_walls)),
        "trace.self_coverage": sum(layer_self.values()) / traced_total,
    })
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {name: float(values[name]) for name in PER_LAYER}
