"""The three benchmark workloads, one per user path.

Each workload is driven closed-loop from one process: ``prepare`` builds
the inputs (untimed), ``setup`` is the program-side preparation timed as
part of ``setup_s``, ``iteration`` runs one operation and then scores a
held-out stream one row per call, recording both timings, and ``finish``
applies the correctness gates. ``ppfa`` must be importable
before this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs
import metrics
# Program functions are called as attributes of the ``ppfa`` package, so the
# tracer's wrappers, installed there, see the benchmark's own calls.
import ppfa
import ppfa.cli
from ppfa import EmConfig, GaConfig, MonitorSession, SelectionGrid

ALPHA = 0.99
# Relative EM tolerance small enough that every seed runs max_iterations,
# so the work per operation does not depend on the seed.
EM_TOL = 1e-12
# Floors for the monitoring gates. Each of the three statistics alarms on
# about 1 - ALPHA of normal rows, so a calibrated model raises some alarm on
# at most about 3 (1 - ALPHA) of them. The ceiling allows twice that on
# streams of thousands of rows, and five times that on the validation half
# that select scores, whose ~120 strongly autocorrelated normal rows make
# the rate coarse and noisy. Alarms that carried no information about the
# known fault windows would fire there at the false-alarm rate; the floor
# asks for twenty times that.
FAR_CEILING = 6 * (1 - ALPHA)
SELECT_FAR_CEILING = 15 * (1 - ALPHA)
FDR_FLOOR = 0.6
# Rows after a fault ends that count neither as faulty nor as normal: the
# filter needs a few steps to forget the step.
GUARD_ROWS = 50
# One-row scoring whitens each row with a vector-matrix product while batch
# scoring uses one matrix product, so the statistics may differ in the last
# bits. Rows whose statistics differ in any bit are counted and reported;
# the gate requires identical alarms, verdicts and burn-in marks and
# statistics within this relative tolerance (about 4500 float64 epsilons).
STAT_RTOL = 1e-12


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What a workload measured and checked in one run."""

    op_s: list[float] = field(default_factory=list)
    online_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gates: list[Gate] = field(default_factory=list)
    inputs: list[dict] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    figures: dict[str, dict] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def figure(self, name: str, value: float, unit: str) -> None:
        """A workload-specific end-to-end figure, reported in the details."""
        self.figures[name] = {"value": float(value), "unit": unit}

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append(Gate(name, bool(ok), detail))
        if not ok:
            self.failed += 1


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Rows:
    """Per-row monitoring output, comparable bit for bit."""

    t2: np.ndarray
    spe: np.ndarray
    di: np.ndarray
    flags: np.ndarray
    verdict: list[str]
    burn_in: np.ndarray

    @classmethod
    def from_report(cls, rep) -> "Rows":
        return cls(
            t2=rep.t2, spe=rep.spe, di=rep.di,
            flags=np.column_stack([rep.flag_t2, rep.flag_spe, rep.flag_di]),
            verdict=list(rep.verdict), burn_in=np.asarray(rep.burn_in, dtype=bool),
        )

    @classmethod
    def from_csv(cls, path) -> "Rows":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["index", "T2", "SPE", "DI", "flag_T2", "flag_SPE", "flag_DI",
                          "verdict", "burn_in"]:
                raise ValueError(f"unexpected report header {header}")
            body = list(reader)
        cols = list(zip(*body))
        return cls(
            t2=np.array([float(v) for v in cols[1]]),
            spe=np.array([float(v) for v in cols[2]]),
            di=np.array([float(v) for v in cols[3]]),
            flags=np.column_stack([np.array(cols[j], dtype=int) == 1 for j in (4, 5, 6)]),
            verdict=list(cols[7]),
            burn_in=np.array(cols[8], dtype=int) == 1,
        )

    def head(self, n: int) -> "Rows":
        return Rows(self.t2[:n], self.spe[:n], self.di[:n], self.flags[:n],
                    self.verdict[:n], self.burn_in[:n])

    def mismatches(self, other: "Rows") -> tuple[int, bool]:
        """(rows whose statistics differ in any bit, whether every row agrees
        within STAT_RTOL with identical flags, verdicts and burn-in marks)."""
        a = np.column_stack([self.t2, self.spe, self.di])
        b = np.column_stack([other.t2, other.spe, other.di])
        differ = int((a.view(np.int64) != b.view(np.int64)).any(axis=1).sum())
        close = bool(np.all(np.abs(a - b) <= STAT_RTOL * np.maximum(np.abs(b), 1.0)))
        same_marks = (np.array_equal(self.flags, other.flags) and self.verdict == other.verdict
                      and np.array_equal(self.burn_in, other.burn_in))
        return differ, close and same_marks

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in (self.t2, self.spe, self.di, self.flags, self.burn_in):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update("\n".join(self.verdict).encode())
        return h.hexdigest()


def stream_rows(session: MonitorSession, X: np.ndarray, latencies: list[float]) -> Rows:
    """Score X one row per call, appending each call's wall time."""
    rows = [X[i:i + 1] for i in range(X.shape[0])]
    reports = []
    clock = time.perf_counter
    for row in rows:
        start = clock()
        rep = session.score(row)
        latencies.append(clock() - start)
        reports.append(rep)
    return Rows(
        t2=np.array([rep.t2[0] for rep in reports]),
        spe=np.array([rep.spe[0] for rep in reports]),
        di=np.array([rep.di[0] for rep in reports]),
        flags=np.array([[rep.flag_t2[0], rep.flag_spe[0], rep.flag_di[0]] for rep in reports]),
        verdict=[rep.verdict[0] for rep in reports],
        burn_in=np.array([rep.burn_in[0] for rep in reports], dtype=bool),
    )


def detection_rates(rows: Rows, faulty: np.ndarray, guard: np.ndarray) -> tuple[float, float]:
    """(FDR, FAR) of the any-statistic alarm; burn-in and guard rows are
    left out of both."""
    usable = ~rows.burn_in & ~guard
    alarms = rows.flags.any(axis=1)
    normal = usable & ~faulty
    fdr = float(alarms[usable & faulty].mean()) if (usable & faulty).any() else float("nan")
    return fdr, float(alarms[normal].mean())


def _session(model) -> MonitorSession:
    return MonitorSession(model.params, model.whitening, model.dynamics, model.limits)


def _em(r: int, s: int, max_iterations: int, seed: int) -> EmConfig:
    return EmConfig(r=r, s=s, max_iterations=max_iterations, loglik_rel_tol=EM_TOL,
                    ga=GaConfig(seed=seed), seed=seed)


class Workload:
    """One user path. Every iteration ends by scoring a held-out stream one
    row per call, so the online latency is sampled across the whole run."""

    name = ""

    def __init__(self, seed: int, run_dir: Path, **sizes):
        self.seed = int(seed)
        self.run_dir = Path(run_dir)
        self.sizes = replace(self.default_sizes, **sizes)
        self.out = Outcome()
        self.stream_digests: list[str] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def iteration(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def outputs_digest(self) -> str:
        """Digest of the outputs, which must not change between runs of the
        same seed and code."""
        raise NotImplementedError

    def record_input(self, name: str, X: np.ndarray) -> None:
        self.out.inputs.append(inputs.describe(name, X))

    def stream_online(self, session: MonitorSession, X: np.ndarray) -> None:
        self.online_rows = stream_rows(session, X, self.out.online_s)
        self.out.attempted += X.shape[0]
        self.stream_digests.append(self.online_rows.digest())

    def check_online(self, batch: Rows) -> None:
        """The one-row stream must repeat exactly and reproduce the batch
        report of the same rows."""
        out = self.out
        out.gate("online rows identical across operations", len(set(self.stream_digests)) == 1)
        differ, ok = self.online_rows.mismatches(batch)
        out.gate(f"online rows equal batch rows (alarms exactly, statistics within {STAT_RTOL:g})",
                 ok, f"{differ} of {len(batch.t2)} rows differ in some bit")
        out.quality["monitoring.stream_batch_mismatch_rows"] = differ
        out.detail["stream_batch_bitwise_equal"] = differ == 0


@dataclass(frozen=True)
class TrainSizes:
    n_train: int = 4000
    n_heldout: int = 3000
    m: int = 6
    r: int = 2
    s: int = 2
    max_iterations: int = 3


class TrainLong(Workload):
    """``train_monitoring_model`` then ``save_model`` on a long series from a
    fast-mixing model. Filtering, smoothing and likelihood passes dominate;
    the GA is a few percent, so GA work should not move this workload."""

    name = "train-long"
    default_sizes = TrainSizes()

    def prepare(self):
        z = self.sizes
        X = inputs.measurements(self.seed, self.name, z.n_train + z.n_heldout,
                                z.m, z.r, z.s, radius=(0.5, 0.8))
        self.X_train, self.X_heldout = X[:z.n_train], X[z.n_train:]
        self.record_input("train", self.X_train)
        self.record_input("heldout", self.X_heldout)
        self.model_path = self.run_dir / "model.json"
        self.model_hashes: list[str] = []

    def setup(self):
        z = self.sizes
        self.cfg = _em(z.r, z.s, z.max_iterations, self.seed)

    def iteration(self):
        start = time.perf_counter()
        model, _ = ppfa.train_monitoring_model(self.X_train, self.cfg, ALPHA)
        ppfa.save_model(model, self.model_path)
        self.out.op_s.append(time.perf_counter() - start)
        self.out.attempted += 1
        self.model = model
        self.model_hashes.append(_sha256_file(self.model_path))
        self.stream_online(_session(model), self.X_heldout)

    def outputs_digest(self):
        return self.model_hashes[0]

    def finish(self):
        out, z = self.out, self.sizes
        out.gate("model file identical across operations", len(set(self.model_hashes)) == 1)
        out.detail["model_sha256"] = self.model_hashes[0]
        batch = Rows.from_report(self.model.score(self.X_heldout))
        out.attempted += 1
        self.check_online(batch)
        X_w = ppfa.apply_whitening(self.model.whitening, self.X_heldout)
        per_row = ppfa.log_likelihood(self.model.params, X_w) / (X_w.shape[0] - z.s + 1)
        # An N(0, I) model of the same whitened rows, computed without the program.
        rows = X_w[z.s - 1:]
        iid = float(np.mean(-0.5 * (rows.shape[1] * np.log(2 * np.pi) + (rows ** 2).sum(axis=1))))
        out.gate("held-out loglik beats an iid N(0, I) model", per_row > iid,
                 f"{per_row:.4f} vs {iid:.4f} nats/row")
        none = np.zeros(len(batch.t2), dtype=bool)
        _, far = detection_rates(batch, none, none)
        out.gate(f"held-out FAR <= {FAR_CEILING:.2f}", far <= FAR_CEILING, f"FAR {far:.4f}")
        out.quality.update({"training.heldout_loglik_per_row": per_row, "monitoring.far": far})
        out.figure("train_s", metrics.trimmed_mean(out.op_s), "s")
        out.figure("heldout_loglik_per_row", per_row, "nats")
        out.figure("far", far, "ratio")


@dataclass(frozen=True)
class SelectSizes:
    n: int = 1200
    n_stream: int = 2000
    m: int = 12
    r: int = 3
    s: int = 2
    r_candidates: tuple[int, ...] = (2, 4)
    s_candidates: tuple[int, ...] = (2, 3)
    max_iterations: int = 3


class SelectGrid(Workload):
    """``select`` on a 2x2 (r, s) grid over a short series with slowly mixing
    latents. Short series and up to four latents make the GA a large share;
    the four independent fits are the only place ``selection`` works. The
    online stream is scored by a model of the grid's largest (r, s), trained
    during preparation."""

    name = "select-grid"
    default_sizes = SelectSizes()

    def prepare(self):
        z = self.sizes
        X = inputs.measurements(self.seed, self.name, z.n + z.n_stream, z.m, z.r, z.s,
                                radius=(0.93, 0.97))
        self.X, self.X_stream = X[:z.n], X[z.n:]
        self.record_input("normal", self.X)
        self.record_input("stream", self.X_stream)
        self.boards: list[tuple] = []
        self.online_model, _ = ppfa.train_monitoring_model(
            self.X, _em(max(z.r_candidates), max(z.s_candidates), z.max_iterations, self.seed),
            ALPHA)

    def setup(self):
        z = self.sizes
        self.grid = SelectionGrid(r_candidates=z.r_candidates, s_candidates=z.s_candidates)
        self.cfg = _em(1, 1, z.max_iterations, self.seed)

    def iteration(self):
        start = time.perf_counter()
        result = ppfa.select(self.X, self.grid, self.cfg, ALPHA, seed=self.seed)
        self.out.op_s.append(time.perf_counter() - start)
        self.out.attempted += len(result.scoreboard)
        self.out.failed += sum(row.skipped is not None for row in result.scoreboard)
        self.result = result
        self.boards.append(tuple(
            (row.r, row.s, row.fdr, row.far, row.loglik, row.skipped) for row in result.scoreboard
        ))
        self.stream_online(_session(self.online_model), self.X_stream)

    def outputs_digest(self):
        return hashlib.sha256(repr(self.boards[0]).encode()).hexdigest()

    def finish(self):
        out = self.out
        out.gate("scoreboard identical across operations", len(set(self.boards)) == 1)
        best = next(row for row in self.result.scoreboard
                    if (row.r, row.s) == (self.result.r, self.result.s))
        out.gate(f"winner FDR >= {FDR_FLOOR}", best.fdr >= FDR_FLOOR, f"FDR {best.fdr:.4f}")
        out.gate(f"winner FAR <= {SELECT_FAR_CEILING:.2f}", best.far <= SELECT_FAR_CEILING,
                 f"FAR {best.far:.4f}")
        out.quality.update({"monitoring.fdr": best.fdr, "monitoring.far": best.far})
        out.attempted += 1
        self.check_online(Rows.from_report(self.online_model.score(self.X_stream)))
        out.figure("select_s", metrics.trimmed_mean(out.op_s), "s")
        out.figure("fdr", best.fdr, "ratio")
        out.figure("far", best.far, "ratio")
        out.detail["winner"] = [best.r, best.s]


@dataclass(frozen=True)
class ScoreSizes:
    n_train: int = 3000
    n_batch: int = 20000
    n_stream: int = 10000
    m: int = 6
    r: int = 2
    s: int = 2
    max_iterations: int = 3


class ScoreStream(Workload):
    """Score one faulted stream two ways with a model trained beforehand:
    (a) ``ppfa score`` in-process on a CSV file (read, score, write report)
    and (b) a freshly loaded model's ``MonitorSession`` fed the first rows
    one per call. Forward filtering only, with per-call overhead; the only
    workload that does file I/O."""

    name = "score-stream"
    default_sizes = ScoreSizes()

    def faults(self) -> list[inputs.Fault]:
        """Step faults at fixed fractions of the stream: 2.5% of its rows
        each, on one or two channels, 2 to 4 standard deviations."""
        n, m = self.sizes.n_batch, self.sizes.m
        width = max(n // 40, 20)
        return [
            inputs.Fault(n * 1 // 5, n * 1 // 5 + width, (0,), 3.0),
            inputs.Fault(n * 2 // 5, n * 2 // 5 + width, (1 % m, 2 % m), 2.0),
            inputs.Fault(n * 3 // 5, n * 3 // 5 + width, (3 % m,), 4.0),
            inputs.Fault(n * 4 // 5, n * 4 // 5 + width, (4 % m, 5 % m), 3.0),
        ]

    def prepare(self):
        z = self.sizes
        X = inputs.measurements(self.seed, self.name, z.n_train + z.n_batch, z.m, z.r, z.s,
                                radius=(0.5, 0.8))
        X_train, clean = X[:z.n_train], X[z.n_train:]
        self.stream = inputs.inject(clean, self.faults(), reference=X_train)
        self.record_input("train", X_train)
        self.record_input("stream", self.stream)
        self.model_path = self.run_dir / "model.json"
        self.data_path = self.run_dir / "stream.csv"
        self.report_path = self.run_dir / "report.csv"
        cfg = _em(z.r, z.s, z.max_iterations, self.seed)
        model, _ = ppfa.train_monitoring_model(X_train, cfg, ALPHA)
        ppfa.save_model(model, self.model_path)
        header = ",".join(f"x{j + 1}" for j in range(z.m))
        np.savetxt(self.data_path, self.stream, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        self.argv = ["score", "--model", str(self.model_path), "--data", str(self.data_path),
                     "--out", str(self.report_path)]
        self.report_hashes: list[str] = []
        self.stdout_ok: list[bool] = []

    def setup(self):
        self.model = ppfa.load_model(self.model_path)
        self.session = _session(self.model)

    def iteration(self):
        z = self.sizes
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = ppfa.cli.main(self.argv)
        self.out.op_s.append(time.perf_counter() - start)
        self.out.attempted += 1
        self.stdout_ok.append(code == 0 and f"rows={z.n_batch}" in captured.getvalue().split())
        self.report_hashes.append(_sha256_file(self.report_path))
        self.setup()  # a freshly loaded model and a new session for the stream
        self.stream_online(self.session, self.stream[:z.n_stream])

    def outputs_digest(self):
        return f"{self.report_hashes[0]}/{self.stream_digests[0]}"

    def finish(self):
        out, z = self.out, self.sizes
        out.gate("CLI score exits 0 and reports every row", all(self.stdout_ok))
        out.gate("report file identical across operations", len(set(self.report_hashes)) == 1)
        report = Rows.from_csv(self.report_path)
        out.gate("report has one row per input row", len(report.t2) == z.n_batch)
        self.check_online(report.head(z.n_stream))
        faults = self.faults()
        faulty = inputs.fault_mask(z.n_batch, faults)
        guard = np.zeros(z.n_batch, dtype=bool)
        for f in faults:
            guard[f.end:f.end + GUARD_ROWS] = True
        fdr, far = detection_rates(report, faulty, guard)
        out.gate(f"FDR >= {FDR_FLOOR}", fdr >= FDR_FLOOR, f"FDR {fdr:.4f}")
        out.gate(f"FAR <= {FAR_CEILING:.2f}", far <= FAR_CEILING, f"FAR {far:.4f}")
        out.quality.update({"monitoring.fdr": fdr, "monitoring.far": far})
        op = metrics.trimmed_mean(out.op_s)
        out.figure("batch_rows_per_s", z.n_batch / op, "rows/s")
        out.figure("stream_p50_us", np.median(out.online_s) * 1e6, "us")
        out.figure("fdr", fdr, "ratio")
        out.figure("far", far, "ratio")
        out.detail["faults"] = [vars(f) for f in faults]


WORKLOADS = {cls.name: cls for cls in (TrainLong, SelectGrid, ScoreStream)}
