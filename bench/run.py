"""Benchmark of the ppfa package: one workload per run.

    python3 bench/run.py --workload train-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it carries the
details: inputs, environment, gates and workload-specific figures. The exit
code is 0 only when every correctness gate passed.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import os

# Set before numpy is imported anywhere in this process or its children.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("train-long", "select-grid", "score-stream")
SETUP_REPEATS = 5
# Self times of all spans must cover the traced wall time to within this
# share; the rest is benchmark code between calls into the program.
COVERAGE_SLACK = 0.05

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ppfa; print(time.perf_counter() - t)"
)


def import_program():
    """Import ppfa from this checkout's source tree, or exit with code 2."""
    if not (SRC / "ppfa" / "__init__.py").is_file():
        print(f"error: no ppfa source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ppfa

    if Path(ppfa.__file__).resolve().parent != (SRC / "ppfa").resolve():
        print(f"error: ppfa imported from {ppfa.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return ppfa


def import_seconds() -> float:
    """Wall time of ``import ppfa`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def code_hash() -> str:
    """Hash of the program and benchmark sources, keying cross-run checks."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "ppfa").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def check_against_earlier_runs(out, key: str, record: dict) -> None:
    """Compare outputs and counts with earlier runs of the same seed and
    code (kept in RUNS/state.json), then store this run's."""
    path = RUNS / "state.json"
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        state = {}
    earlier = state.setdefault(key, {})
    for name, value in record.items():
        if name in earlier:
            out.gate(f"{name} identical to earlier runs", earlier[name] == value,
                     f"earlier {earlier[name]}, now {value}")
        else:
            earlier[name] = value
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def timed_loop(workload, seconds: float, walls: list[float], on_start=None) -> None:
    """Run operations back to back for ``seconds``: at least one, and no
    further one once the last one's duration would overrun the window."""
    clock = time.perf_counter
    begin = clock()
    while not walls or clock() - begin + walls[-1] <= seconds:
        if on_start is not None:
            on_start(len(walls))
        start = clock()
        workload.iteration()
        walls.append(clock() - start)


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None) -> int:
    """One run of one workload; ``sizes`` overrides its input sizes."""
    import_program()
    import numpy as np

    import metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{workload_name}-{seed}-{os.getpid()}"
    run_dir.mkdir()
    workload = WORKLOADS[workload_name](seed, run_dir, **(sizes or {}))
    out = workload.out
    result: dict = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    detail: dict = {"workload": workload_name, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    setup_s = None
    try:
        workload.prepare()
        import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
        prep_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            prep_s.append(time.perf_counter() - start)
        setup_s = statistics.median(import_s) + statistics.median(prep_s)

        untraced: list[float] = []
        traced: list[float] = []
        tracer = Tracer()
        timed_loop(workload, seconds / 2 if trace else seconds, untraced)
        if trace:
            # Figures come from untraced operations only.
            untraced_timings = (list(out.op_s), list(out.online_s))
            snapshots = []

            def on_start(k):
                tracer.operation = k
                snapshots.append(metrics.named_counts(tracer))

            tracer.install()
            try:
                timed_loop(workload, seconds / 2, traced, on_start)
            finally:
                tracer.restore()
            snapshots.append(metrics.named_counts(tracer))
            per_op = [
                {k: after[k] - before[k] for k in after}
                for before, after in zip(snapshots, snapshots[1:])
            ]
            out.gate("named counts identical across operations",
                     all(c == per_op[0] for c in per_op), json.dumps(per_op))
            out.op_s[:], out.online_s[:] = untraced_timings
        workload.finish()

        record = {"outputs": workload.outputs_digest()}
        if trace:
            record["counts"] = per_op[0]
            detail["counts"] = per_op[0]
        check_against_earlier_runs(
            out, f"{workload_name}/{seed}/{workload.sizes}/{code_hash()}", record)

        if trace:
            values = metrics.per_layer_values(tracer, traced, untraced, out.quality)
            coverage = values["trace.self_coverage"]
            out.gate(f"span self times cover the traced wall time within {COVERAGE_SLACK}",
                     abs(1.0 - coverage) <= COVERAGE_SLACK, f"coverage {coverage:.4f}")
            np.savez(RUNS / f"spans-{workload_name}.npz", **tracer.span_arrays())
            units = {n: u for n, (u, _, _) in metrics.PER_LAYER.items()}
        else:
            values = {
                "setup_s": setup_s,
                "op_s": metrics.trimmed_mean(out.op_s),
                "online_tmean_us": metrics.trimmed_mean(out.online_s) * 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {n: u for n, (u, _, _) in metrics.END_TO_END.items()}
        result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        online_us = np.percentile(out.online_s, [50, 99]) * 1e6
        out.figure("online_p50_us", online_us[0], "us")
        out.figure("online_p99_us", online_us[1], "us")
        detail.update({
            "setup": {"import_s": import_s, "program_s": prep_s},
            "operations": {"untraced_s": untraced, "traced_s": traced, "op_s": out.op_s},
            "online_samples": len(out.online_s),
            **out.detail,
        })
    except Exception:  # noqa: BLE001 - any failure of the program is a failed run
        traceback.print_exc()
        out.gate("workload ran to completion", False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result["attempted"] = max(out.attempted, 1)
    result["failed"] = out.failed
    result["correct"] = all(g.ok for g in out.gates) and out.failed == 0
    out.figure("error_rate", result["failed"] / result["attempted"], "ratio")
    if setup_s is not None:
        out.figure("setup_s", setup_s, "s")
    detail.update({
        "figures": out.figures,
        "gates": [vars(g) for g in out.gates],
        "inputs": out.inputs,
        "environment": environment(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        figures = json.loads(lines[-2])["detail"]["figures"] if len(lines) > 1 else {}
        print(f"{name}: correct={result.get('correct')} "
              f"attempted={result.get('attempted')} failed={result.get('failed')}")
        for metric, m in {**result.get("metrics", {}), **figures}.items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
