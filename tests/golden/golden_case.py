"""Golden artefacts of one fixed-seed case, and the script that regenerates them.

The case trains on the acceptance model's shape (m=6, r=2, s=2) for two EM
iterations, saves the model, scores a faulted stream and runs a small
``select`` grid. ``case.json`` holds the sha256 of the model file and of the
score report, the scoreboard without its wall-time column, and the versions
of the numerical stack it was made with. ``tests/golden/test_golden.py``
rebuilds the case and compares.

A change that moves the model's bits on purpose regenerates the file and
says why; any other change leaves it alone::

    PYTHONPATH=src python tests/golden/golden_case.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ppfa import (
    EmConfig,
    GaConfig,
    ModelParams,
    SelectionGrid,
    inject_step_fault,
    save_model,
    select,
    simulate,
    train_monitoring_model,
)

CASE_PATH = Path(__file__).resolve().parent / "case.json"
ALPHA = 0.99


def _blas(config: dict) -> str:
    blas = config["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def environment() -> dict[str, str]:
    """The interpreter, numpy, scipy and BLAS the bits depend on."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    }


def _true_model() -> ModelParams:
    B = np.array([[0.6, -0.4], [0.2, 0.3]])
    H = np.random.default_rng(0).normal(scale=1 / np.sqrt(2), size=(6, 2))
    return ModelParams.from_dynamics(B=B, H=H, Sigma=np.full(6, 0.25))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_case(workdir: Path) -> dict:
    """Train, save, score and select; return the comparable artefacts."""
    true = _true_model()
    cfg = EmConfig(r=2, s=2, max_iterations=2, ga=GaConfig(seed=3), seed=3)

    _, X_train = simulate(true, 400, seed=100)
    model, _ = train_monitoring_model(X_train, cfg, ALPHA)
    model_path = workdir / "model.json"
    save_model(model, model_path)

    _, X_new = simulate(true, 300, seed=101)
    X_new = inject_step_fault(X_new, np.array([0, 3]), np.array([1.5, -1.5]), onset=150)
    report_path = workdir / "report.csv"
    model.score(X_new).write_csv(report_path)

    _, X_select = simulate(true, 1000, seed=102)
    grid = SelectionGrid(r_candidates=(1, 2), s_candidates=(1, 2))
    result = select(X_select, grid, cfg, ALPHA, seed=4)
    scoreboard = [
        f"{row.r},{row.s},{row.fdr!r},{row.far!r},{row.loglik!r},{row.skipped or ''}"
        for row in result.scoreboard
    ]
    return {
        "model_sha256": _sha256(model_path),
        "report_sha256": _sha256(report_path),
        "selected": [result.r, result.s],
        "scoreboard": ["r,s,FDR,FAR,loglik,skipped"] + scoreboard,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        case = build_case(Path(tmp))
    doc = {"environment": environment(), "case": case}
    CASE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CASE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
