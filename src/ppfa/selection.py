"""Hold-out selection of the latent dimension and lag order.

Normal data is split chronologically 80/20 (shuffling would destroy the
dynamics the model must learn). Step deviations of configurable magnitude
are injected into randomly chosen channels of the validation slice, and
every candidate (r, s) pair is trained, calibrated, and scored against it.
The pair maximizing detection rate minus false alarm rate wins; ties prefer
fewer parameters (smaller r*s, then smaller s).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, PpfaError
from .pipeline import train_monitoring_model
from .training import EmConfig


@dataclass(frozen=True)
class SelectionGrid:
    """Candidate (r, s) pairs plus the deviation-injection design.

    magnitudes are in units of per-channel training standard deviation and
    are cycled across the injected channels; the step starts at
    ``onset_fraction`` of the validation slice and lasts to its end.
    """

    r_candidates: tuple[int, ...]
    s_candidates: tuple[int, ...]
    magnitudes: tuple[float, ...] = (1.0, 2.0, 4.0)
    n_inject_channels: int = 3
    onset_fraction: float = 0.5
    split_fraction: float = 0.8

    def __post_init__(self):
        object.__setattr__(self, "r_candidates", tuple(int(r) for r in self.r_candidates))
        object.__setattr__(self, "s_candidates", tuple(int(s) for s in self.s_candidates))
        object.__setattr__(self, "magnitudes", tuple(float(v) for v in self.magnitudes))
        if not self.r_candidates or not self.s_candidates:
            raise ConfigError("candidate lists must be nonempty")
        if any(r < 1 for r in self.r_candidates) or any(s < 1 for s in self.s_candidates):
            raise ConfigError("candidates must be >= 1")
        if not self.magnitudes:
            raise ConfigError("need at least one injection magnitude")
        if not np.all(np.isfinite(self.magnitudes)):
            raise ConfigError(f"magnitudes must be finite, got {self.magnitudes}")
        if self.n_inject_channels < 1:
            raise ConfigError("n_inject_channels must be >= 1")
        if not 0.0 < self.onset_fraction < 1.0:
            raise ConfigError("onset_fraction must be in (0, 1)")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must be in (0, 1)")


@dataclass(frozen=True)
class ScoreboardRow:
    r: int
    s: int
    fdr: float
    far: float
    loglik: float
    train_seconds: float
    skipped: str | None = None


@dataclass(frozen=True)
class SelectionResult:
    r: int
    s: int
    scoreboard: tuple[ScoreboardRow, ...] = field(repr=False)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,s,FDR,FAR,loglik,train_seconds,skipped\n")
            for row in self.scoreboard:
                skipped = "" if row.skipped is None else row.skipped.replace(",", ";")
                fh.write(
                    f"{row.r},{row.s},{float(row.fdr)!r},{float(row.far)!r},"
                    f"{float(row.loglik)!r},{row.train_seconds:.3f},{skipped}\n"
                )


def inject_step_fault(
    X: np.ndarray,
    channels: np.ndarray,
    magnitudes: np.ndarray,
    onset: int,
    end: int | None = None,
) -> np.ndarray:
    """Copy of X with additive steps on the given channels over [onset, end)."""
    X = np.asarray(X, dtype=float).copy()
    end = X.shape[0] if end is None else end
    if not 0 <= onset < end <= X.shape[0]:
        raise ConfigError(f"fault window [{onset}, {end}) out of range for {X.shape[0]} rows")
    for ch, mag in zip(channels, magnitudes):
        X[onset:end, ch] += mag
    return X


def select(
    X_normal: np.ndarray,
    grid: SelectionGrid,
    em: EmConfig,
    alpha: float,
    seed: int = 0,
) -> SelectionResult:
    """Grid-search (r, s) on deviation-injected hold-out data.

    The EmConfig supplies every training setting except (r, s), which are
    swept. A candidate whose training or scoring fails is skipped with the
    reason recorded; if every candidate fails, a ConvergenceError is raised.
    FDR and FAR are the any-statistic alarm rates of the report on the rows
    from the onset on and on the rows before it, burn-in rows excluded.
    """
    X_normal = np.asarray(X_normal, dtype=float)
    n_total = X_normal.shape[0]
    split = int(round(grid.split_fraction * n_total))
    X_train = X_normal[:split]
    X_val = X_normal[split:]
    if X_val.shape[0] < 200:
        raise ConfigError(
            f"validation slice has {X_val.shape[0]} rows; need at least 200"
        )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    m = X_normal.shape[1]
    n_channels = min(grid.n_inject_channels, m)
    channels = rng.choice(m, size=n_channels, replace=False)
    sigmas = X_train.std(axis=0, ddof=1)
    magnitudes = np.array(
        [grid.magnitudes[i % len(grid.magnitudes)] * sigmas[ch] for i, ch in enumerate(channels)]
    )
    onset = int(round(grid.onset_fraction * X_val.shape[0]))
    X_val_faulty = inject_step_fault(X_val, channels, magnitudes, onset)

    rows: list[ScoreboardRow] = []
    for r in grid.r_candidates:
        for s in grid.s_candidates:
            cfg = replace(em, r=r, s=s)
            started = time.perf_counter()
            try:
                model, trace = train_monitoring_model(X_train, cfg, alpha)
                report = model.score(X_val_faulty)
                fdr = report.alarm_rates(slice(onset, None))["any"]
                far = report.alarm_rates(slice(0, onset))["any"]
            except PpfaError as exc:
                rows.append(ScoreboardRow(
                    r=r, s=s, fdr=float("nan"), far=float("nan"), loglik=float("nan"),
                    train_seconds=time.perf_counter() - started,
                    skipped=f"{type(exc).__name__}: {exc}",
                ))
                continue
            best_loglik = max([trace.init_loglik] + list(trace.logliks()))
            rows.append(ScoreboardRow(
                r=r, s=s, fdr=fdr, far=far,
                loglik=float(best_loglik),
                train_seconds=time.perf_counter() - started,
            ))

    usable_rows = [row for row in rows if row.skipped is None]
    if not usable_rows:
        raise ConvergenceError("every candidate pair failed to train")
    best = max(usable_rows, key=lambda row: (row.fdr - row.far, -row.r * row.s, -row.s))
    return SelectionResult(r=best.r, s=best.s, scoreboard=tuple(rows))
