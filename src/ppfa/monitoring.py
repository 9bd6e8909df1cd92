"""Online monitoring statistics, KDE control limits, and alarm logic.

Three statistics are tracked per sample: the squared norm of the filtered
stacked latent estimate (T2), the squared one-step prediction error of the
measurement (SPE), and the Mahalanobis norm of the latent first difference
under the training-time difference covariance (DI). ``MonitorSession``
computes them for scoring, ``calibrate`` for the training series. Control
limits are quantiles of each statistic's training distribution estimated
with a Gaussian-kernel KDE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import ConfigError, NumericsError
from .kalman import AugmentedBelief, backward_smooth, filter_step, forward_filter
from .preprocess import WhiteningTransform, apply_whitening, require_finite
from .statespace import ModelParams, augment

VERDICT_NORMAL = "normal"
VERDICT_DYNAMIC = "dynamic-or-shift"
VERDICT_CORRELATION = "correlation-break"
VERDICT_BOTH = "both"

_MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class DynamicsCovariance:
    """Covariance of the stacked-latent first difference, kept positive
    definite by a small ridge when needed."""

    D: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ConfigError(f"D must be square, got shape {D.shape}")
        if np.max(np.abs(D - D.T)) > 1e-10 * max(1.0, float(np.max(np.abs(D)))):
            raise ConfigError("D must be symmetric")
        object.__setattr__(self, "D", D)
        chol, info = scipy.linalg.lapack.dpotrf(D, lower=1, clean=1)
        if info != 0:
            raise NumericsError(f"D is not positive definite (potrf info {info})")
        object.__setattr__(self, "_chol", chol)

    def mahalanobis(self, delta: np.ndarray) -> float:
        delta = np.asarray(delta, dtype=float)
        return float(delta @ scipy.linalg.lapack.dpotrs(self._chol, delta, lower=1)[0])

    def mahalanobis_rows(self, deltas: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis norms of the rows of an (n, d) array."""
        solved = scipy.linalg.lapack.dpotrs(self._chol, deltas.T, lower=1)[0]
        return np.einsum("ij,ij->j", deltas.T, solved)


@dataclass(frozen=True)
class ControlLimits:
    """Alarm thresholds at confidence level alpha, one per statistic."""

    t2: float
    spe: float
    di: float
    alpha: float
    bandwidths: tuple[float, float, float] = (float("nan"),) * 3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        for name in ("t2", "spe", "di"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} limit must be finite and positive, got {value}")


def estimate_D(moments) -> DynamicsCovariance:
    """Time-averaged second moment of the stacked-latent first difference.

    Averages E[t_k t_k^T] - E[t_k t_{k-1}^T] - E[t_{k-1} t_k^T]
    + E[t_{k-1} t_{k-1}^T] over the smoothed transition steps, then adds a
    ridge if the smallest eigenvalue is below the positive-definiteness
    threshold (a perfectly static latent leaves a ridge-only matrix).
    """
    T = moments.n_steps
    if T < 2:
        raise ConfigError("need at least two smoothed steps to estimate D")
    d = moments.mean.shape[1]
    mean, cov = moments.mean, moments.cov
    # Every step k enters twice, as the current and as the previous state,
    # except the first (previous only) and the last (current only).
    second = 2.0 * (cov.sum(axis=0) + mean.T @ mean)
    second -= moments.second_moment(0) + moments.second_moment(T - 1)
    cross = moments.lag1.sum(axis=0)
    D = (second - cross - cross.T) / (T - 1)
    D = 0.5 * (D + D.T)
    eigvals = np.linalg.eigvalsh(D)
    if eigvals[0] < _MIN_EIGENVALUE:
        ridge = max(1e-8 * float(np.trace(D)) / d, _MIN_EIGENVALUE)
        ridge += max(-float(eigvals[0]), 0.0)
        D = D + ridge * np.eye(d)
    return DynamicsCovariance(D=D)


def kde_limit(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """Quantile of a Gaussian-kernel KDE fitted to the values.

    The bandwidth follows Silverman's rule; the limit solves
    P(v < psi) = alpha under the KDE cumulative distribution by monotone
    root search to 1e-8.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ConfigError("values must be a 1-D array")
    n = values.shape[0]
    if n < 100:
        raise ConfigError(f"need at least 100 values for a KDE limit, got {n}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("values must be finite")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    std = float(np.std(values, ddof=1))
    if std == 0.0:
        raise NumericsError("all values identical: KDE bandwidth would be zero")
    iqr = float(np.subtract(*np.percentile(values, [75, 25])))
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    bandwidth = 0.9 * scale * n ** (-0.2)

    def cdf(psi: float) -> float:
        return float(np.mean(ndtr((psi - values) / bandwidth)))

    lo = float(values.min()) - 40.0 * bandwidth
    hi = float(values.max()) + 40.0 * bandwidth
    psi = brentq(lambda p: cdf(p) - alpha, lo, hi, xtol=1e-8)
    return float(psi), bandwidth


@dataclass
class MonitorReport:
    """Per-sample statistics, alarm flags, verdicts, and burn-in marks."""

    t2: np.ndarray
    spe: np.ndarray
    di: np.ndarray
    flag_t2: np.ndarray
    flag_spe: np.ndarray
    flag_di: np.ndarray
    verdict: list[str]
    burn_in: np.ndarray
    start_index: int = 0

    def __len__(self) -> int:
        return self.t2.shape[0]

    @staticmethod
    def concat(reports: list["MonitorReport"]) -> "MonitorReport":
        return MonitorReport(
            t2=np.concatenate([rep.t2 for rep in reports]),
            spe=np.concatenate([rep.spe for rep in reports]),
            di=np.concatenate([rep.di for rep in reports]),
            flag_t2=np.concatenate([rep.flag_t2 for rep in reports]),
            flag_spe=np.concatenate([rep.flag_spe for rep in reports]),
            flag_di=np.concatenate([rep.flag_di for rep in reports]),
            verdict=[v for rep in reports for v in rep.verdict],
            burn_in=np.concatenate([rep.burn_in for rep in reports]),
            start_index=reports[0].start_index if reports else 0,
        )

    def alarm_rates(self, rows: slice | np.ndarray | None = None, skip_burn_in: bool = True):
        """Fraction of rows with each flag raised, optionally restricted to a
        row selection and excluding burn-in rows."""
        mask = np.ones(len(self), dtype=bool)
        if rows is not None:
            selected = np.zeros(len(self), dtype=bool)
            selected[rows] = True
            mask &= selected
        if skip_burn_in:
            mask &= ~self.burn_in
        count = int(mask.sum())
        if count == 0:
            raise ConfigError("no rows selected for alarm-rate computation")
        return {
            "t2": float(self.flag_t2[mask].mean()),
            "spe": float(self.flag_spe[mask].mean()),
            "di": float(self.flag_di[mask].mean()),
            "any": float((self.flag_t2 | self.flag_spe | self.flag_di)[mask].mean()),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,T2,SPE,DI,flag_T2,flag_SPE,flag_DI,verdict,burn_in\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.start_index + i},{float(self.t2[i])!r},{float(self.spe[i])!r},"
                    f"{float(self.di[i])!r},"
                    f"{int(self.flag_t2[i])},{int(self.flag_spe[i])},{int(self.flag_di[i])},"
                    f"{self.verdict[i]},{int(self.burn_in[i])}\n"
                )


def _verdict(flag_t2: bool, flag_spe: bool, flag_di: bool) -> str:
    dynamic = flag_t2 or flag_di
    correlation = flag_spe
    if dynamic and correlation:
        return VERDICT_BOTH
    if dynamic:
        return VERDICT_DYNAMIC
    if correlation:
        return VERDICT_CORRELATION
    return VERDICT_NORMAL


class MonitorSession:
    """The one scorer: T2, SPE and DI of one measurement stream, row by row.

    Batch scoring (``TrainedModel.score``) and one-row streaming both run
    through this class. The session owns the stream's filter belief, the
    previous latent estimate and the count of rows seen, so scoring a series
    in chunks gives exactly the same rows as scoring it in a single call. The
    first row is scored against the stacked-state prior and has no first
    difference, so its DI is zero; the first s rows are marked as burn-in.
    """

    def __init__(
        self,
        params: ModelParams,
        whitening: WhiteningTransform,
        dynamics: DynamicsCovariance,
        limits: ControlLimits,
    ):
        if whitening.n_channels != params.m:
            raise ConfigError(
                f"whitening transform has {whitening.n_channels} channels, model has {params.m}"
            )
        self._params = params
        self._whitening = whitening
        self._dynamics = dynamics
        self._limits = limits
        self._aug = augment(params)
        self._belief: AugmentedBelief | None = None
        self._prev_mu: np.ndarray | None = None
        self._rows_seen = 0

    def score(self, X_raw: np.ndarray) -> MonitorReport:
        """Score the next (rows, m) block of raw measurements. A non-finite
        cell raises DataError naming its row and column; a block that raises
        leaves the session as it was."""
        X_raw = np.asarray(X_raw, dtype=float)
        if X_raw.ndim != 2:
            raise ConfigError(f"X must be 2-D, got ndim {X_raw.ndim}")
        if X_raw.shape[1] != self._params.m:
            raise ConfigError(
                f"data has {X_raw.shape[1]} columns, model expects {self._params.m}"
            )
        require_finite(X_raw)
        n = X_raw.shape[0]
        start = self._rows_seen
        X_w = apply_whitening(self._whitening, X_raw)
        t2 = np.empty(n)
        spe = np.empty(n)
        di = np.empty(n)
        aug, Sigma, dynamics = self._aug, self._params.Sigma, self._dynamics
        belief, prev_mu = self._belief, self._prev_mu
        for i in range(n):
            belief, mu, innovation = filter_step(aug, Sigma, belief, X_w[i])
            t2[i] = mu @ mu
            spe[i] = innovation @ innovation
            di[i] = 0.0 if prev_mu is None else dynamics.mahalanobis(mu - prev_mu)
            prev_mu = mu
        self._belief, self._prev_mu = belief, prev_mu
        self._rows_seen += n
        lim = self._limits
        flag_t2 = t2 > lim.t2
        flag_spe = spe > lim.spe
        flag_di = di > lim.di
        verdict = [
            _verdict(bool(flag_t2[i]), bool(flag_spe[i]), bool(flag_di[i])) for i in range(n)
        ]
        return MonitorReport(
            t2=t2, spe=spe, di=di,
            flag_t2=flag_t2, flag_spe=flag_spe, flag_di=flag_di,
            verdict=verdict, burn_in=np.arange(start, start + n) < self._params.s,
            start_index=start,
        )


def calibrate(
    params: ModelParams,
    X_train: np.ndarray,
    alpha: float,
) -> tuple[ControlLimits, DynamicsCovariance]:
    """Estimate D and the three control limits from whitened training data.

    D comes from the smoothed training moments; the statistic series come
    from one filter pass over every training row from row 0, as online
    scoring filters a stream, so the limits match online scoring
    conditions. The T2 and SPE series keep the first s rows, which scoring
    marks as burn-in; the first sample's DI is excluded (it has no first
    difference).
    """
    X_train = np.asarray(X_train, dtype=float)
    aug = augment(params)
    filtered = forward_filter(aug, params.Sigma, X_train)
    dynamics = estimate_D(backward_smooth(aug, filtered))

    online = filtered if aug.s == 1 else forward_filter(aug, params.Sigma, X_train, start=0)
    t2 = np.einsum("ij,ij->i", online.mu, online.mu)
    spe = np.einsum("ij,ij->i", online.innovation, online.innovation)
    di = dynamics.mahalanobis_rows(np.diff(online.mu, axis=0))

    psi_t2, bw_t2 = kde_limit(t2, alpha)
    psi_spe, bw_spe = kde_limit(spe, alpha)
    psi_di, bw_di = kde_limit(di, alpha)
    for name, psi, series in (("T2", psi_t2, t2), ("SPE", psi_spe, spe), ("DI", psi_di, di)):
        if psi <= float(np.median(series)):
            raise NumericsError(f"{name} control limit fell below the training median")
    limits = ControlLimits(
        t2=psi_t2, spe=psi_spe, di=psi_di, alpha=alpha,
        bandwidths=(bw_t2, bw_spe, bw_di),
    )
    return limits, dynamics
