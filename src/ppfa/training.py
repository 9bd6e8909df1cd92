"""EM training loop: Kalman-smoothed E-step, closed-form emission/noise
updates, and GA-solved transition coefficients.

The observed-data log-likelihood is the exact filter likelihood of the rows
the stacked filter conditions on (the s-th row onward). The emission and
noise updates maximize the expected complete-data log-likelihood over exactly
those rows, which keeps the closed-form part of the loop monotone; the GA
step is stochastic, so the best-likelihood iterate is tracked and returned
rather than the last one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, PpfaError
from .genetic import BetaObjective, GaConfig, minimize
from .kalman import SmoothedMoments, backward_smooth, forward_filter, log_likelihood_filter
from .preprocess import require_finite
from .statespace import (
    ModelParams,
    augment,
    gamma_from_beta,
    spectral_radius,
    stationary_autocovariances,
)

SIGMA_FLOOR = 1e-8
GAMMA_FLOOR = 1e-8
INIT_SIGMA_FLOOR = 1e-4


@dataclass(frozen=True)
class EmConfig:
    """Settings for one training run."""

    r: int
    s: int
    max_iterations: int = 50
    loglik_rel_tol: float = 1e-6
    ga: GaConfig = field(default_factory=GaConfig)
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError("r must be >= 1")
        if self.s < 1:
            raise ConfigError("s must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not (math.isfinite(self.loglik_rel_tol) and self.loglik_rel_tol > 0):
            raise ConfigError(
                f"loglik_rel_tol must be finite and positive, got {self.loglik_rel_tol}"
            )


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loglik: float
    unit_variance_residual: float
    beta: np.ndarray
    seconds: float
    warnings: tuple[str, ...] = ()


@dataclass
class TrainingTrace:
    """Per-iteration record of the EM run."""

    init_loglik: float = float("nan")
    rows: list[TraceRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def logliks(self) -> np.ndarray:
        return np.array([row.loglik for row in self.rows])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,loglik,residual,seconds\n")
            for row in self.rows:
                fh.write(
                    f"{row.iteration},{row.loglik!r},"
                    f"{row.unit_variance_residual!r},{row.seconds:.3f}\n"
                )


def init_params(X: np.ndarray, cfg: EmConfig) -> ModelParams:
    """Initial parameters from the lag-one autocovariance spectrum.

    Whitened data has a flat covariance spectrum, so plain principal
    directions are direction-degenerate; the eigenvectors of the symmetrized
    lag-one autocovariance ranked by eigenvalue magnitude point at the most
    predictable directions instead, which is what the latents must capture.
    Emission columns are those directions scaled by their data variance;
    transition coefficients start as small random stable values; noise is
    the per-channel residual variance of the projection, floored at 1e-4.
    """
    X = np.asarray(X, dtype=float)
    m = X.shape[1]
    if cfg.r > m:
        raise ConfigError(f"latent dimension r={cfg.r} exceeds channel count m={m}")
    if X.shape[0] < 3:
        raise ConfigError("need at least 3 rows to initialize")
    centered = X - X.mean(axis=0)
    denom = X.shape[0] - 1
    cov = centered.T @ centered / denom
    lag1 = centered[1:].T @ centered[:-1] / denom
    lag1 = 0.5 * (lag1 + lag1.T)
    eigvals, eigvecs = np.linalg.eigh(lag1)
    order = np.argsort(np.abs(eigvals))[::-1][: cfg.r]
    top_vecs = eigvecs[:, order]
    var_along = np.clip(np.einsum("ji,jk,ki->i", top_vecs, cov, top_vecs), 0.0, None)
    H = top_vecs * np.sqrt(var_along)

    resid = centered - (centered @ top_vecs) @ top_vecs.T
    Sigma = np.maximum(resid.var(axis=0), INIT_SIGMA_FLOOR)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    B = np.empty((cfg.s, cfg.r))
    for i in range(cfg.r):
        draw = rng.uniform(-0.3, 0.3, size=cfg.s)
        while spectral_radius(draw) >= 0.9:
            draw *= 0.5
        B[:, i] = draw
    return ModelParams.from_dynamics(B=B, H=H, Sigma=Sigma)


def e_step(params: ModelParams, X: np.ndarray) -> SmoothedMoments:
    """Smoothed posterior moments of the stacked latent trajectory."""
    aug = augment(params)
    return backward_smooth(aug, forward_filter(aug, params.Sigma, X))


def log_likelihood(params: ModelParams, X: np.ndarray) -> float:
    """Observed-data log-likelihood from the filter's prediction errors."""
    return log_likelihood_filter(augment(params), params.Sigma, X)


def _emission_sums(moments: SmoothedMoments, X_obs: np.ndarray):
    """Sums over the scored rows of x E[t]^T, E[t t^T], and E[t] itself,
    restricted to the current-time block of the stacked state."""
    r = moments.r
    mean_r = moments.mean[:, :r]
    St_xt = X_obs.T @ mean_r
    St_tt = moments.cov[:, :r, :r].sum(axis=0) + mean_r.T @ mean_r
    return St_xt, St_tt, mean_r


def update_H(moments: SmoothedMoments, X: np.ndarray) -> np.ndarray:
    """Closed-form emission update (sum x E[t]^T)(sum E[t t^T])^{-1}."""
    X_obs = np.asarray(X, dtype=float)[moments.s - 1:]
    if X_obs.shape[0] != moments.n_steps:
        raise ConfigError(
            f"X has {X_obs.shape[0]} scored rows but moments cover {moments.n_steps}"
        )
    St_xt, St_tt, _ = _emission_sums(moments, X_obs)
    diag = np.diag(St_tt)
    collapsed = np.nonzero(diag <= 1e-12 * max(diag.max(), 1.0))[0]
    if collapsed.size:
        raise NumericsError(
            f"latent dimension(s) {collapsed.tolist()} have collapsed second moments; "
            "cannot update the emission matrix"
        )
    try:
        return np.linalg.solve(St_tt, St_xt.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"latent second-moment matrix is singular: {exc}") from exc


def update_Sigma(moments: SmoothedMoments, X: np.ndarray, H_new: np.ndarray) -> np.ndarray:
    """Per-channel noise variance from the expected squared residuals."""
    X_obs = np.asarray(X, dtype=float)[moments.s - 1:]
    _, St_tt, mean_r = _emission_sums(moments, X_obs)
    count = X_obs.shape[0]
    term1 = np.sum(X_obs ** 2, axis=0)
    term2 = -2.0 * np.sum(X_obs * (mean_r @ H_new.T), axis=0)
    term3 = np.einsum("ij,jk,ik->i", H_new, St_tt, H_new)
    return np.maximum((term1 + term2 + term3) / count, SIGMA_FLOOR)


def lagged_moment_matrix(moments: SmoothedMoments, latent: int) -> np.ndarray:
    """(s+1, s+1) matrix of summed expected lagged products for one latent.

    Entry (a, b) is sum_k E[t_{k-a} t_{k-b}] over the transition steps
    (every filtered step except the first); index 0 is the current time.
    All entries are sub-block reads of the stacked smoothed moments.
    """
    r, s = moments.r, moments.s
    T = moments.n_steps
    if T < 2:
        raise ConfigError("need at least two filtered steps to form lagged moments")
    idx = np.arange(s) * r + latent  # components t_{k}, t_{k-1}, .., t_{k-s+1}
    last = (s - 1) * r + latent      # oldest component of the stacked state

    M = np.empty((s + 1, s + 1))
    second = moments.cov[1:][:, idx[:, None], idx[None, :]] + (
        moments.mean[1:][:, idx, None] * moments.mean[1:][:, None, idx]
    )
    M[:s, :s] = second.sum(axis=0)
    # E[t_{k-a} t_{k-s}] comes from the lag-one cross moment with step k-1.
    cross = moments.lag1[:, idx, last].sum(axis=0)
    M[:s, s] = cross
    M[s, :s] = cross
    corner = moments.cov[:-1, last, last] + moments.mean[:-1, last] ** 2
    M[s, s] = corner.sum()
    return M


def update_beta(
    moments: SmoothedMoments,
    prev: ModelParams,
    cfg: EmConfig,
    iteration: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """GA update of the transition coefficients, one latent at a time.

    The objective uses autocovariances estimated from the smoothed moments;
    the returned noise variances are recomputed from the accepted
    coefficients' stationary autocovariances so the unit-variance constraint
    holds exactly. A GA result that is infeasible or unstable keeps the
    previous iterate's coefficients for that latent and records a warning.
    """
    r, s = moments.r, moments.s
    n_trans = moments.n_steps - 1
    B_new = np.empty((s, r))
    Gamma_new = np.empty(r)
    warnings: list[str] = []
    for i in range(r):
        M = lagged_moment_matrix(moments, i)
        gamma_hat = np.clip(M[0, 1:] / n_trans, -1.0, 1.0)
        obj = BetaObjective(gamma=gamma_hat, moments=M, n=float(n_trans))
        seed = int(np.random.SeedSequence([cfg.ga.seed, 7, iteration, i]).generate_state(1)[0])
        result = minimize(obj, cfg.ga, warm_start=prev.B[:, i], seed=seed)
        beta = result.beta
        if not result.feasible or spectral_radius(beta) >= 1.0 - 1e-9:
            warnings.append(
                f"latent {i}: GA result infeasible or unstable, keeping previous coefficients"
            )
            beta = prev.B[:, i].copy()
        B_new[:, i] = beta
        gam = stationary_autocovariances(beta)
        Gamma_new[i] = max(gamma_from_beta(beta, gam), GAMMA_FLOOR)
    return B_new, Gamma_new, warnings


def fit(X: np.ndarray, cfg: EmConfig) -> tuple[ModelParams, TrainingTrace]:
    """Run EM to convergence and return the best-likelihood iterate.

    X must already be whitened and finite; a non-finite cell raises
    DataError naming its row and column. Convergence is declared when the
    relative change of the observed-data log-likelihood drops below
    ``cfg.loglik_rel_tol`` or after ``cfg.max_iterations`` iterations.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigError(f"X must be 2-D, got ndim {X.ndim}")
    require_finite(X)
    if X.shape[0] <= 10 * cfg.s:
        raise ConfigError(
            f"need more than {10 * cfg.s} rows to fit with lag order s={cfg.s}, "
            f"got {X.shape[0]}"
        )

    params = init_params(X, cfg)
    # Each iterate's filter pass gives its log-likelihood and feeds the next
    # E-step, so every parameter set is filtered once.
    aug = augment(params)
    filtered = forward_filter(aug, params.Sigma, X)
    trace = TrainingTrace()
    trace.init_loglik = filtered.log_likelihood()
    best_params = params
    best_loglik = trace.init_loglik
    prev_loglik = trace.init_loglik

    for it in range(1, cfg.max_iterations + 1):
        started = time.perf_counter()
        try:
            moments = backward_smooth(aug, filtered)
            H_new = update_H(moments, X)
            Sigma_new = update_Sigma(moments, X, H_new)
            B_new, Gamma_new, warns = update_beta(moments, params, cfg, iteration=it)
            params = ModelParams(B=B_new, H=H_new, Gamma=Gamma_new, Sigma=Sigma_new)
            aug = augment(params)
            filtered = forward_filter(aug, params.Sigma, X)
            loglik = filtered.log_likelihood()
        except PpfaError as exc:
            raise type(exc)(f"EM iteration {it}: {exc}") from exc
        trace.rows.append(
            TraceRow(
                iteration=it,
                loglik=loglik,
                unit_variance_residual=float(np.max(params.unit_variance_residual())),
                beta=params.B.copy(),
                seconds=time.perf_counter() - started,
                warnings=tuple(warns),
            )
        )
        if loglik > best_loglik:
            best_loglik = loglik
            best_params = params
        if abs(loglik - prev_loglik) < cfg.loglik_rel_tol * abs(prev_loglik):
            break
        prev_loglik = loglik

    return best_params, trace
