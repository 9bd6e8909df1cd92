"""Forward filtering and backward smoothing on the stacked first-order model.

The filter conditions on observations from the point where a full stacked
state exists: for a series of n+s rows the first belief corresponds to row
index s-1 (the s-th sample), initialized from the N(0, I_rs) prior. The
smoother is the fixed-interval backward recursion; it also accumulates the
lag-one cross second moments needed by the trainer and by the dynamics
covariance of the monitoring statistics.

Steady state. The covariance recursion depends on the parameters only, not
on the data, and for this time-invariant model it converges to its steady
state (Anderson & Moore, *Optimal Filtering*, 1979), typically within a few
dozen steps. Each step computes the prediction covariance P, the innovation
covariance S, its Cholesky factor and log-determinant, the gain K and the
posterior covariance V exactly until

    max|P_k - P_{k-1}| <= STEADY_ULPS * eps * max|P_k|.

V, K and S are functions of P alone, so from then on every step reuses that
step's covariance quantities, carried by the belief, and only updates the
mean (pred = Phi mu, e = x - Hk pred, mu = pred + K e). The reused values
differ from the exact recursion's by a few ulps; the tests compare both
within 1e-12 relative. A series too short or a model too close to a unit
root never meets the bound, and the exact recursion then runs throughout.
The smoother uses the same switch: its gain J is constant over the steady
rows, and its covariance recursion is frozen once it meets the same bound.

The batch filter and ``filter_step`` run the same per-row step, so filtering
one row at a time reproduces a batch pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .errors import ConfigError, NumericsError
from .statespace import AugmentedParams

_LOG_2PI = np.log(2.0 * np.pi)
# The covariance recursion counts as steady once successive prediction
# covariances agree to this many float64 epsilons of their largest entry.
STEADY_ULPS = 4.0
_STEADY_RTOL = STEADY_ULPS * np.finfo(float).eps


class StepCovariance(NamedTuple):
    """The data-independent quantities of one filter step.

    P is the prediction covariance that entered the update (Phi V_prev Phi^T
    + GammaK, or the identity prior at the first step), V the posterior
    covariance, K the gain, chol the lower Cholesky factor of the innovation
    covariance S and logdet its log-determinant. ``steady`` marks the step
    at which the recursion met the steady-state bound; every later step
    reuses this object.
    """

    P: np.ndarray
    V: np.ndarray
    K: np.ndarray
    chol: np.ndarray
    logdet: float
    steady: bool


class AugmentedBelief(NamedTuple):
    """Posterior of the stacked state after one measurement update: the mean
    mu and the step's covariance quantities (V, P and the gain)."""

    mu: np.ndarray
    covariance: StepCovariance

    @property
    def V(self) -> np.ndarray:
        return self.covariance.V

    @property
    def P(self) -> np.ndarray:
        return self.covariance.P


@dataclass(frozen=True)
class FilterResult:
    """One forward pass over T rows.

    Attributes
    ----------
    mu : (T, d) posterior means.
    innovation : (T, m) one-step prediction errors x_k - Hk Phi mu_{k-1}.
    log_density : (T,) one-step predictive log-densities of the rows.
    covariances : the G distinct StepCovariance objects of the pass; row k
        uses ``covariances[min(k, G - 1)]``. G < T means the filter was
        steady from row G - 1 on.

    ``result[k]`` is the belief after row k, so a pass reads like a list of
    beliefs and filtering can continue from ``result[-1]``.
    """

    mu: np.ndarray
    innovation: np.ndarray
    log_density: np.ndarray
    covariances: tuple[StepCovariance, ...]

    def __len__(self) -> int:
        return self.mu.shape[0]

    def __getitem__(self, k: int) -> AugmentedBelief:
        k = range(len(self))[k]
        return AugmentedBelief(self.mu[k], self.covariances[min(k, len(self.covariances) - 1)])

    @property
    def V(self) -> np.ndarray:
        """(G, d, d) posterior covariances of the distinct steps."""
        return np.stack([c.V for c in self.covariances])

    @property
    def P(self) -> np.ndarray:
        """(G, d, d) prediction covariances of the distinct steps."""
        return np.stack([c.P for c in self.covariances])

    def log_likelihood(self) -> float:
        """Marginal log-likelihood of the filtered rows."""
        return float(np.sum(self.log_density))


@dataclass(frozen=True)
class SmoothedMoments:
    """Smoothed posterior moments of the stacked state for every filtered step.

    Attributes
    ----------
    mean : (T, d) array of smoothed means.
    cov : (T, d, d) array of smoothed covariances.
    lag1 : (T-1, d, d) array; lag1[k] = E[t_{k+1} t_k^T] (full second moment,
        mean outer product included).
    r, s : latent dimension and lag order of the underlying model.
    """

    mean: np.ndarray
    cov: np.ndarray
    lag1: np.ndarray
    r: int
    s: int

    @property
    def n_steps(self) -> int:
        return self.mean.shape[0]

    def second_moment(self, k: int) -> np.ndarray:
        """E[t_k t_k^T] of the stacked state at step k."""
        return self.cov[k] + np.outer(self.mean[k], self.mean[k])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _converged(new: np.ndarray, old: np.ndarray) -> bool:
    return bool(np.max(np.abs(new - old)) <= _STEADY_RTOL * np.max(np.abs(new)))


def _step_covariance(
    aug: AugmentedParams,
    Sigma: np.ndarray,
    prev: StepCovariance | None,
) -> StepCovariance:
    """Covariance quantities of the next step; a steady ``prev`` is reused."""
    if prev is None:
        P = np.eye(aug.dim)
    elif prev.steady:
        return prev
    else:
        P = _symmetrize(aug.Phi @ prev.V @ aug.Phi.T + aug.GammaK)
    PHt = P @ aug.Hk.T
    S = _symmetrize(aug.Hk @ PHt) + np.diag(Sigma)
    chol, info = scipy.linalg.lapack.dpotrf(S, lower=1, clean=1)
    if info != 0:
        raise NumericsError(
            f"innovation covariance is not positive definite (potrf info {info})"
        )
    Kt, _ = scipy.linalg.lapack.dpotrs(chol, PHt.T, lower=1)
    K = Kt.T
    V = _symmetrize(P - K @ PHt.T)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    steady = prev is not None and _converged(P, prev.P)
    return StepCovariance(P=P, V=V, K=K, chol=chol, logdet=logdet, steady=steady)


def filter_step(
    aug: AugmentedParams,
    Sigma: np.ndarray,
    belief: AugmentedBelief | None,
    x: np.ndarray,
) -> tuple[AugmentedBelief, np.ndarray, np.ndarray]:
    """One predict-and-update step of the forward filter.

    With ``belief=None`` the stacked-state prior N(0, I) is used as the
    prediction, which is exactly the first-step initialization. Returns the
    new belief, the filtered point estimate of the stacked state, and the
    innovation x - Hk Phi mu_prev. The caller checks that x is finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (aug.Hk.shape[0],):
        raise ConfigError(f"observation has shape {x.shape}, expected ({aug.Hk.shape[0]},)")
    if belief is None:
        cov = _step_covariance(aug, Sigma, None)
        pred = np.zeros(aug.dim)
    else:
        cov = _step_covariance(aug, Sigma, belief.covariance)
        pred = aug.Phi @ belief.mu
    innovation = x - aug.Hk @ pred
    mu = pred + cov.K @ innovation
    return AugmentedBelief(mu, cov), mu, innovation


def _log_densities(covariances: tuple[StepCovariance, ...], innovation: np.ndarray) -> np.ndarray:
    """Gaussian log-densities of the innovations; the rows sharing the last
    (steady) covariance are solved as one block."""
    T, m = innovation.shape
    G = len(covariances)
    out = np.empty(T)
    for g, cov in enumerate(covariances):
        rows = slice(g, None if g == G - 1 else g + 1)
        w, _ = scipy.linalg.lapack.dtrtrs(cov.chol, innovation[rows].T, lower=1)
        out[rows] = -0.5 * (m * _LOG_2PI + cov.logdet + np.sum(w * w, axis=0))
    return out


def forward_filter(
    aug: AugmentedParams,
    Sigma: np.ndarray,
    X: np.ndarray,
    start: int | None = None,
) -> FilterResult:
    """Filter a whitened (n+s, m) series from row ``start`` on.

    The default start is row s-1, the first row with a full stacked state;
    ``start=0`` filters every row as an online stream does.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigError(f"X must be 2-D, got ndim {X.ndim}")
    start = aug.s - 1 if start is None else start
    if X.shape[0] <= start:
        raise ConfigError(f"need more than {start} rows to filter from row {start}, "
                          f"got {X.shape[0]}")
    rows = X[start:]
    T = rows.shape[0]
    mu = np.empty((T, aug.dim))
    innovation = np.empty((T, aug.Hk.shape[0]))
    covariances: list[StepCovariance] = []
    belief: AugmentedBelief | None = None
    for k in range(T):
        belief, mu[k], innovation[k] = filter_step(aug, Sigma, belief, rows[k])
        if not covariances or belief.covariance is not covariances[-1]:
            covariances.append(belief.covariance)
    covariances = tuple(covariances)
    return FilterResult(
        mu=mu,
        innovation=innovation,
        log_density=_log_densities(covariances, innovation),
        covariances=covariances,
    )


def backward_smooth(
    aug: AugmentedParams,
    filtered: FilterResult,
) -> SmoothedMoments:
    """Fixed-interval smoother over a forward pass.

    Implements mu_hat_k = mu_k + J_k (mu_hat_{k+1} - Phi mu_k) and
    V_hat_k = V_k + J_k (V_hat_{k+1} - P_{k+1}) J_k^T with gain
    J_k = V_k Phi^T P_{k+1}^{-1}; the last step is the filtered belief itself.
    The lag-one second moment E[t_{k+1} t_k^T] is
    V_hat_{k+1} J_k^T + mu_hat_{k+1} mu_hat_k^T.
    """
    T = len(filtered)
    if T == 0:
        raise ConfigError("no filtered beliefs to smooth")
    covs = filtered.covariances
    G = len(covs)
    d = aug.dim
    # J_k depends on (V_k, P_{k+1}); both are the steady ones from k = G-1 on.
    gains = []
    for k in range(min(G, T - 1)):
        P_next = covs[min(k + 1, G - 1)].P
        try:
            # J_k = V_k Phi^T P_next^{-1}, via P_next J^T = Phi V_k.
            gains.append(np.linalg.solve(P_next, aug.Phi @ covs[k].V).T)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"prediction covariance singular at smoothing step {k}: {exc}"
            ) from exc

    mu = filtered.mu
    pred = mu @ aug.Phi.T
    mean = np.empty((T, d))
    cov = np.empty((T, d, d))
    mean[-1] = mu[-1]
    cov[-1] = filtered[-1].V
    frozen = False
    for k in range(T - 2, -1, -1):
        J = gains[min(k, G - 1)]
        mean[k] = mu[k] + J @ (mean[k + 1] - pred[k])
        if frozen and k >= G - 1:
            cov[k] = cov[k + 1]
            continue
        step = covs[min(k, G - 1)]
        P_next = covs[min(k + 1, G - 1)].P
        cov[k] = _symmetrize(step.V + J @ (cov[k + 1] - P_next) @ J.T)
        frozen = k >= G - 1 and _converged(cov[k], cov[k + 1])

    if T > 1:
        Jt = np.stack([J.T for J in gains])[np.minimum(np.arange(T - 1), len(gains) - 1)]
        lag1 = cov[1:] @ Jt + mean[1:, :, None] * mean[:-1, None, :]
    else:
        lag1 = np.empty((0, d, d))
    return SmoothedMoments(mean=mean, cov=cov, lag1=lag1, r=aug.r, s=aug.s)


def one_step_predictions(
    aug: AugmentedParams,
    Sigma: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """One-step-ahead observation predictions for rows s-1 .. n+s-1 of X.

    The first prediction is zero (the prior mean); useful for held-out
    prediction-error comparisons between models.
    """
    X = np.asarray(X, dtype=float)
    return X[aug.s - 1:] - forward_filter(aug, Sigma, X).innovation


def log_likelihood_filter(
    aug: AugmentedParams,
    Sigma: np.ndarray,
    X: np.ndarray,
) -> float:
    """Exact marginal log-likelihood of rows s-1 .. of X under the model,
    accumulated from the filter's prediction-error decomposition."""
    return forward_filter(aug, Sigma, X).log_likelihood()
