"""Latent dynamic model with diagonal high-order autoregressive transitions.

The generative model for an m-channel measurement series is

    t_k = sum_j B_j t_{k-j} + e_k,      e_k ~ N(0, diag(Gamma))
    x_k = H t_k + eps_k,                eps_k ~ N(0, diag(Sigma))

with r latent variables, lag order s, diagonal B_j, and the constraint that
every latent variable is zero-mean with unit stationary variance. The unit
variance constraint ties the latent noise variances to the autoregressive
coefficients: tau_i^2 = 1 - sum_j beta_j^i gamma_j^i, where gamma_j^i is the
stationary lag-j autocovariance of latent i.

This module owns the parameter containers, the stationarity algebra, the
first-order (stacked) reformulation used by the Kalman recursions, and exact
simulation for benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError

# Maximum allowed gap between Gamma and the value implied by the unit-variance
# constraint; construction fails beyond this.
UNIT_VARIANCE_RTOL = 1e-6
# Companion spectral radius at or above this is treated as non-stationary.
STABILITY_LIMIT = 1.0


def companion_matrix(beta: np.ndarray) -> np.ndarray:
    """Companion matrix of a scalar AR(s) coefficient vector."""
    beta = np.asarray(beta, dtype=float)
    s = beta.shape[0]
    comp = np.zeros((s, s))
    comp[0, :] = beta
    if s > 1:
        comp[1:, :-1] = np.eye(s - 1)
    return comp


def spectral_radius(beta: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the AR companion matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(beta)))))


def stationary_autocovariances(beta: np.ndarray) -> np.ndarray:
    """Lag 1..s autocovariances of a stable unit-variance AR(s) process.

    Solves the Yule-Walker system gamma_j = sum_l beta_l gamma_{|j-l|} under
    gamma_0 = 1, the unique stationary solution consistent with the unit
    variance constraint.
    """
    beta = np.asarray(beta, dtype=float)
    s = beta.shape[0]
    rho = spectral_radius(beta)
    if rho >= STABILITY_LIMIT:
        raise NumericsError(
            f"AR coefficients are not stable (spectral radius {rho:.6f} >= 1); "
            "no stationary autocovariance exists"
        )
    # (I - C) gamma = b with C[j,k] collecting beta_l terms where |j-l| = k.
    A = np.eye(s)
    b = np.zeros(s)
    for j in range(1, s + 1):
        for l in range(1, s + 1):
            k = abs(j - l)
            if k == 0:
                b[j - 1] += beta[l - 1]
            else:
                A[j - 1, k - 1] -= beta[l - 1]
    return np.linalg.solve(A, b)


def gamma_from_beta(beta: np.ndarray, gamma: np.ndarray) -> float:
    """Latent noise variance implied by the unit-variance constraint.

    Returns 1 - sum_j beta_j gamma_j. Raises if the result is materially
    negative, which means the (beta, gamma) pair violates the constraint.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    tau2 = 1.0 - float(beta @ gamma)
    if tau2 < -1e-9:
        raise NumericsError(
            f"unit-variance constraint violated: implied noise variance {tau2:.3e} < 0"
        )
    return tau2


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the latent dynamic model.

    Attributes
    ----------
    B : (s, r) array
        Diagonal transition coefficients; B[j-1, i] is the lag-j coefficient
        of latent i.
    H : (m, r) array
        Emission matrix.
    Gamma : (r,) array
        Latent noise variances (tied to B by the unit-variance constraint).
    Sigma : (m,) array
        Measurement noise variances, strictly positive.
    """

    B: np.ndarray
    H: np.ndarray
    Gamma: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        H = np.asarray(self.H, dtype=float)
        Gamma = np.atleast_1d(np.asarray(self.Gamma, dtype=float))
        Sigma = np.atleast_1d(np.asarray(self.Sigma, dtype=float))
        if B.ndim != 2 or H.ndim != 2:
            raise ConfigError("B must be (s, r) and H must be (m, r); got "
                              f"ndim {B.ndim} and {H.ndim}")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "Sigma", Sigma)
        s, r = B.shape
        m = H.shape[0]
        if H.shape[1] != r:
            raise ConfigError(f"H has {H.shape[1]} columns, expected r={r}")
        if Gamma.shape != (r,):
            raise ConfigError(f"Gamma has shape {Gamma.shape}, expected ({r},)")
        if Sigma.shape != (m,):
            raise ConfigError(f"Sigma has shape {Sigma.shape}, expected ({m},)")
        if np.any(Gamma < 0):
            raise ConfigError("Gamma entries must be nonnegative")
        if np.any(Sigma <= 0):
            raise ConfigError("Sigma entries must be strictly positive")
        for i in range(r):
            rho = spectral_radius(B[:, i])
            if rho >= STABILITY_LIMIT:
                raise NumericsError(
                    f"latent {i} is unstable (companion spectral radius {rho:.6f} >= 1)"
                )
        resid = self.unit_variance_residual()
        if np.max(resid) > UNIT_VARIANCE_RTOL:
            raise ConfigError(
                "Gamma is inconsistent with the unit-variance constraint "
                f"(max residual {np.max(resid):.3e} > {UNIT_VARIANCE_RTOL:g})"
            )

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def r(self) -> int:
        return self.H.shape[1]

    @property
    def s(self) -> int:
        return self.B.shape[0]

    @classmethod
    def from_dynamics(cls, B: np.ndarray, H: np.ndarray, Sigma: np.ndarray) -> "ModelParams":
        """Build params with Gamma derived from the unit-variance constraint."""
        B = np.asarray(B, dtype=float)
        if B.ndim != 2:
            raise ConfigError(f"B must be (s, r), got ndim {B.ndim}")
        r = B.shape[1]
        Gamma = np.empty(r)
        for i in range(r):
            gam = stationary_autocovariances(B[:, i])
            Gamma[i] = gamma_from_beta(B[:, i], gam)
        return cls(B=B, H=np.asarray(H, dtype=float), Gamma=Gamma, Sigma=np.asarray(Sigma, dtype=float))

    def unit_variance_residual(self) -> np.ndarray:
        """Per-latent |Gamma_i - (1 - sum_j beta_j^i gamma_j^i)| with the
        model-implied stationary autocovariances."""
        gammas = autocovariances(self)
        implied = 1.0 - np.einsum("ji,ij->i", self.B, gammas)
        return np.abs(self.Gamma - implied)


def autocovariances(params: ModelParams) -> np.ndarray:
    """Model-implied stationary autocovariances, shape (r, s).

    Row i holds gamma_1^i .. gamma_s^i for latent i under the unit-variance
    constraint gamma_0^i = 1.
    """
    out = np.empty((params.r, params.s))
    for i in range(params.r):
        out[i] = stationary_autocovariances(params.B[:, i])
    return out


@dataclass(frozen=True)
class AugmentedParams:
    """First-order reformulation of the order-s model on the stacked state
    [t_k, t_{k-1}, ..., t_{k-s+1}] of length r*s.

    Phi has the B_j blocks along its top block row and identities on the
    block subdiagonal; Hk is the emission padded with zeros; GammaK carries
    the latent noise in its leading r x r block only.
    """

    Phi: np.ndarray
    Hk: np.ndarray
    GammaK: np.ndarray
    r: int
    s: int

    @property
    def dim(self) -> int:
        return self.r * self.s


def augment(params: ModelParams) -> AugmentedParams:
    """Stack the order-s model into first-order form."""
    r, s, m = params.r, params.s, params.m
    d = r * s
    Phi = np.zeros((d, d))
    for j in range(s):
        Phi[:r, j * r:(j + 1) * r] = np.diag(params.B[j])
    if s > 1:
        Phi[r:, :-r] += np.eye(d - r)
    Hk = np.zeros((m, d))
    Hk[:, :r] = params.H
    GammaK = np.zeros((d, d))
    GammaK[:r, :r] = np.diag(params.Gamma)
    return AugmentedParams(Phi=Phi, Hk=Hk, GammaK=GammaK, r=r, s=s)


def simulate(
    params: ModelParams,
    n_steps: int,
    seed: int,
    init_latents: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a trajectory of latents and observations from the model.

    The first s latent vectors are drawn from the N(0, I_r) prior unless
    ``init_latents`` supplies an (s, r) history (newest last), in which case
    every returned step evolves from that history by the transition equation.
    Noise is drawn from two substreams split deterministically from ``seed``
    (latent noise first, measurement noise second), so trajectories are
    reproducible regardless of loop structure.

    Returns
    -------
    latents : (n_steps, r) array
    observations : (n_steps, m) array
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    r, s, m = params.r, params.s, params.m
    seq_latent, seq_obs = np.random.SeedSequence(seed).spawn(2)
    rng_latent = np.random.default_rng(seq_latent)
    rng_obs = np.random.default_rng(seq_obs)

    aug = augment(params)
    noise_std = np.sqrt(params.Gamma)
    latents = np.empty((n_steps, r))

    if init_latents is None:
        n_init = min(s, n_steps)
        latents[:n_init] = rng_latent.standard_normal((n_init, r))
        start = n_init
        # Stacked state ordered [t_k, t_{k-1}, ...]; history rows are oldest first.
        stacked = latents[:n_init][::-1].reshape(-1)
        if n_init < s:  # trajectory shorter than the lag order
            obs_noise = rng_obs.standard_normal((n_steps, m)) * np.sqrt(params.Sigma)
            observations = latents @ params.H.T + obs_noise
            return latents, observations
    else:
        init_latents = np.asarray(init_latents, dtype=float)
        if init_latents.shape != (s, r):
            raise ConfigError(
                f"init_latents has shape {init_latents.shape}, expected ({s}, {r})"
            )
        start = 0
        stacked = init_latents[::-1].reshape(-1).copy()

    for k in range(start, n_steps):
        shock = rng_latent.standard_normal(r) * noise_std
        top = (aug.Phi @ stacked)[:r] + shock
        latents[k] = top
        if s > 1:
            stacked = np.concatenate([top, stacked[: (s - 1) * r]])
        else:
            stacked = top

    obs_noise = rng_obs.standard_normal((n_steps, m)) * np.sqrt(params.Sigma)
    observations = latents @ params.H.T + obs_noise
    return latents, observations


def random_stable_params(
    m: int,
    r: int,
    s: int,
    seed: int,
    noise_range: tuple[float, float] = (0.1, 0.5),
    beta_scale: float = 0.8,
    max_radius: float = 0.95,
) -> ModelParams:
    """Draw a random stable parameter set (for benchmarks and tests).

    Coefficients are rejection-sampled until every latent's companion
    spectral radius is below ``max_radius``; emission entries are Gaussian
    with column scale 1/sqrt(r); Sigma is uniform in ``noise_range``.
    """
    if r > m:
        raise ConfigError(f"latent dimension r={r} exceeds channel count m={m}")
    if not (np.all(np.isfinite(noise_range)) and noise_range[0] <= noise_range[1]):
        raise ConfigError(f"noise_range must be finite with low <= high, got {tuple(noise_range)}")
    rng = np.random.default_rng(seed)
    B = np.empty((s, r))
    for i in range(r):
        for _ in range(1000):
            cand = rng.uniform(-beta_scale, beta_scale, size=s)
            if spectral_radius(cand) < max_radius:
                B[:, i] = cand
                break
        else:
            raise NumericsError("failed to draw stable AR coefficients")
    H = rng.normal(scale=1.0 / np.sqrt(r), size=(m, r))
    Sigma = rng.uniform(noise_range[0], noise_range[1], size=m)
    return ModelParams.from_dynamics(B=B, H=H, Sigma=Sigma)
