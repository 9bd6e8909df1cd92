"""Penalized real-valued genetic algorithm for the transition coefficients.

The M-step stationarity condition for one latent variable has no closed-form
solution in the lag coefficients, so it is solved as a root-finding problem:
two indices A_j and B_j are built from the expected lagged second moments of
the latent trajectory, and the squared mismatch summed over lags vanishes
exactly where the expected-log-likelihood derivative is zero. The feasible
region is where the implied latent noise variance 1 - sum_j beta_j gamma_j
stays nonnegative; infeasible points pay a linear penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class GaConfig:
    """Genetic algorithm settings.

    The search box is one interval applied to every gene; it comfortably
    covers all stable AR regions. lambda_penalty is the linear penalty weight
    charged outside the feasible region and must be positive.
    """

    population_size: int = 60
    generations: int = 120
    crossover_rate: float = 0.8
    mutation_rate: float = 0.15
    mutation_scale: float = 0.1
    lambda_penalty: float = 1e3
    elitism_count: int = 2
    seed: int = 0
    search_box: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        for name in ("crossover_rate", "mutation_rate", "mutation_scale", "lambda_penalty"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        lo, hi = self.search_box
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
            raise ConfigError(
                f"search_box must be finite with a finite width, got {self.search_box}"
            )
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.elitism_count >= self.population_size:
            raise ConfigError("elitism_count must be smaller than population_size")
        if self.elitism_count < 0:
            raise ConfigError("elitism_count must be >= 0")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.mutation_scale <= 0:
            raise ConfigError("mutation_scale must be positive")
        if self.lambda_penalty <= 0:
            raise ConfigError("lambda_penalty must be greater than zero")
        if self.search_box[0] >= self.search_box[1]:
            raise ConfigError(f"search_box must be a nonempty interval, got {self.search_box}")


@dataclass(frozen=True)
class BetaObjective:
    """Sufficient statistics of the stationarity objective for one latent.

    Attributes
    ----------
    gamma : (s,) array
        Current autocovariance estimates gamma_1..gamma_s.
    moments : (s+1, s+1) array
        Expected lagged products: moments[a, b] = sum_k E[t_{k-a} t_{k-b}]
        over the transition steps, with index 0 meaning the current time.
    n : float
        Number of transition terms in the sums.
    """

    gamma: np.ndarray
    moments: np.ndarray
    n: float

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        moments = np.asarray(self.moments, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "moments", moments)
        s = gamma.shape[0]
        if moments.shape != (s + 1, s + 1):
            raise ConfigError(f"moments has shape {moments.shape}, expected ({s + 1}, {s + 1})")
        scale = max(1.0, float(np.abs(np.trace(moments))))
        if np.max(np.abs(moments - moments.T)) > 1e-8 * scale:
            raise ConfigError("moments matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (moments + moments.T))) < -1e-8 * scale:
            raise ConfigError("moments matrix must be positive semidefinite")

    @property
    def s(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class GaResult:
    """Best individual found, its penalized objective value, whether it is
    feasible, and the best-so-far trajectory per generation."""

    beta: np.ndarray
    g_value: float
    feasible: bool
    history: np.ndarray = field(repr=False)


def _batch_f(pop: np.ndarray, obj: BetaObjective) -> np.ndarray:
    """Stationarity mismatch f for a (P, s) population, vectorized."""
    gamma = obj.gamma
    M = obj.moments
    slack = 1.0 - pop @ gamma  # (P,)
    # A_j = (n gamma_j - 2 sum_l beta_l M[j, l] + 2 M[0, j]) * slack
    A = (obj.n * gamma[None, :] - 2.0 * pop @ M[1:, 1:] + 2.0 * M[0, 1:][None, :])
    A = A * slack[:, None]
    # B_j = gamma_j * expected sum of squared one-step residuals
    residual = (
        M[0, 0]
        - 2.0 * pop @ M[0, 1:]
        + np.einsum("pi,ij,pj->p", pop, M[1:, 1:], pop)
    )
    B = gamma[None, :] * residual[:, None]
    return np.sum((A - B) ** 2, axis=1)


def _batch_g(pop: np.ndarray, obj: BetaObjective, lam: float) -> np.ndarray:
    f = _batch_f(pop, obj)
    slack = 1.0 - pop @ obj.gamma
    return np.where(slack >= 0.0, f, f - lam * slack)


def objective_f(beta: np.ndarray, obj: BetaObjective) -> float:
    """Squared stationarity mismatch summed over lags; zero exactly where the
    expected-log-likelihood derivative in beta vanishes at every lag."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (obj.s,):
        raise ConfigError(f"beta has shape {beta.shape}, expected ({obj.s},)")
    return float(_batch_f(beta[None, :], obj)[0])


def objective_g(beta: np.ndarray, obj: BetaObjective, lam: float) -> float:
    """Penalized objective: f where 1 - beta.gamma >= 0, else f plus a linear
    penalty lam * |1 - beta.gamma|."""
    if lam <= 0:
        raise ConfigError("penalty weight must be greater than zero")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (obj.s,):
        raise ConfigError(f"beta has shape {beta.shape}, expected ({obj.s},)")
    return float(_batch_g(beta[None, :], obj, lam)[0])


def minimize(
    obj: BetaObjective,
    cfg: GaConfig,
    warm_start: np.ndarray | None = None,
    seed: int | None = None,
) -> GaResult:
    """Minimize the penalized objective with elitist tournament GA.

    The warm start, when given, is clipped into the search box and injected
    into generation zero, so the result is never worse than the warm start.
    All random draws for a generation happen up front in a fixed order, so
    the result depends only on (obj, cfg, warm_start, seed). The offspring
    of a generation are built from those draws as whole arrays: tournament
    winners by one fancy index (the first minimum wins a tie), then blend
    crossover and mutation elementwise.
    """
    s = obj.s
    lo, hi = cfg.search_box
    lam = cfg.lambda_penalty
    rng = np.random.default_rng(cfg.seed if seed is None else seed)

    pop = rng.uniform(lo, hi, size=(cfg.population_size, s))
    if warm_start is not None:
        warm = np.clip(np.asarray(warm_start, dtype=float), lo, hi)
        if warm.shape != (s,):
            raise ConfigError(f"warm_start has shape {warm.shape}, expected ({s},)")
        pop[0] = warm

    n_fill = cfg.population_size - cfg.elitism_count
    n_pairs = (n_fill + 1) // 2
    # One tournament per child: rows 2p and 2p+1 pick the parents of pair p.
    rows = np.arange(2 * n_pairs)
    history = np.empty(cfg.generations)
    best_beta = pop[0].copy()
    best_g = np.inf

    for gen in range(cfg.generations):
        fitness = _batch_g(pop, obj, lam)
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_g:
            best_g = float(fitness[gen_best])
            best_beta = pop[gen_best].copy()
        history[gen] = best_g
        if gen == cfg.generations - 1:
            break

        # All stochastic choices for this generation, drawn in fixed order.
        tourney = rng.integers(0, cfg.population_size, size=(n_pairs, 2, 3))
        cx_coin = rng.random(n_pairs)
        blend = rng.random((n_pairs, s))
        mut_mask = rng.random((2 * n_pairs, s)) < cfg.mutation_rate
        mut_noise = rng.normal(0.0, cfg.mutation_scale, size=(2 * n_pairs, s))

        order = np.argsort(fitness, kind="stable")
        elites = pop[order[: cfg.elitism_count]]

        flat = tourney.reshape(-1, 3)
        winners = flat[rows, fitness[flat].argmin(axis=1)]
        parent1, parent2 = pop[winners[0::2]], pop[winners[1::2]]
        cross = (cx_coin < cfg.crossover_rate)[:, None]
        rest = 1.0 - blend
        children = np.empty((2 * n_pairs, s))
        children[0::2] = np.where(cross, blend * parent1 + rest * parent2, parent1)
        children[1::2] = np.where(cross, rest * parent1 + blend * parent2, parent2)
        children = np.where(mut_mask, children + mut_noise, children)
        np.clip(children, lo, hi, out=children)

        pop = np.concatenate((elites, children[:n_fill]))

    slack = 1.0 - best_beta @ obj.gamma
    return GaResult(
        beta=best_beta,
        g_value=best_g,
        feasible=bool(slack >= -FEASIBILITY_TOL),
        history=history,
    )
