"""Shared test utilities: a brute-force joint-Gaussian oracle for the
stacked linear dynamic model, built without any filtering code so it can
arbitrate the recursive implementations, an exact Kalman filter/smoother
reference that recomputes every covariance at every step, and a GA
reference that builds the offspring one pair at a time."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from ppfa import augment
from ppfa.errors import ConfigError
from ppfa.genetic import FEASIBILITY_TOL, GaResult, _batch_g


def _sym(a):
    return 0.5 * (a + a.T)


def exact_filter(aug, Sigma, X):
    """Kalman filter over rows s-1.. of X with the full covariance recursion
    at every step. Returns (mu, V, P, loglik) with per-step (T, d, d) V/P."""
    rows = np.asarray(X, dtype=float)[aug.s - 1:]
    T, m = rows.shape
    d = aug.dim
    mu = np.empty((T, d))
    V = np.empty((T, d, d))
    P = np.empty((T, d, d))
    loglik = 0.0
    for k, x in enumerate(rows):
        if k == 0:
            pred, P[k] = np.zeros(d), np.eye(d)
        else:
            pred = aug.Phi @ mu[k - 1]
            P[k] = _sym(aug.Phi @ V[k - 1] @ aug.Phi.T + aug.GammaK)
        PHt = P[k] @ aug.Hk.T
        S = _sym(aug.Hk @ PHt) + np.diag(Sigma)
        chol = scipy.linalg.cho_factor(S, lower=True)
        e = x - aug.Hk @ pred
        K = scipy.linalg.cho_solve(chol, PHt.T).T
        mu[k] = pred + K @ e
        V[k] = _sym(P[k] - K @ PHt.T)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        loglik += -0.5 * (m * np.log(2 * np.pi) + logdet + e @ scipy.linalg.cho_solve(chol, e))
    return mu, V, P, loglik


def exact_smoother(aug, mu, V, P):
    """Fixed-interval smoother with a fresh gain at every step. Returns
    (mean, cov, lag1) as SmoothedMoments holds them."""
    T, d = mu.shape
    mean = np.empty((T, d))
    cov = np.empty((T, d, d))
    lag1 = np.empty((max(T - 1, 0), d, d))
    mean[-1], cov[-1] = mu[-1], V[-1]
    for k in range(T - 2, -1, -1):
        J = np.linalg.solve(P[k + 1], aug.Phi @ V[k]).T
        mean[k] = mu[k] + J @ (mean[k + 1] - aug.Phi @ mu[k])
        cov[k] = _sym(V[k] + J @ (cov[k + 1] - P[k + 1]) @ J.T)
        lag1[k] = cov[k + 1] @ J.T + np.outer(mean[k + 1], mean[k])
    return mean, cov, lag1


def joint_covariance(aug, Sigma, T):
    """Covariance of (z_1..z_T, x_1..x_T) with z_1 ~ N(0, I) and
    z_{k+1} = Phi z_k + noise, x_k = Hk z_k + eps."""
    d = aug.dim
    m = aug.Hk.shape[0]
    marg = [np.eye(d)]
    for _ in range(T - 1):
        marg.append(aug.Phi @ marg[-1] @ aug.Phi.T + aug.GammaK)
    cross = {}
    for a in range(T):
        cross[(a, a)] = marg[a]
        cur = marg[a]
        for b in range(a + 1, T):
            cur = cur @ aug.Phi.T
            cross[(a, b)] = cur

    def czz(a, b):
        return cross[(a, b)] if a <= b else cross[(b, a)].T

    S = np.zeros((T * d + T * m, T * d + T * m))
    for a in range(T):
        for b in range(T):
            S[a * d:(a + 1) * d, b * d:(b + 1) * d] = czz(a, b)
            block = aug.Hk @ czz(a, b) @ aug.Hk.T
            if a == b:
                block = block + np.diag(Sigma)
            S[T * d + a * m:T * d + (a + 1) * m, T * d + b * m:T * d + (b + 1) * m] = block
            zx = czz(a, b) @ aug.Hk.T
            S[a * d:(a + 1) * d, T * d + b * m:T * d + (b + 1) * m] = zx
            S[T * d + b * m:T * d + (b + 1) * m, a * d:(a + 1) * d] = zx.T
    return S


def condition(S, target_idx, obs_idx, obs_val):
    """Mean and covariance of the target block given observed values
    (zero prior means throughout)."""
    Stt = S[np.ix_(target_idx, target_idx)]
    Sto = S[np.ix_(target_idx, obs_idx)]
    Soo = S[np.ix_(obs_idx, obs_idx)]
    mean = Sto @ np.linalg.solve(Soo, obs_val)
    cov = Stt - Sto @ np.linalg.solve(Soo, Sto.T)
    return mean, cov


def reference_minimize(obj, cfg, warm_start=None, seed=None):
    """The GA with a per-pair offspring loop: same draws, same order, and
    the same elementwise arithmetic as ``ppfa.genetic.minimize``, so the
    two must agree bit for bit."""
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
        elites = pop[order[: cfg.elitism_count]].copy()

        children = np.empty((2 * n_pairs, s))
        for p in range(n_pairs):
            i1 = tourney[p, 0][np.argmin(fitness[tourney[p, 0]])]
            i2 = tourney[p, 1][np.argmin(fitness[tourney[p, 1]])]
            parent1, parent2 = pop[i1], pop[i2]
            if cx_coin[p] < cfg.crossover_rate:
                a = blend[p]
                children[2 * p] = a * parent1 + (1.0 - a) * parent2
                children[2 * p + 1] = (1.0 - a) * parent1 + a * parent2
            else:
                children[2 * p] = parent1
                children[2 * p + 1] = parent2
        children = np.where(mut_mask, children + mut_noise, children)
        np.clip(children, lo, hi, out=children)

        pop = np.vstack([elites, children[:n_fill]])

    slack = 1.0 - best_beta @ obj.gamma
    return GaResult(
        beta=best_beta,
        g_value=best_g,
        feasible=bool(slack >= -FEASIBILITY_TOL),
        history=history,
    )


class GaussianOracle:
    """Exact conditioning oracle for one model and one observation window."""

    def __init__(self, params, X, T):
        self.aug = augment(params)
        self.params = params
        self.d = self.aug.dim
        self.m = params.m
        self.T = T
        self.S = joint_covariance(self.aug, params.Sigma, T)
        # rows consumed by the filter: index s-1 onward
        self.xs = np.asarray(X, dtype=float)[params.s - 1:params.s - 1 + T].reshape(-1)
        self.x_all = list(range(T * self.d, T * self.d + T * self.m))

    def filtered(self, k):
        """Exact mean/cov of z_k given x_1..x_k (0-based step k)."""
        z_idx = list(range(k * self.d, (k + 1) * self.d))
        x_idx = self.x_all[: (k + 1) * self.m]
        return condition(self.S, z_idx, x_idx, self.xs[: (k + 1) * self.m])

    def smoothed(self, k):
        z_idx = list(range(k * self.d, (k + 1) * self.d))
        return condition(self.S, z_idx, self.x_all, self.xs)

    def smoothed_pair(self, k):
        """Joint smoothed moments of (z_k, z_{k+1}); returns the full
        second moment E[z_{k+1} z_k^T]."""
        z_idx = list(range(k * self.d, (k + 2) * self.d))
        mean, cov = condition(self.S, z_idx, self.x_all, self.xs)
        d = self.d
        return cov[d:, :d] + np.outer(mean[d:], mean[:d])

    def log_likelihood(self):
        Sxx = self.S[np.ix_(self.x_all, self.x_all)]
        sign, logdet = np.linalg.slogdet(Sxx)
        assert sign > 0
        quad = self.xs @ np.linalg.solve(Sxx, self.xs)
        return -0.5 * (len(self.xs) * np.log(2 * np.pi) + logdet + quad)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240801)
