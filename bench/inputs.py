"""Seeded input generation for the benchmark workloads.

Every input is made here with plain numpy from the workload seed: the AR
latents, the emission, the measurement noise and the step faults. Nothing
from the program under test is used, so a change to the program cannot
change the inputs it is measured on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Fault:
    """Additive step on a set of channels over rows [start, end)."""

    start: int
    end: int
    channels: tuple[int, ...]
    magnitude_sigma: float


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def ar_coefficients(rng: np.random.Generator, s: int, radius: tuple[float, float]) -> np.ndarray:
    """Stable AR(s) coefficients whose characteristic roots are real, of
    alternating sign, with the largest modulus drawn from ``radius``."""
    top = rng.uniform(*radius)
    moduli = np.concatenate([[top], rng.uniform(0.1, top, size=s - 1)])
    roots = moduli * np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
    # np.poly gives [1, -beta_1, ..., -beta_s] for (1 - z_1 L)...(1 - z_s L).
    return -np.poly(roots)[1:]


def ar_series(rng: np.random.Generator, beta: np.ndarray, n: int, burn: int = 500) -> np.ndarray:
    """Unit-variance (sample) AR series of length n driven by N(0, 1) noise."""
    s = beta.shape[0]
    noise = rng.standard_normal(n + burn)
    out = np.zeros(n + burn)
    lagged = beta[::-1]
    for k in range(s, n + burn):
        out[k] = lagged @ out[k - s:k] + noise[k]
    out = out[burn:]
    return out / out.std()


def measurements(
    seed: int,
    stream: str,
    n: int,
    m: int,
    r: int,
    s: int,
    radius: tuple[float, float],
) -> np.ndarray:
    """(n, m) raw series x_k = H t_k + eps_k plus per-channel offset and scale.

    Latents are independent AR(s) processes; the emission is standard
    normal; noise standard deviations are uniform in [0.3, 0.7]. The raw
    offset and scale make whitening do real work.
    """
    rng = _rng(seed, stream)
    latents = np.column_stack(
        [ar_series(rng, ar_coefficients(rng, s, radius), n) for _ in range(r)]
    )
    H = rng.standard_normal((m, r))
    noise_sd = rng.uniform(0.3, 0.7, size=m)
    X = latents @ H.T + rng.standard_normal((n, m)) * noise_sd
    offset = rng.uniform(-5.0, 5.0, size=m)
    scale = rng.uniform(0.5, 3.0, size=m)
    return X * scale + offset


def inject(X: np.ndarray, faults: list[Fault], reference: np.ndarray) -> np.ndarray:
    """Copy of X with each fault's step added, sized in units of the
    per-channel standard deviation of ``reference`` (fault-free data)."""
    X = X.copy()
    sd = reference.std(axis=0, ddof=1)
    for f in faults:
        for ch in f.channels:
            X[f.start:f.end, ch] += f.magnitude_sigma * sd[ch]
    return X


def fault_mask(n: int, faults: list[Fault]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for f in faults:
        mask[f.start:f.end] = True
    return mask


def describe(name: str, X: np.ndarray) -> dict:
    """Shape and content hash of one input array."""
    data = np.ascontiguousarray(X, dtype=np.float64)
    return {
        "name": name,
        "shape": list(data.shape),
        "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
    }
