"""Whitening of raw measurements.

Training data is centered and rotated/scaled so its sample covariance is the
identity; new samples are always transformed with the training-set transform,
never refit. The transform is invertible, so predictions can be mapped back
to raw measurement units for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericsError

# Eigenvalues below RANK_RTOL * largest are treated as rank deficiency.
RANK_RTOL = 1e-10
# Rows whitened per block by apply_whitening.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class WhiteningTransform:
    """Centering plus eigen-rotation and scaling fitted on training data.

    Attributes
    ----------
    mean : (m,) array
        Per-channel training mean, in raw measurement units.
    eigvecs : (m, m) array
        Orthonormal eigenvectors of the sample covariance, one per column,
        ordered by descending eigenvalue.
    singvals : (m,) array
        Eigenvalues (variances along the eigenvector directions), descending.
    """

    mean: np.ndarray
    eigvecs: np.ndarray
    singvals: np.ndarray

    def __post_init__(self):
        mean, eigvecs, singvals = (
            np.asarray(a, dtype=float) for a in (self.mean, self.eigvecs, self.singvals)
        )
        m = mean.shape[0] if mean.ndim == 1 else -1
        if eigvecs.shape != (m, m) or singvals.shape != (m,):
            raise ConfigError(
                f"whitening arrays have shapes {mean.shape}, {eigvecs.shape} and "
                f"{singvals.shape}; expected (m,), (m, m) and (m,)"
            )
        if not all(np.all(np.isfinite(a)) for a in (mean, eigvecs, singvals)):
            raise ConfigError("whitening arrays must be finite")
        if not np.all(singvals > 0):
            raise ConfigError("whitening singvals must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigvecs", eigvecs)
        object.__setattr__(self, "singvals", singvals)
        # Column k of the rotation is eigenvector k scaled to unit variance.
        object.__setattr__(self, "_rotation", self.eigvecs * (1.0 / np.sqrt(self.singvals)))

    @property
    def n_channels(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, m: int) -> "WhiteningTransform":
        """Transform that leaves data unchanged (useful for tests and data
        that is already white)."""
        return cls(mean=np.zeros(m), eigvecs=np.eye(m), singvals=np.ones(m))


def require_finite(data: np.ndarray) -> None:
    """Raise DataError naming the first non-finite cell of a 2-D array."""
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(f"non-finite value at row {row}, column {col}")


def fit_whitening(data: np.ndarray) -> WhiteningTransform:
    """Fit a whitening transform to a (rows, m) training matrix.

    Uses the centered sample covariance with 1/(rows-1) normalization.
    Raises DataError, naming the channels, if the covariance overflows to a
    non-finite value or if a channel that varies has a variance that
    underflows below the smallest normal float. Raises NumericsError if the
    covariance is rank deficient (any eigenvalue below ``RANK_RTOL`` times
    the largest), naming the deficient directions.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataError(f"expected a 2-D data matrix, got ndim={data.ndim}")
    rows, m = data.shape
    if rows < 2:
        raise DataError(f"need at least 2 rows to fit a whitening transform, got {rows}")
    require_finite(data)

    mean = data.mean(axis=0)
    centered = data - mean
    with np.errstate(over="ignore", under="ignore"):
        cov = centered.T @ centered / (rows - 1)
    overflowed = np.nonzero(~np.isfinite(cov).all(axis=0))[0]
    if overflowed.size:
        raise DataError(
            f"sample covariance overflows along channel(s) {overflowed.tolist()}; "
            "data magnitude is too large to whiten"
        )
    underflowed = np.nonzero(
        (np.diag(cov) < np.finfo(float).tiny) & np.any(centered != 0.0, axis=0)
    )[0]
    if underflowed.size:
        raise DataError(
            f"sample covariance underflows along channel(s) {underflowed.tolist()}; "
            "data magnitude is too small to whiten"
        )
    eigvals, eigvecs = np.linalg.eigh(cov)
    # eigh returns ascending; store descending.
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    eigvals = np.clip(eigvals, 0.0, None)

    largest = eigvals[0] if eigvals.size else 0.0
    deficient = np.nonzero(eigvals <= RANK_RTOL * largest)[0] if largest > 0 else np.arange(m)
    if deficient.size:
        raise NumericsError(
            "covariance is rank deficient along eigenvector direction(s) "
            f"{deficient.tolist()}; cannot whiten"
        )
    return WhiteningTransform(mean=mean, eigvecs=eigvecs, singvals=eigvals)


def apply_whitening(transform: WhiteningTransform, x: np.ndarray) -> np.ndarray:
    """Whiten a sample vector or a (rows, m) matrix of samples.

    Each output row is sum_j (x_j - mean_j) R[j], with R the eigenvectors
    scaled to unit variance, accumulated channel by channel from elementwise
    products. A matrix product would round differently depending on the
    number of rows; this way a row whitens to the same bits alone or in a
    block.
    """
    x = np.asarray(x, dtype=float)
    m = transform.n_channels
    if x.shape[-1] != m:
        raise ConfigError(f"sample has {x.shape[-1]} channels, transform expects {m}")
    centered = (x - transform.mean).reshape(-1, m)
    out = np.empty_like(centered)
    # Row blocks bound the (rows, m, m) product array.
    for lo in range(0, centered.shape[0], _BLOCK_ROWS):
        block = centered[lo:lo + _BLOCK_ROWS]
        np.add.reduce(block[:, :, None] * transform._rotation, axis=1,
                      out=out[lo:lo + _BLOCK_ROWS])
    return out.reshape(x.shape)


def invert_whitening(transform: WhiteningTransform, z: np.ndarray) -> np.ndarray:
    """Map whitened vectors back to raw measurement units."""
    z = np.asarray(z, dtype=float)
    m = transform.n_channels
    if z.shape[-1] != m:
        raise ConfigError(f"sample has {z.shape[-1]} channels, transform expects {m}")
    return (z * np.sqrt(transform.singvals)) @ transform.eigvecs.T + transform.mean
