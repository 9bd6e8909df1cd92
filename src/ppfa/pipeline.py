"""End-to-end training pipeline and self-contained model files.

A trained monitoring model bundles the whitening transform, the dynamic
model parameters, the latent-difference covariance, and the control limits,
so scoring needs no side inputs. The file format is a JSON document with a
fixed key order; floats are written with full round-trip precision, so
identical training runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .monitoring import ControlLimits, DynamicsCovariance, MonitorReport, MonitorSession, calibrate
from .preprocess import WhiteningTransform, apply_whitening, fit_whitening
from .statespace import ModelParams
from .training import EmConfig, TrainingTrace, fit

FORMAT_NAME = "ppfa-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to score new raw data."""

    params: ModelParams
    whitening: WhiteningTransform
    dynamics: DynamicsCovariance
    limits: ControlLimits

    def score(self, X_raw: np.ndarray) -> MonitorReport:
        return MonitorSession(self.params, self.whitening, self.dynamics, self.limits).score(X_raw)


def train_monitoring_model(
    X_raw: np.ndarray,
    cfg: EmConfig,
    alpha: float,
) -> tuple[TrainedModel, TrainingTrace]:
    """Whiten the training data, run EM, and calibrate control limits."""
    whitening = fit_whitening(X_raw)
    X_w = apply_whitening(whitening, X_raw)
    params, trace = fit(X_w, cfg)
    limits, dynamics = calibrate(params, X_w, alpha)
    return TrainedModel(params=params, whitening=whitening, dynamics=dynamics, limits=limits), trace


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _vector(a: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(a)]


def save_model(model: TrainedModel, path) -> None:
    """Write the model bundle as a JSON document with fixed key order.

    Key order and float formatting are deterministic, so equal models
    serialize to identical bytes. Floats round-trip exactly.
    """
    params = model.params
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "m": params.m,
        "r": params.r,
        "s": params.s,
        "transition": _matrix(params.B),
        "emission": _matrix(params.H),
        "latent_noise_var": _vector(params.Gamma),
        "measurement_noise_var": _vector(params.Sigma),
        "whitening": {
            "mean": _vector(model.whitening.mean),
            "eigvecs": _matrix(model.whitening.eigvecs),
            "singvals": _vector(model.whitening.singvals),
        },
        "dynamics_covariance": _matrix(model.dynamics.D),
        "limits": {
            "alpha": model.limits.alpha,
            "t2": model.limits.t2,
            "spe": model.limits.spe,
            "di": model.limits.di,
            "bandwidths": [float(b) for b in model.limits.bandwidths],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _field(doc: dict, path, shape: tuple[int, ...], *keys: str) -> np.ndarray:
    """The finite float array of the given shape at the nested field
    ``keys`` of a model document."""
    value = doc
    for key in keys:
        value = value[key]
    name = ".".join(keys)
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ConfigError(
            f"model file {path}: field {name} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"model file {path}: field {name} has non-finite entries")
    return arr


def load_model(path) -> TrainedModel:
    """Read a model bundle written by :func:`save_model`.

    Every number except the informational KDE bandwidths must be finite,
    the declared m, r and s must match the array shapes, and the limits must
    be positive; anything else raises ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ConfigError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model file version {doc.get('version')}")
    try:
        m, r, s = (doc[key] for key in ("m", "r", "s"))
        if not all(type(v) is int and v >= 1 for v in (m, r, s)):
            raise ConfigError(f"model file {path}: m, r and s must be positive integers")
        params = ModelParams(
            B=_field(doc, path, (s, r), "transition"),
            H=_field(doc, path, (m, r), "emission"),
            Gamma=_field(doc, path, (r,), "latent_noise_var"),
            Sigma=_field(doc, path, (m,), "measurement_noise_var"),
        )
        whitening = WhiteningTransform(
            mean=_field(doc, path, (m,), "whitening", "mean"),
            eigvecs=_field(doc, path, (m, m), "whitening", "eigvecs"),
            singvals=_field(doc, path, (m,), "whitening", "singvals"),
        )
        dynamics = DynamicsCovariance(D=_field(doc, path, (r * s, r * s), "dynamics_covariance"))
        limits = ControlLimits(
            t2=float(_field(doc, path, (), "limits", "t2")),
            spe=float(_field(doc, path, (), "limits", "spe")),
            di=float(_field(doc, path, (), "limits", "di")),
            alpha=float(_field(doc, path, (), "limits", "alpha")),
            bandwidths=tuple(float(b) for b in doc["limits"]["bandwidths"]),
        )
    except KeyError as exc:
        raise ConfigError(f"model file {path} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model file {path} has a malformed field: {exc}") from exc
    return TrainedModel(params=params, whitening=whitening, dynamics=dynamics, limits=limits)
