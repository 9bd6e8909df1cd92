"""Probabilistic predictable feature analysis.

A high-order linear-Gaussian latent dynamic model with diagonal
autoregressive transitions and a unit-variance latent constraint, trained by
EM with Kalman smoothing and a genetic-algorithm M-step, plus T2/SPE/DI
monitoring statistics under KDE control limits.
"""

from .errors import ConfigError, ConvergenceError, DataError, NumericsError, PpfaError
from .genetic import BetaObjective, GaConfig, GaResult, minimize, objective_f, objective_g
from .kalman import (
    AugmentedBelief,
    SmoothedMoments,
    backward_smooth,
    filter_step,
    forward_filter,
    one_step_predictions,
)
from .monitoring import (
    ControlLimits,
    DynamicsCovariance,
    MonitorReport,
    MonitorSession,
    calibrate,
    estimate_D,
    kde_limit,
)
from .pipeline import TrainedModel, load_model, save_model, train_monitoring_model
from .preprocess import WhiteningTransform, apply_whitening, fit_whitening, invert_whitening
from .selection import SelectionGrid, SelectionResult, inject_step_fault, select
from .statespace import (
    AugmentedParams,
    ModelParams,
    augment,
    autocovariances,
    gamma_from_beta,
    random_stable_params,
    simulate,
    stationary_autocovariances,
)
from .training import EmConfig, TrainingTrace, e_step, fit, init_params, log_likelihood

__all__ = [
    "AugmentedBelief",
    "AugmentedParams",
    "BetaObjective",
    "ConfigError",
    "ControlLimits",
    "ConvergenceError",
    "DataError",
    "DynamicsCovariance",
    "EmConfig",
    "GaConfig",
    "GaResult",
    "ModelParams",
    "MonitorReport",
    "MonitorSession",
    "NumericsError",
    "PpfaError",
    "SelectionGrid",
    "SelectionResult",
    "SmoothedMoments",
    "TrainedModel",
    "TrainingTrace",
    "WhiteningTransform",
    "apply_whitening",
    "augment",
    "autocovariances",
    "backward_smooth",
    "calibrate",
    "e_step",
    "estimate_D",
    "filter_step",
    "fit",
    "fit_whitening",
    "forward_filter",
    "gamma_from_beta",
    "init_params",
    "inject_step_fault",
    "invert_whitening",
    "kde_limit",
    "load_model",
    "log_likelihood",
    "minimize",
    "objective_f",
    "objective_g",
    "one_step_predictions",
    "random_stable_params",
    "save_model",
    "select",
    "simulate",
    "stationary_autocovariances",
    "train_monitoring_model",
]
