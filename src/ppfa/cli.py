"""Command-line entry point: train, score, select, and simulate.

Configuration lives in an INI-style file with one section per concern
([em], [ga], [monitor], [select], [simulate]); --seed and --alpha override
the corresponding config values. Exit codes: 0 success, 1 io, 2 config,
3 numeric, 4 convergence. On failure the first stderr line is the
machine-parsable category, the second the human-readable message.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError, ConvergenceError, DataError, NumericsError, PpfaError
from .genetic import GaConfig
from .pipeline import load_model, save_model, train_monitoring_model
from .selection import SelectionGrid, select
from .statespace import random_stable_params, simulate
from .training import EmConfig

EXIT_CODES = {"io": 1, "config": 2, "numeric": 3, "convergence": 4}


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Strict CSV reader: one header line, rectangular numeric body, no
    missing values. Errors name the offending line and column (1-based)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in lines if line.strip() != ""]
    if len(lines) < 2:
        raise DataError(f"{path}: need a header line and at least one data row")
    header = [cell.strip() for cell in lines[0].split(",")]
    n_cols = len(header)
    data = np.empty((len(lines) - 1, n_cols))
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise DataError(f"{path}: line {i} has {len(cells)} cells, expected {n_cols}")
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: non-numeric cell at line {i}, column {j + 1} ({header[j]!r})"
                ) from exc
            if not np.isfinite(value):
                raise DataError(f"{path}: non-finite cell at line {i}, column {j + 1}")
            data[i - 2, j] = value
    return header, data


def write_csv(path, header: list[str], data: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class _Config:
    """Typed accessors over configparser with exact-key error messages."""

    _KNOWN = {
        "em": {"r", "s", "max_iterations", "loglik_rel_tol", "seed"},
        "ga": {
            "population_size", "generations", "crossover_rate", "mutation_rate",
            "mutation_scale", "lambda_penalty", "elitism_count", "search_lo",
            "search_hi", "seed",
        },
        "monitor": {"alpha"},
        "select": {
            "r_candidates", "s_candidates", "magnitudes", "n_inject_channels",
            "onset_fraction", "split_fraction",
        },
        "simulate": {
            "n_steps", "m", "r", "s", "seed", "noise_low", "noise_high", "faults",
        },
    }

    def __init__(self, path):
        parser = configparser.ConfigParser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        self._parser = parser
        for section in parser.sections():
            if section not in self._KNOWN:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in self._KNOWN[section]:
                    raise ConfigError(f"[{section}] {key}: unknown key")

    def _raw(self, section: str, key: str, default=None):
        if not self._parser.has_option(section, key):
            return default
        return self._parser.get(section, key)

    def get_int(self, section: str, key: str, default=None):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc

    def get_float(self, section: str, key: str, default=None):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from exc

    def get_int_list(self, section: str, key: str, default=None):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected integers, got {raw!r}") from exc

    def get_float_list(self, section: str, key: str, default=None):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected numbers, got {raw!r}") from exc

    def get_faults(self, section: str = "simulate", key: str = "faults"):
        raw = self._raw(section, key)
        if raw is None:
            return []
        faults = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 4:
                raise ConfigError(
                    f"[{section}] {key}: expected channel:start:end:magnitude, got {part!r}"
                )
            try:
                faults.append(
                    (int(pieces[0]), int(pieces[1]), int(pieces[2]), float(pieces[3]))
                )
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: bad fault spec {part!r}") from exc
        return faults


def _ga_config(cfg: _Config, seed_override: int | None) -> GaConfig:
    defaults = GaConfig()
    seed = cfg.get_int("ga", "seed", defaults.seed)
    if seed_override is not None:
        seed = seed_override
    return GaConfig(
        population_size=cfg.get_int("ga", "population_size", defaults.population_size),
        generations=cfg.get_int("ga", "generations", defaults.generations),
        crossover_rate=cfg.get_float("ga", "crossover_rate", defaults.crossover_rate),
        mutation_rate=cfg.get_float("ga", "mutation_rate", defaults.mutation_rate),
        mutation_scale=cfg.get_float("ga", "mutation_scale", defaults.mutation_scale),
        lambda_penalty=cfg.get_float("ga", "lambda_penalty", defaults.lambda_penalty),
        elitism_count=cfg.get_int("ga", "elitism_count", defaults.elitism_count),
        seed=seed,
        search_box=(
            cfg.get_float("ga", "search_lo", defaults.search_box[0]),
            cfg.get_float("ga", "search_hi", defaults.search_box[1]),
        ),
    )


def _field_defaults(cls) -> dict:
    """The declared defaults of a config dataclass, by field name."""
    return {
        f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }


def _em_config(cfg: _Config, seed_override: int | None) -> EmConfig:
    r = cfg.get_int("em", "r")
    s = cfg.get_int("em", "s")
    if r is None or s is None:
        raise ConfigError("[em] r and s are required")
    defaults = _field_defaults(EmConfig)
    seed = cfg.get_int("em", "seed", defaults["seed"])
    if seed_override is not None:
        seed = seed_override
    return EmConfig(
        r=r, s=s,
        max_iterations=cfg.get_int("em", "max_iterations", defaults["max_iterations"]),
        loglik_rel_tol=cfg.get_float("em", "loglik_rel_tol", defaults["loglik_rel_tol"]),
        ga=_ga_config(cfg, seed_override),
        seed=seed,
    )


def _alpha(cfg: _Config, override: float | None) -> float:
    alpha = cfg.get_float("monitor", "alpha", 0.99)
    if override is not None:
        alpha = override
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"[monitor] alpha: must be in (0, 1), got {alpha}")
    return alpha


def cmd_train(args) -> int:
    cfg = _Config(args.config)
    em_cfg = _em_config(cfg, args.seed)
    alpha = _alpha(cfg, args.alpha)
    _, data = read_csv(args.data)
    model, trace = train_monitoring_model(data, em_cfg, alpha)
    save_model(model, args.model)
    if args.trace_out:
        trace.write_csv(args.trace_out)
    final_loglik = float(max([trace.init_loglik] + list(trace.logliks())))
    print(f"loglik={final_loglik!r}")
    print(f"limit_t2={model.limits.t2!r}")
    print(f"limit_spe={model.limits.spe!r}")
    print(f"limit_di={model.limits.di!r}")
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    _, data = read_csv(args.data)
    if data.shape[1] != model.params.m:
        raise ConfigError(
            f"data has {data.shape[1]} columns, model expects {model.params.m}"
        )
    report = model.score(data)
    report.write_csv(args.out)
    print(f"rows={len(report)}")
    print(f"alarms_t2={int(report.flag_t2.sum())}")
    print(f"alarms_spe={int(report.flag_spe.sum())}")
    print(f"alarms_di={int(report.flag_di.sum())}")
    return 0


def cmd_select(args) -> int:
    cfg = _Config(args.config)
    em_cfg = _em_config(cfg, args.seed)
    alpha = _alpha(cfg, args.alpha)
    defaults = _field_defaults(SelectionGrid)
    grid = SelectionGrid(
        r_candidates=cfg.get_int_list("select", "r_candidates", (1, 2, 3)),
        s_candidates=cfg.get_int_list("select", "s_candidates", (1, 2)),
        magnitudes=cfg.get_float_list("select", "magnitudes", defaults["magnitudes"]),
        n_inject_channels=cfg.get_int(
            "select", "n_inject_channels", defaults["n_inject_channels"]
        ),
        onset_fraction=cfg.get_float("select", "onset_fraction", defaults["onset_fraction"]),
        split_fraction=cfg.get_float("select", "split_fraction", defaults["split_fraction"]),
    )
    _, data = read_csv(args.data)
    result = select(data, grid, em_cfg, alpha, seed=em_cfg.seed)
    result.write_csv(args.out)
    print(f"selected r={result.r} s={result.s}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _Config(args.config)
    n_steps = cfg.get_int("simulate", "n_steps")
    m = cfg.get_int("simulate", "m")
    if n_steps is None or m is None:
        raise ConfigError("[simulate] n_steps and m are required")
    r = cfg.get_int("simulate", "r", 2)
    s = cfg.get_int("simulate", "s", 1)
    seed = cfg.get_int("simulate", "seed", 0)
    if args.seed is not None:
        seed = args.seed
    noise_low = cfg.get_float("simulate", "noise_low", 0.1)
    noise_high = cfg.get_float("simulate", "noise_high", 0.5)
    faults = cfg.get_faults()

    params = random_stable_params(m, r, s, seed=seed, noise_range=(noise_low, noise_high))
    _, observations = simulate(params, n_steps, seed=seed)

    sidecar = []
    for channel, start, end, magnitude_sigma in faults:
        if not 0 <= channel < m:
            raise ConfigError(f"[simulate] faults: channel {channel} out of range")
        if not 0 <= start < end <= n_steps:
            raise ConfigError(f"[simulate] faults: window [{start}, {end}) out of range")
        step = magnitude_sigma * float(observations[:, channel].std(ddof=1))
        observations[start:end, channel] += step
        sidecar.append({
            "channel": channel, "start": start, "end": end,
            "magnitude_sigma": magnitude_sigma, "magnitude": step,
        })

    write_csv(args.out, [f"x{j + 1}" for j in range(m)], observations)
    with open(str(args.out) + ".faults.json", "w", encoding="utf-8") as fh:
        json.dump({"faults": sidecar}, fh, indent=1)
        fh.write("\n")
    print(f"rows={n_steps}")
    print(f"columns={m}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppfa",
        description="Latent dynamic modeling and monitoring of multivariate time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a monitoring model from normal data")
    train.add_argument("--data", required=True)
    train.add_argument("--config", required=True)
    train.add_argument("--model", required=True, help="output model file")
    train.add_argument("--trace-out", default=None, help="optional training trace CSV")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--alpha", type=float, default=None)
    train.set_defaults(func=cmd_train)

    score = sub.add_parser("score", help="score new data against a trained model")
    score.add_argument("--model", required=True)
    score.add_argument("--data", required=True)
    score.add_argument("--out", required=True, help="output report CSV")
    score.set_defaults(func=cmd_score)

    sel = sub.add_parser("select", help="grid-search latent dimension and lag order")
    sel.add_argument("--data", required=True)
    sel.add_argument("--config", required=True)
    sel.add_argument("--out", required=True, help="output scoreboard CSV")
    sel.add_argument("--seed", type=int, default=None)
    sel.add_argument("--alpha", type=float, default=None)
    sel.set_defaults(func=cmd_select)

    sim = sub.add_parser("simulate", help="generate synthetic benchmark data")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output data CSV")
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)
    return parser


def _category(exc: Exception) -> str:
    if isinstance(exc, DataError):
        return "io"
    if isinstance(exc, ConvergenceError):
        return "convergence"
    if isinstance(exc, NumericsError):
        return "numeric"
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, OSError):
        return "io"
    return "config"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PpfaError, OSError) as exc:
        category = _category(exc)
        print(f"error: {category}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
