"""Simulation configuration and its JSON loader."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields


MAX_D = 1024
MAX_TABLE = 2 ** 24  # cap on d * vocab_size: a (vocab_size, d) float64 table stays <= 128 MiB
# the connector's box-loss weight: SimConfig's default, train_toy's default and
# the weight gradcheck uses
DEFAULT_LAMBDA_1 = 2.0


class ConfigError(ValueError):
    """Raised when a config document or field value is invalid."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation's settings, the fields of a config file.

    ``lambda_1`` is the connector's box-loss weight. ``simulate`` records it
    in ``summary.json`` and ``manifest.json`` and reads nothing from it: no
    strategy trains the connector, and ``gradcheck`` and ``train_toy`` use
    ``DEFAULT_LAMBDA_1``, this field's default.
    """

    fps: float = 4.0
    tokens_per_frame: int = 1
    d: int = 64
    N_S: int = 64
    N_L: int = 5
    tau: int = 8
    mean_step_s: float = 32.0
    step_s_jitter: float = 8.0
    vocab_size: int = 128
    seed: int = 7
    lambda_1: float = DEFAULT_LAMBDA_1


def validate_config(cfg: SimConfig) -> SimConfig:
    """Return ``cfg`` unchanged if every invariant holds, else raise
    ``ConfigError`` naming the offending field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if cfg.fps <= 0:
        raise ConfigError(f"fps must be > 0, got {cfg.fps}")
    if cfg.tokens_per_frame < 1:
        raise ConfigError(f"tokens_per_frame must be >= 1, got {cfg.tokens_per_frame}")
    if not 1 <= cfg.d <= MAX_D:
        raise ConfigError(f"d must be in [1, {MAX_D}], got {cfg.d}")
    if cfg.N_S < 1:
        raise ConfigError(f"N_S must be >= 1, got {cfg.N_S}")
    if cfg.N_L < 0:
        raise ConfigError(f"N_L must be >= 0, got {cfg.N_L}")
    if not 0 <= cfg.tau <= sys.maxsize:  # sys.maxsize: the longest deque
        raise ConfigError(f"tau must be in [0, {sys.maxsize}], got {cfg.tau}")
    if cfg.mean_step_s <= 0:
        raise ConfigError(f"mean_step_s must be > 0, got {cfg.mean_step_s}")
    if cfg.step_s_jitter < 0:
        raise ConfigError(f"step_s_jitter must be >= 0, got {cfg.step_s_jitter}")
    if not 2 <= cfg.vocab_size <= MAX_TABLE // cfg.d:
        raise ConfigError(f"vocab_size must be in [2, {MAX_TABLE // cfg.d}] at d={cfg.d}, "
                          f"got {cfg.vocab_size}")
    if cfg.lambda_1 < 0:
        raise ConfigError(f"lambda_1 must be >= 0, got {cfg.lambda_1}")
    if not isinstance(cfg.seed, int):
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


_FIELD_NAMES = {f.name for f in fields(SimConfig)}
# under postponed evaluation each field type is its annotation string
_INT_FIELDS = {f.name for f in fields(SimConfig) if f.type == "int"}


def config_from_dict(data: dict) -> SimConfig:
    """Build a validated config from a plain dict.

    Unknown keys are an error; missing keys fall back to defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        if name in _INT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            kwargs[name] = int(value)
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            try:
                kwargs[name] = float(value)
            except OverflowError:  # an integer beyond the float range
                raise ConfigError(f"{name} must fit in a float, got an integer beyond "
                                  f"{sys.float_info.max:g}") from None
    return validate_config(SimConfig(**kwargs))


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
