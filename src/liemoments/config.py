"""Centralized tolerances and runtime settings.

Every numerical threshold used by the samplers and estimators lives in one
frozen record so the CLI can surface all of them in JSON output.  Settings
resolution follows flags > environment > config file > defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

ENV_CACHE_DIR = "LIEMOMENTS_CACHE_DIR"
ENV_CONFIG_FILE = "LIEMOMENTS_CONFIG"
ENV_DEFAULT_SAMPLES = "LIEMOMENTS_DEFAULT_SAMPLES"


@dataclass(frozen=True)
class Tolerances:
    # a sample is redrawn when any of these checks fails
    trace_imag: float = 1e-8  # imaginary part of a power trace
    pairing: float = 1e-6  # conjugate pairing of the eigenvalues
    denominator_min: float = 1e-12  # floor on the Weyl denominator

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Settings:
    cache_dir: Path | None = None
    default_samples: int = 100_000
    tolerances: Tolerances = field(default_factory=Tolerances)


def load_settings(
    *,
    cache_dir: str | os.PathLike | None = None,
    default_samples: int | None = None,
    config_file: str | os.PathLike | None = None,
) -> Settings:
    """Resolve settings.  Keyword arguments are the CLI flags and win over
    the environment, which wins over the JSON config file."""
    settings = Settings()

    path = config_file or os.environ.get(ENV_CONFIG_FILE)
    if path:
        settings = _apply_config_file(settings, Path(path))

    env_cache = os.environ.get(ENV_CACHE_DIR)
    if env_cache:
        settings = replace(settings, cache_dir=Path(env_cache))
    env_samples = os.environ.get(ENV_DEFAULT_SAMPLES)
    if env_samples:
        settings = replace(settings, default_samples=int(env_samples))

    if cache_dir is not None:
        settings = replace(settings, cache_dir=Path(cache_dir))
    if default_samples is not None:
        settings = replace(settings, default_samples=int(default_samples))
    return settings


def _apply_config_file(settings: Settings, path: Path) -> Settings:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if "cache_dir" in data and data["cache_dir"] is not None:
        settings = replace(settings, cache_dir=Path(data["cache_dir"]))
    if "default_samples" in data:
        settings = replace(settings, default_samples=int(data["default_samples"]))
    if "tolerances" in data:
        overrides = data["tolerances"]
        known = {f.name for f in fields(Tolerances)}
        bad = set(overrides) - known
        if bad:
            raise ValueError(f"unknown tolerance keys in {path}: {sorted(bad)}")
        tol = replace(settings.tolerances, **{k: float(v) for k, v in overrides.items()})
        settings = replace(settings, tolerances=tol)
    return settings
