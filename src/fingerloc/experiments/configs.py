"""Experiment configuration loading and validation."""

import json
import math

from ..errors import ConfigError
from .artifacts import load_schema, schema_error, schema_refusal
from .defaults import PIPELINES, _deep_merge, config_defaults

__all__ = ["load_config", "validate_config", "parse_config"]


def _non_finite(node, path: tuple = ()) -> tuple | None:
    """Key path of the first NaN or infinity in a config, else None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, path + (str(key),))
        if found is not None:
            return found
    return None


def _refusal(path: str, message: str) -> ConfigError:
    """The ConfigError "<path>: <message>", a long message shortened by
    :func:`schema_refusal`, naming its path once."""
    error = ConfigError(schema_refusal(path, message))
    error.path = path
    return error


def validate_config(cfg: dict) -> None:
    """Check a fully merged config against its pipeline's shipped schema.

    JSON readers accept ``NaN`` and ``Infinity``, and NaN passes every
    schema bound, so any non-finite number is rejected first.
    """
    pipeline = cfg.get("pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError(
            f"pipeline must be one of {sorted(PIPELINES)}, got {pipeline!r}",
            path="pipeline",
        )
    keys = _non_finite(cfg)
    if keys is not None:
        raise _refusal(".".join(keys), "not a finite number")
    found = schema_error(cfg, load_schema(f"{pipeline}.schema.json"))
    if found is not None:
        keys, message = found
        raise _refusal(".".join(map(str, keys)) or "<root>", message)


def parse_config(raw: dict) -> dict:
    """Merge a raw user config over the pipeline defaults and validate."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    pipeline = raw.get("pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError(
            f"pipeline must be one of {sorted(PIPELINES)}, got {pipeline!r}",
            path="pipeline",
        )
    if raw.get("version") != 1:
        raise ConfigError("config version must be 1", path="version")
    cfg = _deep_merge(config_defaults(pipeline), raw)
    validate_config(cfg)
    return cfg


def load_config(path) -> dict:
    """Read, merge, and validate a JSON experiment config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)
