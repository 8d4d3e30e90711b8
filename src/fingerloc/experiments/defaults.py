"""Configuration defaults and the pipeline registry.

Each pipeline's configuration is the deep merge of ``COMMON``, the
``DEFAULTS`` dict of the module that runs it, and the user's JSON config (the
user wins).  Parameters without an established value in the underlying
method — the swept fusion weights ``gamma_sweep``, candidate-set threshold
``eta_rel``, particle count, diagonal loading, mobility strengths — live in
those dicts so they are visible and sweepable rather than buried in code.
Every key is read by the pipeline it belongs to.

Resolving a config imports its pipeline's module and no other, so a run
loads only the library layers (and scipy subpackages) its pipeline calls.
"""

import copy
import importlib

__all__ = ["COMMON", "CHANNEL", "PIPELINES", "config_defaults", "pipeline_module"]

COMMON = {
    "version": 1,
    "seed": 20260816,
    "out_dir": "results",
}

# the multipath channel shared by the radio-link pipelines
CHANNEL = {
    "path_count": 6,
    "delay_spread_s": 2e-7,
    "pathloss_exponent": 2.5,
    "reference_loss_db": 40.0,
    "rician_k_db": 6.0,
}

# pipeline -> the fingerloc.experiments module that runs it
PIPELINES = {
    "classroom_cir": "classroom",
    "wifi_rssi_rspd": "wifi",
    "bems_binary": "bems",
    "illegal_hybrid": "illegal",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def pipeline_module(pipeline: str):
    """The module that runs ``pipeline``; imported on first use."""
    if pipeline not in PIPELINES:
        raise KeyError(f"unknown pipeline {pipeline!r}")
    return importlib.import_module(f"{__package__}.{PIPELINES[pipeline]}")


def config_defaults(pipeline: str) -> dict:
    """Full default configuration for one pipeline, as a fresh copy."""
    merged = _deep_merge(COMMON, pipeline_module(pipeline).DEFAULTS)
    merged["pipeline"] = pipeline
    return merged
