"""Command-line experiment harness.

Verbs: ``simulate`` (emit raw measurements), ``learn`` (fit and save the
fingerprint database), ``localize`` (static per-trial matching), ``track``
(filtering along a trajectory), ``lighting`` (LP control on tracked
candidate sets), and ``report`` (aggregate a results directory).

Every run is a pure function of (config, seed): reruns are byte-identical.
Exit codes: 0 success, 2 configuration error, 3 numeric or infeasibility
failure, 4 I/O failure.
"""

import argparse
import copy
import json
import os
import sys

from .errors import ConfigError, DegenerateUpdateError, InfeasibleError, NumericError
from .experiments.common import write_csv
from .experiments.configs import load_config, validate_config
from .experiments.defaults import pipeline_module
from .experiments.report import cmd_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fingerloc",
        description="Fingerprint localization experiment harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("simulate", "learn", "localize", "track", "lighting", "report"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="experiment config JSON file")
        p.add_argument("--out", help="override the config output directory")
        if verb != "report":  # report reruns nothing
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--sweep", metavar="KEY=A,B,C",
                           help="rerun over comma-separated values of one dotted config key")
    return parser


def apply_override(cfg: dict, dotted: str, value) -> None:
    """Set an existing dotted config key; unknown paths are config errors."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key {dotted!r}", path=dotted)
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}", path=dotted)
    node[parts[-1]] = value


def parse_sweep(spec: str) -> tuple:
    """``key=a,b,c`` -> (key, [values]), values parsed as JSON scalars."""
    if "=" not in spec:
        raise ConfigError(f"sweep spec {spec!r} must look like key=a,b,c")
    key, _, raw = spec.partition("=")
    key = key.strip()
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not key or not tokens:
        raise ConfigError(f"sweep spec {spec!r} must name a key and at least one value")
    values = []
    for tok in tokens:
        try:
            values.append(json.loads(tok))
        except json.JSONDecodeError:
            values.append(tok)
    return key, values


def _flatten(obj, prefix="") -> dict:
    out = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            out.update(_flatten(obj[key], f"{prefix}{key}."))
    elif obj is None or isinstance(obj, (int, float)):  # bool is an int
        out[prefix[:-1]] = obj
    return out


def run_verb(verb: str, cfg: dict, out_dir: str) -> dict:
    pipeline = cfg["pipeline"]
    handler = getattr(pipeline_module(pipeline), f"cmd_{verb}", None)
    if handler is None:
        raise ConfigError(f"the {pipeline} pipeline does not support {verb!r}")
    return handler(cfg, out_dir)


def run_sweep(verb: str, cfg: dict, out_dir: str, sweep_spec: str) -> None:
    key, values = parse_sweep(sweep_spec)
    # every setting is checked before the first one runs
    sub_cfgs = []
    for value in values:
        sub_cfg = copy.deepcopy(cfg)
        apply_override(sub_cfg, key, value)
        validate_config(sub_cfg)
        sub_cfgs.append(sub_cfg)
    flats = [_flatten(run_verb(verb, sub_cfg, os.path.join(out_dir, f"sweep_{key}={value}")))
             for value, sub_cfg in zip(values, sub_cfgs)]
    columns = {"setting": [f"{key}={value}" for value in values]}
    for col in sorted(set().union(*flats)):
        columns[col] = ["" if flat.get(col) is None else flat[col] for flat in flats]
    write_csv(os.path.join(out_dir, "sweep.csv"), columns)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "report":
            if args.config:
                cfg = load_config(args.config)
                results = args.out or cfg["out_dir"]
            elif args.out:
                results = args.out
            else:
                raise ConfigError("report needs --config or --out to find results")
            cmd_report(results)
            print(os.path.join(results, "report.json"))
            return EXIT_OK

        if not args.config:
            raise ConfigError(f"{args.verb} requires --config")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
            validate_config(cfg)
        out_dir = args.out or cfg["out_dir"]
        if args.sweep:
            run_sweep(args.verb, cfg, out_dir, args.sweep)
        else:
            run_verb(args.verb, cfg, out_dir)
        print(out_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, InfeasibleError, DegenerateUpdateError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (json.JSONDecodeError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
