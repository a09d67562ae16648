"""Command-line front end: load a config (file or shipped preset), run its
replications, and hand their results to ``bundle``, which writes the files."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import nullcontext

from .allocation import Mode, VdrParams
from .arena import ArenaConfig, SimulationInvariantError, SpawnError
# Unused here: perfbench/tracer.py rebinds these names on this module.
from .analysis import (
    bimodality_score, binomial_comparison, classify_foragers, classify_preferences, histogram,
)
from .bundle import fresh_directory, open_event_log, write_bundle, write_json
from .engine import discard
from .experiment import PRESETS, ExperimentConfig, config_to_dict, run_experiment
from .experiment import _FIELDS, _KEYS, _REQUIRED, _VDR_GROUPS  # the config schema


class ConfigError(ValueError):
    """Bad configuration file: parse failure, unknown key, or invalid value."""


def _number(value) -> float:
    # float() would also read "10" and True; a config number is neither.
    if isinstance(value, (str, bool)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _count(value):
    """An integral JSON float such as ``4.0`` as an int. Any other value
    passes unchanged, for ``ExperimentConfig`` to reject if it is no integer."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


_CONVERT = {Mode: Mode, int: _count, float: _number}


def _vdr_params(parts: dict, prefix: str, path: tuple) -> VdrParams:
    try:
        return VdrParams(**parts[path])
    except ValueError as exc:
        raise ConfigError(f"invalid {prefix}_* probability parameters: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    # Values grouped by the path of the object that holds them: () for
    # ExperimentConfig itself, ("arena",), ("obj_params", 0) and so on.
    parts = {path[:-1]: {} for _, path, _, _ in _FIELDS}
    for key, path, kind, _ in _FIELDS:
        if key in raw:
            try:
                parts[path[:-1]][path[-1]] = _CONVERT[kind](raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    leave, obj1, obj2 = [_vdr_params(parts, *group) for group in _VDR_GROUPS]
    totals = parts[("object_totals",)]
    try:
        return ExperimentConfig(
            **parts[()],
            object_totals=(totals[0], totals[1]),
            leave_params=leave,
            obj_params=(obj1, obj2),
            arena=ArenaConfig(**parts[("arena",)]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    # A key given twice would otherwise silently take its last value.
    twice = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    if twice:
        raise ValueError(f"duplicate keys: {twice}")
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # Malformed JSON, bytes that are not UTF-8, integers past Python's digit
    # limit and duplicate keys raise ValueError; arrays nested too deep,
    # RecursionError.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return config_from_dict(raw)


def write_config(config: ExperimentConfig, path: str) -> None:
    write_json(path, config_to_dict(config))


def run_command(config: ExperimentConfig, output_dir: str, event_log: bool = False) -> dict:
    """Run the replications and write their bundle to ``output_dir``; returns
    the manifest dict. ``bundle.fresh_directory`` guards the directory."""
    with fresh_directory(output_dir):
        results = []
        for rep in range(config.replications):
            with open_event_log(output_dir, rep) if event_log else nullcontext(discard) as emit:
                results.append(run_experiment(config, rep, emit=emit))
        return write_bundle(output_dir, config, results, event_log)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foragesim",
        description="Deterministic multi-robot foraging simulator with "
        "streak-scaled task allocation.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a flat JSON config file")
    source.add_argument("--preset", choices=sorted(PRESETS), help="shipped experiment preset")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--replications", type=int, help="override the replication count")
    parser.add_argument(
        "--mode", choices=["original", "modified"], help="override the allocation mode"
    )
    parser.add_argument(
        "--event-log", action="store_true", help="write one JSONL event log per replication"
    )
    return parser


def main(argv: list | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            try:
                config = load_config(args.config) if args.config else PRESETS[args.preset]()
                # A flag named after a config key (--mode, --seed, --replications)
                # overrides it, through the same checks as the file it overrides.
                overrides = {key: value for key, value in vars(args).items()
                             if key in _KEYS and value is not None}
                config = config_from_dict({**config_to_dict(config), **overrides})
                manifest = run_command(config, args.output, event_log=args.event_log)
            except ConfigError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            except SpawnError as exc:
                print(f"config error: {exc}; the arena is too packed", file=sys.stderr)
                return 2
            except SimulationInvariantError as exc:
                print(f"simulator bug: {exc}", file=sys.stderr)
                return 3
            except (FileExistsError, NotADirectoryError) as exc:
                print(f"output error: {exc}; choose a new or empty directory",
                      file=sys.stderr)
                return 2
            except OSError as exc:
                print(f"i/o error: {exc}", file=sys.stderr)
                return 1
            print(f"wrote bundle to {args.output}")
            print(f"bimodality scores: {manifest['bimodality_scores']}")
            print(f"binomial TV distance: {manifest['binomial_tv_distance']:.4f}")
        finally:
            sys.stdout.flush()  # also as argparse exits after --help
    except BrokenPipeError:
        # The reader of stdout has gone (``| head -0``). Stdout carries only
        # --help and a finished run's summary, so the run has succeeded. Stdout
        # goes to devnull so the interpreter's last flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
