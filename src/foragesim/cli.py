"""Command-line front end: load a config (file or shipped preset), run the
replications, and write the result tables, analysis files, and manifest."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from typing import Optional

from . import __version__
from .allocation import Mode, VdrParams
from .arena import ArenaConfig, SimulationInvariantError, SpawnError
from .analysis import summarize
# Unused here: perfbench/tracer.py rebinds these names on this module.
from .analysis import (
    bimodality_score,
    binomial_comparison,
    classify_foragers,
    classify_preferences,
    histogram,
)
from .experiment import PRESETS, ExperimentConfig, run_experiment


class ConfigError(ValueError):
    """Bad configuration file: parse failure, unknown key, or invalid value."""


# The three probability groups: key prefix, and path to the VdrParams.
_VDR_GROUPS = (
    ("leave", ("leave_params",)),
    ("obj1", ("obj_params", 0)),
    ("obj2", ("obj_params", 1)),
)

# The config file schema, one row per JSON key: the key, its path in
# ExperimentConfig (attribute names, and indices into its tuples), its type,
# and whether the file must give it. An omitted key takes the dataclass
# default. Geometry and probability keys are the field names of ArenaConfig
# and VdrParams, so renaming such a field renames its key.
_FIELDS = (
    ("mode", ("mode",), Mode, True),
    ("robot_count", ("robot_count",), int, True),
    ("objects_type1", ("object_totals", 0), int, True),
    ("objects_type2", ("object_totals", 1), int, True),
    ("horizon_seconds", ("horizon",), float, True),
    ("search_timeout_seconds", ("search_timeout",), float, True),
    ("seed", ("seed",), int, True),
    ("replications", ("replications",), int, True),
    ("tick_duration", ("tick_duration",), float, False),
    ("leave_check_period", ("leave_check_period",), float, False),
    *((spec.name, ("arena", spec.name), float, False) for spec in fields(ArenaConfig)),
    *(
        (f"{prefix}_{spec.name}", (*path, spec.name), float, True)
        for prefix, path in _VDR_GROUPS
        for spec in fields(VdrParams)
    ),
)
_KEYS = {row[0] for row in _FIELDS}
_REQUIRED = {row[0] for row in _FIELDS if row[3]}


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


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for key, path, kind, _ in _FIELDS:
        value = config
        for step in path:
            value = value[step] if isinstance(step, int) else getattr(value, step)
        out[key] = value.value if kind is Mode else value
    return out


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # Malformed JSON, bytes that are not UTF-8 and integers past Python's
    # digit limit raise ValueError; arrays nested too deep, RecursionError.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return config_from_dict(raw)


def write_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


class _EventWriter:
    """The engine's event sink for a log file: writes each record it is
    given as one JSON line."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def append(self, record) -> None:
        self.fh.write(json.dumps(record) + "\n")


def run_command(config: ExperimentConfig, output_dir: str, event_log: bool = False) -> dict:
    """Execute the replications and write the full output bundle.

    Returns the manifest dict. Raises ``FileExistsError`` before running
    anything if ``output_dir`` already holds files, so a bundle never mixes
    with files of an earlier run. On any later failure, files already
    written to the output directory by this call are removed before the
    error propagates.
    """
    os.makedirs(output_dir, exist_ok=True)
    if os.listdir(output_dir):
        raise FileExistsError(f"output directory {output_dir} is not empty")
    written: list = []

    def path_for(name: str) -> str:
        p = os.path.join(output_dir, name)
        written.append(p)
        return p

    def write_table(name: str, header: str, rows) -> None:
        # csv writes None as an empty field and a float as its repr.
        with open(path_for(name), "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header.split(","))
            writer.writerows(rows)

    try:
        results = []
        for rep in range(config.replications):
            if event_log:
                # Streamed as the run goes, so memory does not grow with it.
                with open(path_for(f"events_run{rep:03d}.jsonl"), "w") as fh:
                    results.append(run_experiment(config, rep, events=_EventWriter(fh)))
            else:
                results.append(run_experiment(config, rep))

        summary = summarize(config, results)
        labels = summary.labels

        none = [None] * config.robot_count  # the MODIFIED-only columns of an ORIGINAL run
        rows = []
        for rep, (result, cls) in enumerate(zip(results, summary.classification)):
            pobj1, pobj2 = result.final_pobj or (none, none)
            run_labels = [label.value for label in labels[rep]] if labels else none
            for rid in range(config.robot_count):
                rows.append(
                    (rep, rid, *result.capabilities[rid], result.final_p1[rid], pobj1[rid],
                     pobj2[rid], *result.trips[rid], int(rid in cls.forager_ids),
                     run_labels[rid])
                )
        write_table(
            "results.csv",
            "run,robot,cap_type1,cap_type2,final_p1,final_pobj1,final_pobj2,"
            "trip_successes,trip_failures,forager,label",
            rows,
        )

        for name, counts in summary.bins.items():
            low, high = summary.ranges[name]
            width = (high - low) / len(counts)
            write_table(
                f"{name}_histogram.csv",
                "bin_low,bin_high,count",
                [(low + i * width, low + (i + 1) * width, c) for i, c in enumerate(counts)],
            )

        write_table(
            "classification.csv",
            "run,threshold,degenerate,forager_count,forager_ids",
            [
                (rep, cls.threshold, int(cls.degenerate), len(cls.forager_ids),
                 ";".join(map(str, cls.forager_ids)))
                for rep, cls in enumerate(summary.classification)
            ],
        )

        comparison = summary.binomial
        write_table(
            "binomial.csv",
            "k,observed,theoretical",
            zip(range(config.robot_count + 1), comparison.observed, comparison.theoretical),
        )

        manifest = {
            "package": "foragesim",
            "version": __version__,
            "config": config_to_dict(config),
            "bimodality_scores": summary.bimodality,
            "binomial_p_hat": comparison.p_hat,
            "binomial_tv_distance": comparison.tv_distance,
            "retrieved_totals": [
                sum(r.retrieved[0] for r in results),
                sum(r.retrieved[1] for r in results),
            ],
            "event_log": event_log,
        }
        with open(path_for("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest
    except BaseException:
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foragesim",
        description="Deterministic multi-robot foraging simulator with "
        "streak-scaled task allocation.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a flat JSON config file")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="shipped experiment preset"
    )
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--replications", type=int, help="override the replication count"
    )
    parser.add_argument(
        "--mode",
        choices=["original", "modified"],
        help="override the allocation mode",
    )
    parser.add_argument(
        "--event-log",
        action="store_true",
        help="write one JSONL event log per replication",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = PRESETS[args.preset]()
        # A flag named after a config key (--mode, --seed, --replications)
        # overrides it, through the same checks as the file it overrides.
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key in _KEYS and value is not None
        }
        config = config_from_dict({**config_to_dict(config), **overrides})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_command(config, args.output, event_log=args.event_log)
    except SpawnError as exc:
        print(f"config error: {exc}; the arena is too packed", file=sys.stderr)
        return 2
    except SimulationInvariantError as exc:
        print(f"simulator bug: {exc}", file=sys.stderr)
        return 3
    except FileExistsError as exc:
        print(f"output error: {exc}; choose a new or empty directory", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote bundle to {args.output}")
    print(f"bimodality scores: {manifest['bimodality_scores']}")
    print(f"binomial TV distance: {manifest['binomial_tv_distance']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
