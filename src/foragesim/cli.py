"""Command-line front end: load a config (file or shipped preset), run the
replications, and write the result tables, analysis files, and manifest."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

from . import __version__
from .allocation import Mode, VdrParams
from .arena import ArenaConfig, SimulationInvariantError, SpawnError
from .analysis import (
    bimodality_score,
    binomial_comparison,
    classify_foragers,
    classify_preferences,
    histogram,
)
from .experiment import PRESETS, ExperimentConfig, run_experiment

HISTOGRAM_BINS = 8


class ConfigError(ValueError):
    """Bad configuration file: parse failure, unknown key, or invalid value."""


_REQUIRED_KEYS = {
    "mode",
    "robot_count",
    "objects_type1",
    "objects_type2",
    "horizon_seconds",
    "search_timeout_seconds",
    "leave_p_max",
    "leave_p_min",
    "leave_p_initial",
    "leave_delta",
    "obj1_p_max",
    "obj1_p_min",
    "obj1_p_initial",
    "obj1_delta",
    "obj2_p_max",
    "obj2_p_min",
    "obj2_p_initial",
    "obj2_delta",
    "seed",
    "replications",
}

# Geometry and timing keys may be omitted; defaults are the declared
# interpretation constants baked into ArenaConfig / ExperimentConfig.
_OPTIONAL_DEFAULTS = {
    "arena_half_width": 10.0,
    "nest_radius": 2.0,
    "robot_radius": 0.15,
    "object_radius": 0.15,
    "robot_speed": 1.0,
    "contact_margin": 0.05,
    "heading_jitter": 0.1,
    "tick_duration": 0.1,
    "leave_check_period": 0.1,
}


def _vdr_params(raw: dict, prefix: str) -> VdrParams:
    try:
        return VdrParams(
            p_max=float(raw[f"{prefix}_p_max"]),
            p_min=float(raw[f"{prefix}_p_min"]),
            p_initial=float(raw[f"{prefix}_p_initial"]),
            delta=float(raw[f"{prefix}_delta"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {prefix}_* probability parameters: {exc}") from exc


def _count(raw: dict, key: str):
    """An integral JSON float such as ``4.0`` as an int. Any other value
    passes unchanged, for ``ExperimentConfig`` to reject if it is no integer."""
    value = raw[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _REQUIRED_KEYS - set(_OPTIONAL_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    merged = dict(_OPTIONAL_DEFAULTS)
    merged.update(raw)

    if merged["mode"] not in ("original", "modified"):
        raise ConfigError("mode must be 'original' or 'modified'")
    try:
        arena = ArenaConfig(
            arena_half_width=float(merged["arena_half_width"]),
            nest_radius=float(merged["nest_radius"]),
            robot_radius=float(merged["robot_radius"]),
            object_radius=float(merged["object_radius"]),
            robot_speed=float(merged["robot_speed"]),
            contact_margin=float(merged["contact_margin"]),
            heading_jitter=float(merged["heading_jitter"]),
        )
        return ExperimentConfig(
            mode=Mode(merged["mode"]),
            robot_count=_count(merged, "robot_count"),
            object_totals=(
                _count(merged, "objects_type1"),
                _count(merged, "objects_type2"),
            ),
            horizon=float(merged["horizon_seconds"]),
            search_timeout=float(merged["search_timeout_seconds"]),
            leave_params=_vdr_params(merged, "leave"),
            obj_params=(_vdr_params(merged, "obj1"), _vdr_params(merged, "obj2")),
            arena=arena,
            seed=_count(merged, "seed"),
            replications=_count(merged, "replications"),
            tick_duration=float(merged["tick_duration"]),
            leave_check_period=float(merged["leave_check_period"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    arena = config.arena
    out = {
        "mode": config.mode.value,
        "robot_count": config.robot_count,
        "objects_type1": config.object_totals[0],
        "objects_type2": config.object_totals[1],
        "horizon_seconds": config.horizon,
        "search_timeout_seconds": config.search_timeout,
        "seed": config.seed,
        "replications": config.replications,
        "arena_half_width": arena.arena_half_width,
        "nest_radius": arena.nest_radius,
        "robot_radius": arena.robot_radius,
        "object_radius": arena.object_radius,
        "robot_speed": arena.robot_speed,
        "contact_margin": arena.contact_margin,
        "heading_jitter": arena.heading_jitter,
        "tick_duration": config.tick_duration,
        "leave_check_period": config.leave_check_period,
    }
    for prefix, params in (
        ("leave", config.leave_params),
        ("obj1", config.obj_params[0]),
        ("obj2", config.obj_params[1]),
    ):
        out[f"{prefix}_p_max"] = params.p_max
        out[f"{prefix}_p_min"] = params.p_min
        out[f"{prefix}_p_initial"] = params.p_initial
        out[f"{prefix}_delta"] = params.delta
    return out


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return config_from_dict(raw)


def write_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _write_histogram_csv(path: str, values, bins: int, low: float, high: float) -> list:
    counts = histogram(values, bins, low, high)
    width = (high - low) / bins
    with open(path, "w") as fh:
        fh.write("bin_low,bin_high,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{_fmt(low + i * width)},{_fmt(low + (i + 1) * width)},{c}\n")
    return counts


def run_command(
    config: ExperimentConfig,
    output_dir: str,
    seed: Optional[int] = None,
    replications: Optional[int] = None,
    event_log: bool = False,
) -> dict:
    """Execute the replications and write the full output bundle.

    Returns the manifest dict. Raises ``FileExistsError`` before running
    anything if ``output_dir`` already holds files, so a bundle never mixes
    with files of an earlier run. On any later failure, files already
    written to the output directory by this call are removed before the
    error propagates.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    if replications is not None:
        config = replace(config, replications=replications)
    os.makedirs(output_dir, exist_ok=True)
    if os.listdir(output_dir):
        raise FileExistsError(f"output directory {output_dir} is not empty")
    written: list = []

    def path_for(name: str) -> str:
        p = os.path.join(output_dir, name)
        written.append(p)
        return p

    try:
        results = []
        for rep in range(config.replications):
            events = [] if event_log else None
            results.append(run_experiment(config, rep, events=events))
            if event_log:
                with open(path_for(f"events_run{rep:03d}.jsonl"), "w") as fh:
                    for record in events:
                        fh.write(json.dumps(record) + "\n")

        report = classify_foragers(results)
        modified = config.mode is Mode.MODIFIED
        labels = [classify_preferences(r) for r in results] if modified else None

        with open(path_for("results.csv"), "w") as fh:
            fh.write(
                "run,robot,cap_type1,cap_type2,final_p1,final_pobj1,final_pobj2,"
                "trip_successes,trip_failures,forager,label\n"
            )
            for rep, result in enumerate(results):
                cls = report.runs[rep]
                for rid in range(config.robot_count):
                    pobj1 = result.final_pobj[0][rid] if modified else None
                    pobj2 = result.final_pobj[1][rid] if modified else None
                    label = labels[rep][rid].value if modified else None
                    fh.write(
                        ",".join(
                            [
                                str(rep),
                                str(rid),
                                _fmt(result.capabilities[rid][0]),
                                _fmt(result.capabilities[rid][1]),
                                _fmt(result.final_p1[rid]),
                                _fmt(pobj1),
                                _fmt(pobj2),
                                str(result.trips[rid][0]),
                                str(result.trips[rid][1]),
                                str(int(rid in cls.forager_ids)),
                                label or "",
                            ]
                        )
                        + "\n"
                    )

        lp = config.leave_params
        all_p1 = [p for r in results for p in r.final_p1]
        p1_bins = _write_histogram_csv(
            path_for("p1_histogram.csv"), all_p1, HISTOGRAM_BINS, lp.p_min, lp.p_max
        )
        scores = {"p1": bimodality_score(p1_bins)}
        if modified:
            for i, name in enumerate(("pobj1", "pobj2")):
                op = config.obj_params[i]
                values = [p for r in results for p in r.final_pobj[i]]
                bins = _write_histogram_csv(
                    path_for(f"{name}_histogram.csv"),
                    values,
                    HISTOGRAM_BINS,
                    op.p_min,
                    op.p_max,
                )
                scores[name] = bimodality_score(bins)

        with open(path_for("classification.csv"), "w") as fh:
            fh.write("run,threshold,degenerate,forager_count,forager_ids\n")
            for rep, cls in enumerate(report.runs):
                ids = ";".join(str(i) for i in cls.forager_ids)
                fh.write(
                    f"{rep},{_fmt(cls.threshold)},{int(cls.degenerate)},"
                    f"{len(cls.forager_ids)},{ids}\n"
                )

        comparison = binomial_comparison(report.forager_counts, config.robot_count)
        with open(path_for("binomial.csv"), "w") as fh:
            fh.write("k,observed,theoretical\n")
            for k in range(config.robot_count + 1):
                fh.write(
                    f"{k},{_fmt(comparison.observed[k])},"
                    f"{_fmt(comparison.theoretical[k])}\n"
                )

        manifest = {
            "package": "foragesim",
            "version": __version__,
            "config": config_to_dict(config),
            "bimodality_scores": scores,
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
        if args.mode:
            config = replace(config, mode=Mode(args.mode))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_command(
            config,
            args.output,
            seed=args.seed,
            replications=args.replications,
            event_log=args.event_log,
        )
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
