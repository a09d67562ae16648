"""Command-line front end: the arguments, the flags that override config keys,
the replication loop and the exit codes. ``experiment`` reads a config file
and checks every config; ``bundle`` writes the output files."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .allocation import Mode
from .arena import SimulationInvariantError, SpawnError
# Unused here: perfbench/tracer.py rebinds these names on this module.
from .analysis import (
    bimodality_score, binomial_comparison, classify_foragers, classify_preferences, histogram,
)
from .bundle import fresh_directory, open_event_log, write_bundle, write_json
from .engine import discard
from .experiment import PRESETS, ConfigError, ExperimentConfig, config_from_dict, config_to_dict
from .experiment import load_config, run_experiment


def write_config(config: ExperimentConfig, path: str) -> None:
    write_json(path, config_to_dict(config))


def run_command(config: ExperimentConfig, output_dir: str, event_log: bool = False) -> dict:
    """Run the replications and write their bundle to ``output_dir``; returns
    the manifest dict. ``bundle.fresh_directory`` guards the directory and
    resolves its path once."""
    with fresh_directory(output_dir) as path:
        results = []
        for rep in range(config.replications):
            with open_event_log(path, rep) if event_log else nullcontext(discard) as emit:
                results.append(run_experiment(config, rep, emit=emit))
        return write_bundle(path, config, results, event_log)


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
        "--mode", choices=[mode.value for mode in Mode], help="override the allocation mode"
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
                raw = config_to_dict(config)
                raw.update((k, v) for k, v in vars(args).items() if k in raw and v is not None)
                config = config_from_dict(raw)
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
    except KeyboardInterrupt:
        # Ctrl-C: run_command has removed what the run wrote.
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
