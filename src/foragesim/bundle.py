"""The output bundle: the one module that knows the output directory and
the layout of the files written to it and read back from it."""

import csv
import json
import os
import signal
import threading
from contextlib import contextmanager, suppress
from typing import NamedTuple, Optional

from . import __version__
from .analysis import summarize
from .experiment import ExperimentConfig, config_from_dict, config_to_dict


@contextmanager
def fresh_directory(output_dir: str):
    """Make ``output_dir`` and any missing directories above it, and yield
    its path with every symlink and ``..`` resolved, the one path to write
    through. Refuse it, with ``FileExistsError`` or ``NotADirectoryError``, if
    it holds files, is a file or is empty. If making it fails, remove the
    directories made so far; if the block raises, remove the files in it and
    the directories made here before the error propagates. SIGTERM raises
    ``SystemExit(143)`` in the block, so it cleans up the same way. Errors
    name ``output_dir`` as given."""
    if not output_dir:
        raise NotADirectoryError("the output directory's name is empty")
    path = os.path.realpath(output_dir)
    missing = []  # the directories to make, innermost first
    parent = path
    while not os.path.lexists(parent):
        missing.append(parent)
        parent = os.path.dirname(parent)
    made = []  # the directories made here, outermost first
    try:
        for directory in reversed(missing):
            os.mkdir(directory)
            made.append(directory)
        if os.listdir(path):
            raise FileExistsError(f"output directory {output_dir} is not empty")
    except OSError as exc:
        _remove_directories(made)
        if exc.filename is not None:
            exc.filename = output_dir
        raise
    # Only the main thread can set a signal handler, and only it runs one.
    main_thread = threading.current_thread() is threading.main_thread()
    if main_thread:
        previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield path
    except BaseException:
        # The directory was empty when the run began.
        for name in os.listdir(path):
            with suppress(OSError):
                os.remove(os.path.join(path, name))
        _remove_directories(made)
        raise
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


def _remove_directories(made: list) -> None:
    """Remove the directories of ``made``, innermost first, up to the first
    that is no longer empty."""
    for directory in reversed(made):
        try:
            os.rmdir(directory)
        except OSError:
            break


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)  # the status a shell gives a killed process


def event_log_name(replication: int) -> str:
    return f"events_run{replication:03d}.jsonl"


@contextmanager
def open_event_log(output_dir: str, replication: int):
    """Yield the sink of one replication's event log, which writes each record
    to its file as one JSON line as the run goes, so memory does not grow."""
    path = os.path.join(output_dir, event_log_name(replication))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        def emit(record):
            fh.write(json.dumps(record) + "\n")

        yield emit


def write_json(path: str, data: dict) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(output_dir: str, name: str, header: str, rows) -> None:
    # csv writes None as an empty field and a float as its repr.
    with open(os.path.join(output_dir, name), "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_bundle(output_dir: str, config: ExperimentConfig, results: list,
                 event_log: bool) -> dict:
    """Analyse ``results``, write the tables and the manifest; return the manifest."""
    summary = summarize(config, results)
    none = [None] * config.robot_count  # the MODIFIED-only columns of an ORIGINAL run
    rows = []
    for rep, (result, cls) in enumerate(zip(results, summary.classification)):
        pobj1, pobj2 = result.final_pobj or (none, none)
        run_labels = [label.value for label in summary.labels[rep]] if summary.labels else none
        for rid in range(config.robot_count):
            rows.append(
                (rep, rid, *result.capabilities[rid], result.final_p1[rid], pobj1[rid],
                 pobj2[rid], *result.trips[rid], int(rid in cls.forager_ids),
                 run_labels[rid])
            )
    write_csv(
        output_dir, "results.csv",
        "run,robot,cap_type1,cap_type2,final_p1,final_pobj1,final_pobj2,"
        "trip_successes,trip_failures,forager,label",
        rows,
    )
    for name, counts in summary.bins.items():
        low, high = summary.ranges[name]
        width = (high - low) / len(counts)
        write_csv(
            output_dir, f"{name}_histogram.csv", "bin_low,bin_high,count",
            [(low + i * width, low + (i + 1) * width, c) for i, c in enumerate(counts)],
        )
    write_csv(
        output_dir, "classification.csv", "run,threshold,degenerate,forager_count,forager_ids",
        [
            (rep, cls.threshold, int(cls.degenerate), len(cls.forager_ids),
             ";".join(map(str, cls.forager_ids)))
            for rep, cls in enumerate(summary.classification)
        ],
    )
    comparison = summary.binomial
    write_csv(
        output_dir, "binomial.csv", "k,observed,theoretical",
        zip(range(config.robot_count + 1), comparison.observed, comparison.theoretical),
    )
    manifest = {
        "package": "foragesim",
        "version": __version__,
        "config": config_to_dict(config),
        "bimodality_scores": summary.bimodality,
        "binomial_p_hat": comparison.p_hat,
        "binomial_tv_distance": comparison.tv_distance,
        "retrieved_totals": [sum(r.retrieved[t] for r in results) for t in (0, 1)],
        "event_log": event_log,
    }
    write_json(os.path.join(output_dir, "manifest.json"), manifest)
    return manifest


class Bundle(NamedTuple):
    files: dict  # every file's bytes, by name
    manifest: dict
    config: ExperimentConfig  # loaded from the manifest's echo
    rows: list  # results.csv's rows, each a dict keyed by its header
    events: Optional[list]  # each replication's records, as lists; None without the log


def read_bundle(output_dir: str) -> Bundle:
    """Read back the bundle written to ``output_dir``."""
    files = {}
    for name in sorted(os.listdir(output_dir)):
        with open(os.path.join(output_dir, name), "rb") as fh:
            files[name] = fh.read()
    manifest = json.loads(files["manifest.json"])
    config = config_from_dict(manifest["config"])
    events = [[json.loads(line) for line in files[event_log_name(rep)].splitlines()]
              for rep in range(config.replications)] if manifest["event_log"] else None
    rows = csv.DictReader(files["results.csv"].decode("utf-8").splitlines())
    return Bundle(files, manifest, config, list(rows), events)
