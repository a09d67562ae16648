#!/usr/bin/env python3
"""Write BENCH_<short-commit>.json: the benchmark's numbers for one commit.

    python3 scripts/bench.py [--seconds S] [--commit REV]

Run it from a checkout; it uses only the standard library and pytest. It
drives ``perfbench/run.py`` as it stands in the measured tree and records:

- the environment (Python, ``nproc``, the commit);
- per workload of ``BENCHMARK.json``, seed 1: the median and quartiles of
  ``wall_ref``, ``robot_ticks_per_ref``, ``setup_s`` and ``peak_rss_mb``
  over the bundles of one ``--trace 0`` run, read from the per-bundle units
  that run leaves in ``perfbench/.work/``, and the traced layer split of one
  ``--trace 1`` run;
- per workload, each run's ``correct``, ``attempted`` and ``failed``: the
  two above and, at the hold-out seed 1001, one 1 s run at each ``--trace``;
- the cost per robot-tick of Set II at constant density for N = 15, 60 and
  240, configs from ``perfbench/run.py``'s ``make_config``, each with the
  same robot-ticks: the median and quartiles of its repeats. The sweep
  tracks how that cost scales with N; its points move by up to 14% between
  two runs of one commit, so it cannot resolve a change under about 15%;
- the Tier-1 wall time, its three slowest tests and, when it fails, the
  last lines pytest wrote to stderr.

Without ``--commit`` it measures the working tree; with it, a ``git archive``
of REV in a temporary directory. The file is written at the root of this
checkout. ``--seconds`` is each perfbench run's length: 30 by default, the
benchmark's, and 1 in CI, which checks that the file is complete, not what
it measures. The exit code is 2, with one line on stderr, when there is no
commit to measure (in a ``git archive`` copy, say), and 1 when the file
lacks a workload or metric, a run failed (it prints its last lines), a
median differs from the value perfbench printed, or the Tier-1 suite failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 1
# No change is tuned against the hold-out seed; its runs check correctness only.
HOLDOUT_SEED = 1001
HOLDOUT_SECONDS = 1.0
# Set II at linear scale k holds 15 k^2 robots; a horizon of 384 / k^2
# seconds gives every point 57,600 robot-ticks, four times the crowd
# workload's.
SWEEP_SCALES = (1, 2, 4)
SWEEP_REPEATS = 5


def git(*args: str) -> str:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent))
    return subprocess.run(
        ["git", *args], cwd=HERE, env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def quartiles(values: list) -> dict:
    if len(values) < 2:  # statistics.quantiles needs two points
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def perfbench(root: Path, workload: str, seed: int, trace: int, seconds: float) -> tuple:
    """One ``perfbench/run.py`` run: its record for the file, its result line
    and its ``.work`` report, the last two ``None`` if it exited non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    record = {"seed": seed, "trace": trace, "rc": proc.returncode, "correct": False}
    result = report = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.splitlines()[-1])
        record.update((key, result[key]) for key in ("correct", "attempted", "failed"))
        path = root / "perfbench" / ".work" / f"{workload}-seed{seed}-trace{trace}.json"
        report = json.loads(path.read_text())
    if record["correct"] is not True:
        tail = proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:]
        print(f"{workload} seed {seed} trace {trace} failed:", *tail, sep="\n  ", file=sys.stderr)
    return record, result, report


def load_perfbench(root: Path):
    """Import the measured tree's ``perfbench/run.py`` and its package."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_workload(root: Path, run, name: str, seconds: float) -> dict:
    timed, timed_out, report = perfbench(root, name, SEED, 0, seconds)
    traced, traced_out, _ = perfbench(root, name, SEED, 1, seconds)
    holdout = [perfbench(root, name, HOLDOUT_SEED, trace, HOLDOUT_SECONDS)[0] for trace in (0, 1)]
    metrics = {}
    if report is not None:
        # perfbench/run.py's formulas over its units; problems() checks that
        # each median is the value it printed.
        ticks = run.robot_ticks(run.make_config(run.WORKLOADS[name], report["config_seed"]))
        units = report["units"]
        samples = {
            "wall_ref": [u["wall_s"] / u["ref_s"] for u in units],
            "robot_ticks_per_ref": [ticks * u["ref_s"] / u["wall_s"] for u in units],
            "setup_s": [u["wall_s"] for u in report["setup_units"]],
            "peak_rss_mb": [u["peak_rss_mb"] for u in units if "peak_rss_mb" in u],
        }
        metrics = {
            metric: {**timed_out["metrics"][metric], **quartiles(values)}
            for metric, values in samples.items() if values
        }
    return {
        "runs": [timed, traced, *holdout],
        "metrics": metrics,
        "layers": {m: e["value"] for m, e in traced_out["metrics"].items()} if traced_out else {},
    }


def sweep(run) -> list:
    from foragesim.experiment import run_experiment

    configs = [
        run.make_config(
            run.Workload("set2", replications=1, horizon=384.0 / (k * k), scale=k), SEED
        )
        for k in SWEEP_SCALES
    ]
    rows = [[] for _ in configs]
    # The scales take turns, so host drift reaches each point alike.
    for _ in range(SWEEP_REPEATS):
        for config, samples in zip(configs, rows):
            ticks = config.robot_count * config.total_ticks
            ref = run.reference_seconds()
            start = time.perf_counter()
            run_experiment(replace(config, horizon=0.0))
            built = time.perf_counter()
            run_experiment(config)
            tick_s = time.perf_counter() - built - (built - start)
            ref = (ref + run.reference_seconds()) / 2
            samples.append((built - start, tick_s / ticks * 1e6, ticks * ref / tick_s))
    points = []
    for config, samples in zip(configs, rows):
        point = {
            "robots": config.robot_count,
            "objects": sum(config.object_totals),
            "arena_half_width": config.arena.arena_half_width,
            "horizon_s": config.horizon,
            "robot_ticks": config.robot_count * config.total_ticks,
            "build_s": statistics.median(r[0] for r in samples),
        }
        # The median of each cost, and its quartiles for the spread.
        for i, key in ((1, "us_per_robot_tick"), (2, "robot_ticks_per_ref")):
            q = quartiles([r[i] for r in samples])
            point.update({key: q["median"], f"{key}_q1": q["q1"], f"{key}_q3": q["q3"]})
        points.append(point)
    return points


def tier1(root: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=3"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [
        {"s": float(m[1]), "phase": m[2], "test": m[3]}
        for m in (re.match(r"([\d.]+)s (call|setup|teardown)\s+(\S+)", line) for line in lines)
        if m
    ]
    # A suite that cannot start (no pytest, say) says why on stderr only.
    return {"wall_s": wall, "rc": proc.returncode, "summary": lines[-1] if lines else "",
            "stderr": proc.stderr.splitlines()[-5:], "slowest": slowest}


def problems(bench: dict, spec: dict) -> list:
    """What the file lacks or marks as failed, one line each."""
    found = []
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = bench["workloads"].get(name)
        if entry is None:
            found.append(f"{name}: missing")
            continue
        for run in entry["runs"]:
            where = f"{name} seed {run['seed']} trace {run['trace']}"
            if run["rc"] != 0:
                found.append(f"{where}: exit {run['rc']}")
            elif run["correct"] is not True:
                found.append(f"{where}: not correct")
        for metric, m in entry["metrics"].items():
            if m["median"] != m["value"]:
                found.append(f"{name}: {metric} median {m['median']} != printed {m['value']}")
        for kind, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            missing = {m["name"] for m in spec[kind]} - set(entry[key])
            if missing:
                found.append(f"{name}: lacks {sorted(missing)}")
    if [p["robots"] for p in bench["sweep"]] != [15 * k * k for k in SWEEP_SCALES]:
        found.append("sweep: incomplete")
    tier1 = bench["tier1"]
    if tier1["rc"] != 0:
        stderr = "".join(f" | {line}" for line in tier1["stderr"])
        found.append(f"tier1: rc {tier1['rc']} ({tier1['summary']}){stderr}")
    if len(tier1["slowest"]) != 3:
        found.append(f"tier1: no test durations in {tier1['summary']!r}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of each perfbench run (default 30; CI runs 1)")
    parser.add_argument("--commit", help="measure this commit instead of the working tree")
    args = parser.parse_args()

    try:
        commit = git("rev-parse", args.commit or "HEAD")
    except subprocess.CalledProcessError as exc:
        # A git archive copy, say, has no commit to name the file after.
        reason = (exc.stderr.strip().splitlines() or [f"git exited {exc.returncode}"])[0]
        print(f"bench.py: no commit to measure in {HERE}: {reason}", file=sys.stderr)
        return 2
    tmp = None
    try:
        if args.commit:
            tmp = Path(tempfile.mkdtemp(prefix="bench-"))
            archive = subprocess.run(["git", "archive", commit], cwd=HERE,
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp, filter="data")
            root = tmp
        else:
            root = HERE
        spec = json.loads((root / "BENCHMARK.json").read_text())
        run = load_perfbench(root)
        workloads = {
            w["name"]: measure_workload(root, run, w["name"], args.seconds)
            for w in spec["workloads"]
        }
        bench = {
            "commit": commit,
            "dirty": not args.commit and bool(git("status", "--porcelain", "--untracked-files=no")),
            "env": {**run.environment(), "git_commit": commit},
            "seed": SEED,
            "seconds": args.seconds,
            "workloads": workloads,
            "sweep": sweep(run),
            "tier1": tier1(root),
        }
    finally:
        if tmp is not None:
            shutil.rmtree(tmp)

    out = HERE / f"BENCH_{commit[:7]}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    found = problems(json.loads(out.read_text()), spec)
    for line in found:
        print(f"{out.name}: {line}", file=sys.stderr)
    print(f"wrote {out}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
