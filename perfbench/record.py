#!/usr/bin/env python3
"""Record what foragesim writes for every benchmark workload and seed.

    python3 perfbench/record.py [--workload NAME ...]

For each workload (all by default) and each development seed plus the
hold-out seed, it writes one traced bundle and one set-up bundle (horizon 0)
and stores in ``expected.json``: the SHA-256 of every bundle file except
``manifest.json``, the manifest's ``retrieved_totals``, and the exact
per-layer counts of the traced bundle. ``run.py`` checks each bundle it
measures against these, so a speed-up counts only if the bytes stay the same.
Re-record only in a change that means to alter the output, and say why.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import run as bench


def record(name: str, seed: int, spec: dict, work: Path) -> dict:
    from foragesim.cli import write_config

    workload = bench.WORKLOADS[name]
    config = bench.make_config(workload, seed)
    full, setup, trace = work / "config.json", work / "config_setup.json", work / "trace.json"
    write_config(config, str(full))
    write_config(replace(config, horizon=0.0), str(setup))
    deadline = time.perf_counter() + 600.0
    traced = bench.run_bundle(work, full, workload.event_log, deadline, trace)
    untraced_setup = bench.run_bundle(work, setup, workload.event_log, deadline)
    for unit in (traced, untraced_setup):
        if "error" in unit:
            sys.exit(f"{name} seed {seed}: {unit['error']}")
    layers = bench.layer_metrics(json.loads(trace.read_text()), traced["bundle"])
    return {
        "bundle": bench.bundle_digest(traced["bundle"]),
        "setup": bench.bundle_digest(untraced_setup["bundle"]),
        "counts": {k: layers[k] for k in bench.exact_count_names(spec)},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(bench.ROOT / "src"))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads(bench.EXPECTED.read_text()) if bench.EXPECTED.is_file() else {}
    recorded = {name: seeds for name, seeds in recorded.items() if name in bench.WORKLOADS}
    seeds = [*range(1, bench.DEV_SEEDS + 1), bench.HOLDOUT_SEED]

    bench.WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(bench.WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix="record-", dir=bench.WORK))
        try:
            recorded[name] = {str(seed): record(name, seed, spec, work) for seed in seeds}
        finally:
            shutil.rmtree(work)
        bench.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {name} for seeds {seeds}")


if __name__ == "__main__":
    main()
