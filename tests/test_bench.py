"""scripts/bench.py's check of a benchmark file, on hand-built files, and
its sweep on tiny configs: no benchmark runs."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from foragesim import set2_config

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def complete_file(bench):
    """A benchmark file with every workload, metric and sweep point."""
    workload = {
        "correct": True,
        "metrics": {m["name"]: {} for m in SPEC["end_to_end"]},
        "layers": {m["name"]: 0 for m in SPEC["per_layer"]},
    }
    return {
        "workloads": {w["name"]: workload for w in SPEC["workloads"]},
        "sweep": [{"robots": 15 * k * k} for k in bench.SWEEP_SCALES],
        "tier1": {"rc": 0, "summary": "252 passed in 20.1s", "slowest": [{}, {}, {}]},
    }


def test_problems_flags_a_failing_tier1_suite():
    bench = load_bench()
    good = complete_file(bench)
    assert bench.problems(good, SPEC) == []
    summary = "1 failed, 251 passed in 20.3s"
    failed = {**good, "tier1": {**good["tier1"], "rc": 1, "summary": summary}}
    assert bench.problems(failed, SPEC) == [f"tier1: rc 1 ({summary})"]


def test_sweep_records_the_spread_of_each_point():
    bench = load_bench()
    tiny = replace(set2_config(), robot_count=2, horizon=1.0, replications=1)
    run = SimpleNamespace(
        Workload=lambda *args, **kwargs: None,
        make_config=lambda workload, seed: tiny,
        robot_ticks=lambda config: 20,
        reference_seconds=lambda: 1.0,
    )
    points = bench.sweep(run)
    assert len(points) == len(bench.SWEEP_SCALES)
    for point in points:
        for key in ("us_per_robot_tick", "robot_ticks_per_ref"):
            assert point[f"{key}_q1"] <= point[key] <= point[f"{key}_q3"]
