"""scripts/bench.py's check of a benchmark file, on hand-built files: no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

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
