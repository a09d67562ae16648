"""scripts/bench.py's check of a benchmark file, on hand-built files, its
sweep on tiny configs, and its refusal outside a git checkout: no benchmark
runs."""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from foragesim.experiment import set2_config

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def complete_file(bench):
    """A benchmark file with every workload, run, metric and sweep point."""
    workload = {
        "runs": [
            {"seed": seed, "trace": trace, "rc": 0, "correct": True, "attempted": 4, "failed": 0}
            for seed in (bench.SEED, bench.HOLDOUT_SEED) for trace in (0, 1)
        ],
        "metrics": {m["name"]: {"value": 1.5, "median": 1.5} for m in SPEC["end_to_end"]},
        "layers": {m["name"]: 0 for m in SPEC["per_layer"]},
    }
    return {
        "workloads": {w["name"]: workload for w in SPEC["workloads"]},
        "sweep": [{"robots": 15 * k * k} for k in bench.SWEEP_SCALES],
        "tier1": {
            "rc": 0, "summary": "252 passed in 20.1s", "stderr": [], "slowest": [{}, {}, {}]
        },
    }


def test_problems_flags_a_failing_tier1_suite():
    bench = load_bench()
    good = complete_file(bench)
    assert bench.problems(good, SPEC) == []
    summary = "1 failed, 251 passed in 20.3s"
    failed = {**good, "tier1": {**good["tier1"], "rc": 1, "summary": summary}}
    assert bench.problems(failed, SPEC) == [f"tier1: rc 1 ({summary})"]


def test_tier1_keeps_the_stderr_of_a_suite_that_cannot_start(tmp_path, monkeypatch):
    bench = load_bench()
    stderr = "".join(f"line {i}\n" for i in range(6)) + "python3: No module named pytest\n"
    monkeypatch.setattr(
        subprocess, "run", lambda args, **kwargs: subprocess.CompletedProcess(args, 1, "", stderr)
    )
    record = bench.tier1(tmp_path)
    assert record["stderr"] == [
        "line 2", "line 3", "line 4", "line 5", "python3: No module named pytest"
    ]
    assert bench.problems({**complete_file(bench), "tier1": record}, SPEC) == [
        "tier1: rc 1 () | line 2 | line 3 | line 4 | line 5 | python3: No module named pytest",
        "tier1: no test durations in ''",
    ]


def test_problems_names_each_failed_run_by_workload_seed_and_trace():
    bench = load_bench()
    good = complete_file(bench)
    entry = good["workloads"]["crowd"]
    runs = [dict(run) for run in entry["runs"]]
    runs[1]["correct"] = False
    runs[2].update(correct=False, failed=1)
    runs[3].update(rc=1, correct=False)
    bad = {**good, "workloads": {**good["workloads"], "crowd": {**entry, "runs": runs}}}
    assert bench.problems(bad, SPEC) == [
        "crowd seed 1 trace 1: not correct",
        "crowd seed 1001 trace 0: not correct",
        "crowd seed 1001 trace 1: exit 1",
    ]


def test_problems_names_a_median_that_is_not_perfbenchs_value():
    bench = load_bench()
    good = complete_file(bench)
    entry = good["workloads"]["set1"]
    metrics = {**entry["metrics"], "wall_ref": {"value": 2.9, "median": 2.95}}
    bad = {**good, "workloads": {**good["workloads"], "set1": {**entry, "metrics": metrics}}}
    assert bench.problems(bad, SPEC) == ["set1: wall_ref median 2.95 != printed 2.9"]


def test_perfbench_records_a_run_that_exits_non_zero_and_prints_its_last_lines(
    tmp_path, capsys
):
    bench = load_bench()
    (tmp_path / "perfbench").mkdir()
    script = "import sys\nfor i in range(7):\n    print(i)\nsys.exit('boom')\n"
    (tmp_path / "perfbench" / "run.py").write_text(script)
    assert bench.perfbench(tmp_path, "crowd", 1001, 1, 1.0) == (
        {"seed": 1001, "trace": 1, "rc": 1, "correct": False}, None, None
    )
    assert capsys.readouterr().err.splitlines() == [
        "crowd seed 1001 trace 1 failed:", "  2", "  3", "  4", "  5", "  6", "  boom"
    ]


def test_sweep_records_the_spread_of_each_point():
    bench = load_bench()
    tiny = replace(set2_config(), robot_count=2, horizon=1.0, replications=1)
    run = SimpleNamespace(
        Workload=lambda *args, **kwargs: None,
        make_config=lambda workload, seed: tiny,
        reference_seconds=lambda: 1.0,
    )
    points = bench.sweep(run)
    assert len(points) == len(bench.SWEEP_SCALES)
    for point in points:
        for key in ("us_per_robot_tick", "robot_ticks_per_ref"):
            assert point[f"{key}_q1"] <= point[key] <= point[f"{key}_q3"]


def test_a_copy_outside_a_git_checkout_exits_2_with_one_line(tmp_path):
    # The copy sits in another repository, whose commit it must not take.
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "outer"], cwd=tmp_path, check=True)
    (tmp_path / "copy" / "scripts").mkdir(parents=True)
    shutil.copy(ROOT / "scripts" / "bench.py", tmp_path / "copy" / "scripts")
    proc = subprocess.run([sys.executable, "copy/scripts/bench.py", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (2, "", 1)
    assert proc.stderr.startswith("bench.py: no commit to measure in ")
