"""CLI tests: config parsing, presets, output bundle, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import (
    PRESETS,
    ExperimentConfig,
    run_experiment,
    set1_config,
    set2_config,
    summarize,
)
from foragesim.cli import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    run_command,
    write_config,
)
from foragesim.experiment import MAX_ROBOTS


def small_config(**overrides):
    config = replace(set1_config(), horizon=5.0, replications=2, robot_count=4)
    return replace(config, **overrides) if overrides else config


# -- config parsing ---------------------------------------------------------------


def test_round_trip_exact(tmp_path):
    for config in (set1_config(), set2_config(), small_config()):
        path = tmp_path / "config.json"
        write_config(config, str(path))
        assert load_config(str(path)) == config


def test_preset_values_via_dict():
    raw = config_to_dict(set1_config())
    assert raw["horizon_seconds"] == 180.0
    assert raw["search_timeout_seconds"] == 15.0
    assert raw["leave_delta"] == 0.0003
    raw2 = config_to_dict(set2_config())
    assert raw2["horizon_seconds"] == 300.0
    assert raw2["search_timeout_seconds"] == 25.0
    assert raw2["leave_delta"] == 0.0015
    assert raw2["obj1_delta"] == raw2["obj2_delta"] == 0.0025


def test_unknown_key_rejected():
    raw = config_to_dict(set1_config())
    raw["robot_speeed"] = 2.0
    with pytest.raises(ConfigError, match="robot_speeed"):
        config_from_dict(raw)


def test_missing_key_rejected():
    raw = config_to_dict(set1_config())
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(raw)


def test_inverted_bounds_rejected_naming_prefix():
    raw = config_to_dict(set1_config())
    raw["leave_p_min"] = 0.5  # now p_min > p_max
    with pytest.raises(ConfigError, match="leave_"):
        config_from_dict(raw)


def test_bad_mode_rejected():
    raw = config_to_dict(set1_config())
    raw["mode"] = "hybrid"
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(raw)


def test_geometry_keys_optional():
    raw = config_to_dict(set1_config())
    for key in ("arena_half_width", "nest_radius", "robot_speed"):
        del raw[key]
    config = config_from_dict(raw)
    # Declared interpretation defaults fill the gaps.
    assert config.arena.arena_half_width == 10.0
    assert config.arena.nest_radius == 2.0
    assert config.arena.robot_speed == 1.0


# SHA-256 of the file ``write_config`` writes for each preset: the config
# echo that the manifest embeds and that reruns read back.
CONFIG_GOLDEN = {
    "set1": "6f1c6da9302e1a6d490434d11b0572d1989326fb303672863024b0a17348a50a",
    "set2": "8eafe4f14c2704b1e3e0d1cff1e3e998b794c614f1f603c35bcd86108aff9eda",
}


@pytest.mark.parametrize("preset", sorted(CONFIG_GOLDEN))
def test_write_config_digest(preset, tmp_path):
    path = tmp_path / "config.json"
    write_config(PRESETS[preset](), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONFIG_GOLDEN[preset]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(arr))


# -- run_command -------------------------------------------------------------------


def read_bundle(outdir):
    return {
        name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))
    }


def test_run_command_row_counts(tmp_path):
    config = small_config()
    out = tmp_path / "out"
    manifest = run_command(config, str(out))
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == config.replications * config.robot_count
    assert manifest["config"]["robot_count"] == 4
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["config"] == config_to_dict(config)
    for name in ("p1_histogram.csv", "classification.csv", "binomial.csv", "manifest.json"):
        assert (out / name).exists()


def test_run_command_zero_horizon_initial_p1(tmp_path):
    # The largest swarm allowed: its binomial comparison stays in float range.
    config = small_config(horizon=0.0, replications=1, robot_count=MAX_ROBOTS)
    out = tmp_path / "out"
    run_command(config, str(out))
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == MAX_ROBOTS
    assert all(row.split(",")[4] == repr(0.04) for row in rows)


def test_run_command_byte_identical(tmp_path):
    config = small_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_command(config, str(a), event_log=True)
    run_command(config, str(b), event_log=True)
    bundle_a, bundle_b = read_bundle(a), read_bundle(b)
    assert list(bundle_a) == list(bundle_b)
    assert bundle_a == bundle_b


def test_run_command_overrides(tmp_path):
    path = tmp_path / "c.json"
    write_config(small_config(), str(path))
    out = tmp_path / "o"
    flags = ["--seed", "99", "--replications", "1"]
    assert main(["--config", str(path), "--output", str(out), *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["replications"] == 1


def test_run_command_modified_outputs(tmp_path):
    config = replace(set2_config(), horizon=5.0, replications=1, robot_count=4)
    out = tmp_path / "out"
    manifest = run_command(config, str(out))
    assert (out / "pobj1_histogram.csv").exists()
    assert (out / "pobj2_histogram.csv").exists()
    assert set(manifest["bimodality_scores"]) == {"p1", "pobj1", "pobj2"}
    labels = {
        row.split(",")[10]
        for row in (out / "results.csv").read_text().strip().splitlines()[1:]
    }
    assert labels <= {"yellow", "green", "purple"}


def test_run_command_manifest_matches_summarize(tmp_path):
    config = replace(set2_config(), horizon=60.0, replications=2, robot_count=4)
    out = tmp_path / "out"
    run_command(config, str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    results = [run_experiment(config, rep) for rep in range(config.replications)]
    summary = summarize(config, results)
    assert manifest["bimodality_scores"] == summary.bimodality
    assert manifest["binomial_p_hat"] == summary.binomial.p_hat
    assert manifest["binomial_tv_distance"] == summary.binomial.tv_distance
    assert set(summary.bins) == {"p1", "pobj1", "pobj2"}
    for counts in summary.bins.values():
        assert sum(counts) == config.robot_count * config.replications


def test_run_command_cleans_partial_output(tmp_path, monkeypatch):
    import foragesim.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "config_to_dict", boom)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run_command(small_config(), str(out))
    # Everything written before the failure is cleaned up.
    assert os.listdir(out) == []


def test_event_log_written_and_parses(tmp_path):
    config = small_config(replications=1)
    out = tmp_path / "out"
    run_command(config, str(out), event_log=True)
    path = out / "events_run000.jsonl"
    assert path.exists()
    for line in path.read_text().splitlines():
        record = json.loads(line)
        assert record[0] in {"phase", "leave", "pickup", "deliver", "trip"}


def test_event_log_memory_does_not_grow_with_the_horizon(tmp_path):
    def peak_bytes(horizon):
        config = replace(set1_config(), horizon=horizon, replications=1)
        tracemalloc.start()
        try:
            run_command(config, str(tmp_path / str(horizon)), event_log=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1.0)  # pays the one-time allocations: caches, freelists
    # The log is streamed to its file. A log held until the run ends raises
    # the peak from 60 s to 240 s (2,527 more records) by 50 KiB or more; the
    # 4 KiB allow for the run's own state, which varies by under 1 KiB.
    assert peak_bytes(240.0) <= peak_bytes(60.0) + 4096


# -- main ----------------------------------------------------------------------------


def test_main_with_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(small_config(), str(path))
    code = main(["--config", str(path), "--output", str(tmp_path / "out")])
    assert code == 0
    assert "bimodality" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'{"mode": "original"}', id="missing-keys"),
        pytest.param(b'{"mode": "\xff"}', id="not-utf-8"),
        pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", id="int-past-digit-limit"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ],
)
def test_main_bad_config_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    code = main(["--config", str(bad), "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("arena_half_width", float("nan")),
        ("horizon_seconds", float("inf")),
        ("robot_count", float("inf")),
        ("leave_delta", float("nan")),
        # Counts that are not integers, and impossible geometry.
        ("robot_count", 2.7),
        ("robot_count", True),
        ("objects_type1", 1.5),
        ("objects_type2", 2.5),
        ("replications", True),
        ("replications", 1.9),
        ("seed", 3.5),
        ("seed", -1),  # random.Random(-n) draws the stream of Random(n)
        # float() would read these as 10.0, 4.0 and 1.0.
        ("horizon_seconds", "10"),
        ("arena_half_width", "4"),
        ("robot_speed", True),
        ("leave_p_max", True),
        ("nest_radius", 0.15),  # equal to robot_radius
        ("nest_radius", 0.1),
        ("heading_jitter", -0.1),
        # The arena's area overflows a float.
        ("arena_half_width", 1e154),
        ("arena_half_width", 1e200),
        ("arena_half_width", 1e308),
        # 5e300 ticks, which would never end, and an infinite tick count.
        ("tick_duration", 1e-300),
        ("tick_duration", 1e-320),
        # C(1030, 515) overflows a float in the binomial comparison.
        ("robot_count", 1030),
        # Not whole numbers of 0.1 s ticks, and less than one tick.
        ("horizon_seconds", 10.05),
        ("leave_check_period", 0.15),
        ("leave_check_period", 0.05),
        # Counts that would run for years, or overflow the packing check's floats.
        ("replications", 10**9),
        pytest.param("replications", 10**400, id="replications-10**400"),
        ("objects_type1", 10**9),
        pytest.param("objects_type1", 10**400, id="objects_type1-10**400"),
        pytest.param("objects_type2", 10**400, id="objects_type2-10**400"),
    ],
)
def test_main_non_finite_value_exits_2(tmp_path, capsys, key, value):
    raw = config_to_dict(small_config())
    raw[key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))  # writes NaN / Infinity, which json.load reads
    out = tmp_path / "out"
    code = main(["--config", str(path), "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    # A count, or a value refused for its size, names what it overflows.
    names = {
        "tick_duration": "tick count",
        **{k: k for k in ("arena_half_width", "replications", "objects_type1", "objects_type2")},
    }
    assert names.get(key, "config error") in err
    assert not out.exists()


def test_main_geometry_too_fine_for_the_grid_exits_2(tmp_path, capsys):
    # Radii and a margin near the smallest float pass every check one by one,
    # but the arena's width in contact-grid cells overflows a float.
    raw = config_to_dict(small_config())
    raw.update(robot_radius=1e-310, object_radius=1e-310, contact_margin=1e-310)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "robot_radius, object_radius and contact_margin" in err
    assert not out.exists()


def test_integral_float_count_accepted():
    raw = config_to_dict(small_config())
    raw["robot_count"] = 4.0
    assert config_from_dict(raw).robot_count == 4


def test_main_overpacked_arena_exits_2(tmp_path, capsys):
    # 20 objects would fit in the square by area, but not around the nest:
    # spawning gives up after its attempt cap.
    raw = config_to_dict(small_config())
    raw.update(
        arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1,
        objects_type1=10, objects_type2=10,
    )
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--output", str(out)])
    assert code == 2
    assert "too packed" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_main_infeasible_packing_exits_2_before_running(tmp_path, capsys, monkeypatch):
    import foragesim.experiment as experiment

    def no_draws(*args, **kwargs):
        raise AssertionError("spawn_object called")

    monkeypatch.setattr(experiment, "spawn_object", no_draws)
    raw = config_to_dict(small_config())
    raw.update(
        arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1,
        objects_type1=200,
    )
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--output", str(out)])
    assert code == 2
    assert "config error: the arena is too packed" in capsys.readouterr().err
    assert not out.exists()


def test_main_invariant_error_exits_3(tmp_path, capsys, monkeypatch):
    from foragesim.arena import SimulationInvariantError, World

    def broken(self):
        raise SimulationInvariantError("object conservation broken")

    monkeypatch.setattr(World, "check_conservation", broken)
    out = tmp_path / "out"
    code = main(["--preset", "set1", "--replications", "1", "--output", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "simulator bug: object conservation broken\n"
    assert captured.out == ""
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "first, second",
    [
        ((small_config(), ["--event-log"]), (small_config(), [])),
        ((replace(set2_config(), horizon=5.0, replications=1, robot_count=4), []),
         (small_config(), [])),
    ],
    ids=["event-log-then-plain", "set2-then-set1"],
)
def test_main_refuses_non_empty_output(tmp_path, capsys, first, second):
    # Rerunning into a used directory would leave files of the first run
    # (events_run000.jsonl, pobj*_histogram.csv) beside the second bundle.
    out = tmp_path / "out"
    out.mkdir()  # an existing empty directory is fine

    def run(config, flags):
        path = tmp_path / "c.json"
        write_config(config, str(path))
        return main(["--config", str(path), "--output", str(out), *flags])

    assert run(*first) == 0
    before = read_bundle(out)
    assert run(*second) == 2
    assert "not empty" in capsys.readouterr().err
    assert read_bundle(out) == before


def test_main_preset_with_mode_override(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "--preset",
            "set1",
            "--output",
            str(out),
            "--replications",
            "1",
            "--seed",
            "7",
            "--mode",
            "modified",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "modified"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["replications"] == 1
    assert (out / "pobj1_histogram.csv").exists()


ZERO_PICKUP_FLOORS = dict(obj1_p_min=0.0, obj1_p_initial=0.0, obj2_p_min=0.0, obj2_p_initial=0.0)


@pytest.mark.parametrize(
    "preset, overrides, flags",
    [
        # histogram() needs p_min < p_max, so these used to fail after every run.
        ("set1", dict(leave_p_min=0.04, leave_p_initial=0.04, leave_p_max=0.04), []),
        # assign_task divides by p1 + p2, which zero floors let reach 0.
        ("set2", ZERO_PICKUP_FLOORS, []),
        ("set1", ZERO_PICKUP_FLOORS, ["--mode", "modified"]),
    ],
    ids=["equal-leave-bounds", "zero-pickup-floors", "zero-pickup-floors-mode-override"],
)
def test_main_unrunnable_probabilities_exit_2(tmp_path, capsys, preset, overrides, flags):
    raw = config_to_dict(PRESETS[preset](replications=1))
    raw.update(overrides)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--output", str(out), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


# Values a hand-edited config may hold where a number belongs.
ODD_VALUES = [float("nan"), float("inf"), float("-inf"), "1", True, False, None, -1, -0.5, 0, 0.0, 1]


@st.composite
def perturbed_preset(draw):
    """A preset's config dict with a few keys dropped or set to odd values."""
    raw = config_to_dict(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]())
    keys = sorted(raw)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "value", "equal bounds", "zero floors", "mode"]))
        if edit == "drop":
            raw.pop(draw(st.sampled_from(keys)), None)
        elif edit == "value":
            raw[draw(st.sampled_from(keys))] = draw(st.sampled_from(ODD_VALUES))
        elif edit == "equal bounds":
            prefix = draw(st.sampled_from(["leave", "obj1", "obj2"]))
            value = draw(st.sampled_from([0.0, 0.04, 1.0]))
            raw.update({f"{prefix}_{name}": value for name in ("p_min", "p_initial", "p_max")})
        elif edit == "zero floors":
            raw.update(ZERO_PICKUP_FLOORS)
        else:
            raw["mode"] = draw(st.sampled_from(["original", "modified"]))
    return raw


@settings(max_examples=150, deadline=None)
@given(perturbed_preset())
def test_config_boundary_property(raw):
    # The boundary either builds a config or refuses it with ConfigError.
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    # A config it builds runs, shrunk to a quick run, or is refused with rc 2.
    small = replace(
        config,
        robot_count=min(config.robot_count, 5),
        object_totals=tuple(min(n, 5) for n in config.object_totals),
        horizon=min(config.horizon, 1.0),
        replications=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        write_config(small, path)
        assert main(["--config", path, "--output", os.path.join(tmp, "out")]) in (0, 2)


@pytest.mark.parametrize("flag, value", [("--replications", "0"), ("--seed", "-1")])
def test_main_bad_override_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["--preset", "set1", "--output", str(out), flag, value])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_main_requires_source(capsys):
    with pytest.raises(SystemExit):
        main(["--output", "x"])


# -- the names perfbench's tracer rebinds ----------------------------------------------

BUNDLE_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "bundle.py"


@pytest.mark.parametrize("mode", ["original", "modified"])
def test_benchmark_tracer_counts_each_mode_under_its_name(tmp_path, mode):
    # 30 s outlasts both presets' search timeouts, so trips end in either mode.
    preset = set1_config if mode == "original" else set2_config
    config = replace(preset(), horizon=30.0, replications=1)
    write_config(config, str(tmp_path / "config.json"))
    flags = ["--event-log"] if mode == "modified" else []
    subprocess.run(
        [sys.executable, "-I", str(BUNDLE_SCRIPT), str(tmp_path / "config.json"),
         str(tmp_path / "out"), "--trace", str(tmp_path / "trace.json"), *flags],
        check=True, capture_output=True,
    )
    counts = json.loads((tmp_path / "trace.json").read_text())["counts"]
    trip = counts.get("allocation.record_trip_outcome.calls", 0)
    leave = counts.get("allocation.record_leave_outcome.calls", 0)
    original = mode == "original"
    assert (trip > 0, leave > 0) == (original, not original)
    # One recount per tick, and 300 ticks of 0.1 s in the 30 s horizon.
    assert counts["arena.check_conservation.calls"] == counts["engine.ticks"] == 300
