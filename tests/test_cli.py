"""CLI tests: config parsing, presets, output bundle, exit codes."""

import csv
import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.analysis import summarize
from foragesim.bundle import event_log_name, read_bundle
from foragesim.cli import main, run_command, write_config
from foragesim.experiment import (
    MAX_ROBOTS,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_items,
    config_to_dict,
    load_config,
    run_experiment,
    set1_config,
    set2_config,
)

from test_experiment import KEEPOUT, PACKED, REFUSED, ZERO_FLOORS

SRC = Path(__file__).resolve().parents[1] / "src"


def small_config(**overrides):
    config = replace(set1_config(), horizon=5.0, replications=2, robot_count=4)
    return replace(config, **overrides) if overrides else config


def run_main(tmp_path, source, *flags, out="out"):
    """``main``'s exit code on ``source`` written to ``tmp_path / "c.json"``: a config,
    a dict of config file keys, raw bytes, or None for no file. It writes the bundle
    to ``tmp_path / out``, with ``flags`` after ``--config`` and ``--output``."""
    path = tmp_path / "c.json"
    if isinstance(source, ExperimentConfig):
        write_config(source, str(path))
    elif isinstance(source, dict):
        path.write_text(json.dumps(source))
    elif source is not None:
        path.write_bytes(source)
    return main(["--config", str(path), "--output", str(tmp_path / out), *flags])


# -- config parsing ---------------------------------------------------------------


def test_round_trip_exact(tmp_path):
    for config in (set1_config(), set2_config(), small_config()):
        path = tmp_path / "config.json"
        write_config(config, str(path))
        assert load_config(str(path)) == config


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


# -- run_command -------------------------------------------------------------------


def test_run_command_row_counts(tmp_path):
    config = small_config()
    out = tmp_path / "out"
    manifest = run_command(config, str(out))
    bundle = read_bundle(out)
    rows = bundle.rows
    assert len(rows) == config.replications * config.robot_count
    # results.csv flags as foragers exactly the robots classification.csv lists.
    classification = csv.DictReader(bundle.files["classification.csv"].decode().splitlines())
    listed = {(row["run"], rid) for row in classification
              for rid in row["forager_ids"].split(";") if rid}
    assert {row["forager"] for row in rows} <= {"0", "1"}
    assert {(row["run"], row["robot"]) for row in rows if row["forager"] == "1"} == listed
    assert manifest["config"]["robot_count"] == 4
    assert bundle.manifest["config"] == config_to_dict(config)
    assert {"p1_histogram.csv", "classification.csv", "binomial.csv"} <= set(bundle.files)
    assert bundle.events is None


def test_read_bundle_returns_what_the_run_wrote_in_replication_order(tmp_path):
    # 1,001 one-robot replications whose logs differ by replication: a reader
    # that took a sorted glob would put events_run1000.jsonl at index 101.
    base = set1_config()
    config = replace(base, robot_count=1, object_totals=(1, 1), horizon=3.0, replications=1001,
                     leave_params=replace(base.leave_params, p_initial=0.08))
    out = tmp_path / "out"
    manifest = run_command(config, str(out), event_log=True)
    bundle = read_bundle(out)
    assert bundle.files == {path.name: path.read_bytes() for path in out.iterdir()}
    assert (bundle.manifest, bundle.config) == (manifest, config)
    assert len(bundle.rows) == config.replications * config.robot_count
    emitted = [[] for _ in range(config.replications)]
    for rep, records in enumerate(emitted):
        run_experiment(config, rep, emit=records.append)
    assert bundle.events == [list(map(list, records)) for records in emitted]


def test_run_command_zero_horizon_initial_p1(tmp_path):
    # The largest swarm allowed: its binomial comparison stays in float range.
    config = small_config(horizon=0.0, replications=1, robot_count=MAX_ROBOTS)
    out = tmp_path / "out"
    run_command(config, str(out))
    rows = read_bundle(out).rows
    assert len(rows) == MAX_ROBOTS
    assert all(row["final_p1"] == repr(0.04) for row in rows)


def test_run_command_manifest_matches_summarize(tmp_path):
    config = replace(set2_config(), horizon=60.0, replications=2, robot_count=4)
    out = tmp_path / "out"
    run_command(config, str(out))
    manifest = read_bundle(out).manifest
    results = [run_experiment(config, rep) for rep in range(config.replications)]
    summary = summarize(config, results)
    assert manifest["bimodality_scores"] == summary.bimodality
    assert manifest["binomial_p_hat"] == summary.binomial.p_hat
    assert manifest["binomial_tv_distance"] == summary.binomial.tv_distance
    assert set(summary.bins) == set(manifest["bimodality_scores"]) == {"p1", "pobj1", "pobj2"}
    for counts in summary.bins.values():
        assert sum(counts) == config.robot_count * config.replications


@pytest.mark.parametrize("case", ["new", "empty", "nested"])
def test_run_command_cleans_partial_output(tmp_path, monkeypatch, case):
    import foragesim.bundle as bundle

    out = tmp_path / "a" / "b" / "out" if case == "nested" else tmp_path / "out"
    if case == "empty":
        out.mkdir()
    at_failure = []

    def boom(*args, **kwargs):
        # Called for the manifest, after the CSVs are written.
        at_failure.extend(sorted(os.listdir(out)))
        if case == "nested":
            (tmp_path / "a" / "keep").touch()  # "a", made by the run, is in use now
        raise RuntimeError("injected failure")

    monkeypatch.setattr(bundle, "config_to_dict", boom)
    with pytest.raises(RuntimeError):
        run_command(small_config(), str(out))
    assert at_failure == [
        "binomial.csv", "classification.csv", "p1_histogram.csv", "results.csv",
    ]
    # Everything written before the failure is cleaned up. The directories the
    # run made are gone too, up to the first that is no longer empty; one the
    # user made stays, empty.
    assert (os.listdir(out) == []) if case == "empty" else not out.exists()
    if case == "nested":
        assert not out.parent.exists()
        assert os.listdir(tmp_path / "a") == ["keep"]


def test_run_command_removes_what_it_made_when_making_fails(tmp_path, monkeypatch):
    # The second of three missing directories cannot be made.
    made = []

    def mkdir(path, *args):
        if made:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        made.append(path)
        real_mkdir(path, *args)

    real_mkdir = os.mkdir
    monkeypatch.setattr(os, "mkdir", mkdir)
    out = os.path.join(str(tmp_path), "a", "b", "out")
    with pytest.raises(PermissionError) as refused:
        run_command(small_config(), out)
    assert made and os.listdir(tmp_path) == []
    assert refused.value.filename == out  # as given


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
    # The peak covers the whole run, so this bounds the run's own state as
    # well as the log. The log is streamed to its file. From 60 s to 240 s
    # (2,527 more records), a log held until the run ends raises the peak by
    # 50 KiB or more, and one float kept per tick by 16 KiB. The 4 KiB allow
    # for the run's own state, which varies by under 1 KiB.
    assert peak_bytes(240.0) <= peak_bytes(60.0) + 4096


# -- main ----------------------------------------------------------------------------


# Marks a key that a refusal row drops from its config.
DROP = object()


def refusal(named, source=None, flags=(), id=None, **edit):
    """A row of REFUSALS. ``source`` is small_config() by default."""
    if id is None:
        ((key, value),) = edit.items()
        id = f"{key}-{value}"
    return pytest.param(source or small_config(), edit, flags, named, id=id)


# Each row: the source (a config, written out with the edit's keys set or
# dropped; raw file bytes; a preset name, run by --preset; or None, a
# --config path with no file), the edit, extra flags, and text that the one
# stderr line must hold.
REFUSALS = [
    # Files that cannot be read or parsed.
    pytest.param(None, {}, [], "cannot read config", id="no-file"),
    refusal("cannot parse config", source=b"{not json", id="not-json"),
    refusal("cannot parse config", source=b'{"mode": "\xff"}', id="not-utf-8"),
    # Python's own message would tell the user to call sys.set_int_max_str_digits().
    refusal(
        f"an integer of 5000 digits is over the limit of {sys.get_int_max_str_digits()}",
        source=b'{"seed": ' + b"1" * 5000 + b"}", id="int-past-digit-limit",
    ),
    refusal("cannot parse config", source=b"[" * 100_000, id="nested-too-deep"),
    refusal("config file must hold a flat JSON object", source=b"[1, 2]", id="not-an-object"),
    # A key given twice would run with its last value.
    refusal(
        "duplicate keys: ['seed']", id="duplicate-key",
        source=json.dumps(config_to_dict(small_config()))[:-1].encode() + b', "seed": 99}',
    ),
    refusal(
        "duplicate keys: ['mode', 'robot_count'] and 1 more", id="duplicate-keys",
        source=json.dumps(config_to_dict(small_config()))[:-1].encode()
        + b', "seed": 99, "robot_count": 3, "mode": "modified"}',
    ),
    # Keys unknown or missing. A list of keys names two and counts the rest.
    refusal(
        "missing config keys: ['horizon_seconds', 'leave_delta'] and 17 more",
        source=b'{"mode": "original"}', id="missing-keys",
    ),
    refusal("missing config keys: ['seed']", seed=DROP, id="missing-key"),
    refusal("unknown config keys: ['robot_speeed']", robot_speeed=2.0, id="unknown-key"),
    refusal(
        "unknown config keys: ['key00', 'key01'] and 28 more", id="unknown-keys",
        **{f"key{i:02d}": 1.0 for i in range(30)},
    ),
    # Flags named after a config key pass the same checks.
    refusal(
        "modified mode needs obj1_p_min or obj2_p_min above 0",
        source=set1_config(replications=1), flags=["--mode", "modified"],
        id="zero-pickup-floors-mode-override", **ZERO_FLOORS,
    ),
    refusal("replications must be in", source="set1", flags=["--replications", "0"],
            id="--replications-0"),
    refusal("seed must be >= 0", source="set1", flags=["--seed", "-1"], id="--seed--1"),
]


def assert_refused(tmp_path, capsys, source, edit, flags, named):
    out = tmp_path / "out"
    if isinstance(source, str):
        assert main(["--preset", source, "--output", str(out), *flags]) == 2
    else:
        if isinstance(source, ExperimentConfig):
            raw = {**config_to_dict(source), **edit}
            source = {key: value for key, value in raw.items() if value is not DROP}
        assert run_main(tmp_path, source, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()
    # One short line, however long the value, the key list or the path.
    path = str(tmp_path / "c.json")
    message = err.removeprefix("config error: ").rstrip("\n").replace(path, "")
    assert len(message) < 120


@pytest.mark.parametrize("source, edit, flags, named", REFUSALS)
def test_main_bad_config_exits_2(tmp_path, capsys, source, edit, flags, named):
    assert_refused(tmp_path, capsys, source, edit, flags, named)


# Every refusal of test_experiment.REFUSED, written to a config file that
# the CLI refuses as it refuses a file it cannot read.
@pytest.mark.parametrize("name", [name for name, (*_, named) in REFUSED.items() if named])
def test_main_non_finite_value_exits_2(tmp_path, capsys, name):
    preset, edit, named = REFUSED[name]
    assert_refused(tmp_path, capsys, PRESETS[preset](), edit, [], named)


def test_whole_number_span_read_as_a_float(tmp_path):
    # 180 == 180.0, so only the type and the echo's bytes tell them apart: a
    # file's 180 is read as 180.0, and so is Python's.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config_to_dict(set1_config()), "horizon_seconds": 180}))
    config = load_config(str(path))
    assert type(config.horizon) is float
    write_config(config, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONFIG_GOLDEN["set1"]
    assert type(config_to_dict(replace(set1_config(), horizon=180))["horizon_seconds"]) is float
    # Each config class stores its own whole numbers as floats.
    base = set1_config()
    ints = replace(base, horizon=180, arena=replace(base.arena, robot_speed=2),
                   leave_params=replace(base.leave_params, p_max=1))
    echo = config_to_dict(ints)
    assert [key for key, kind, _ in config_items(ints) if type(echo[key]) is int] == [
        "robot_count", "objects_type1", "objects_type2", "seed", "replications",
    ]


def test_whole_numbers_from_python_rerun_byte_for_byte(tmp_path):
    # A config built from Python with ints for float keys writes the bundle of
    # the same config written with floats, and reruns from its own manifest.
    base = small_config()
    ints = replace(base, leave_params=replace(base.leave_params, p_min=0, p_max=1, delta=0.02))
    floats = replace(ints, leave_params=replace(ints.leave_params, p_min=0.0, p_max=1.0))
    run_command(ints, str(tmp_path / "ints"), event_log=True)
    run_command(floats, str(tmp_path / "floats"), event_log=True)
    written = read_bundle(tmp_path / "ints")
    assert run_main(tmp_path, written.manifest["config"], "--event-log", out="rerun") == 0
    for other in ("rerun", "floats"):
        assert read_bundle(tmp_path / other).files == written.files, other


def test_main_overpacked_arena_exits_2(tmp_path, capsys):
    # 20 objects pass the area bound, but do not fit around the nest:
    # spawning gives up after its attempt cap.
    raw = config_to_dict(small_config())
    raw.update(PACKED, objects_type1=10, objects_type2=10)
    out = tmp_path / "out"
    code = run_main(tmp_path, raw)
    assert code == 2
    assert "too packed" in capsys.readouterr().err
    assert not out.exists()
    # Nor do the parent directories it made, whatever the path's spelling.
    assert run_main(tmp_path, raw, out="nest/a/out") == 2
    assert not (tmp_path / "nest").exists()
    assert run_main(tmp_path, raw, out="new/x/../y") == 2
    assert not (tmp_path / "new").exists()
    # A directory the user made stays, empty, as its own output or a parent.
    out.mkdir()
    assert run_main(tmp_path, raw) == 2
    assert os.listdir(out) == []
    assert run_main(tmp_path, raw, out="out/a/out") == 2
    assert os.listdir(out) == []


def test_main_infeasible_packing_exits_2_before_running(tmp_path, capsys, monkeypatch):
    import foragesim.experiment as experiment

    def no_draws(*args, **kwargs):
        raise AssertionError("spawn_object called")

    monkeypatch.setattr(experiment, "spawn_object", no_draws)
    # Too many objects for the square, and 65 for the corners left outside a
    # nest keep-out of 1.5 + 0.2 + 0.7.
    for edit in (dict(PACKED, objects_type1=200), dict(KEEPOUT, contact_margin=0.7)):
        code = run_main(tmp_path, {**config_to_dict(small_config()), **edit})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the arena is too packed") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


# With --event-log the failure comes while events_run000.jsonl is open.
@pytest.mark.parametrize("flags", [[], ["--event-log"]], ids=["plain", "event-log"])
def test_main_invariant_error_exits_3(tmp_path, capsys, monkeypatch, flags):
    from foragesim.arena import SimulationInvariantError, World

    def broken(self):
        raise SimulationInvariantError("object conservation broken")

    monkeypatch.setattr(World, "check_conservation", broken)
    out = tmp_path / "out"
    code = main(["--preset", "set1", "--replications", "1", "--output", str(out), *flags])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "simulator bug: object conservation broken\n"
    assert captured.out == ""
    assert not out.exists()


def test_main_write_error_exits_1(tmp_path, capsys, monkeypatch):
    import foragesim.bundle as bundle

    def full_disk(path, data):
        # The manifest is written last, after the tables.
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(bundle, "write_json", full_disk)
    assert run_main(tmp_path, small_config(replications=1)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"i/o error: [Errno {errno.ENOSPC}] ")
    assert captured.err.count("\n") == 1 and "manifest.json" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_main_restores_the_sigterm_handler(tmp_path, monkeypatch):
    from foragesim.arena import SimulationInvariantError, World

    def mine(signum, frame):
        pass

    def broken(self):
        raise SimulationInvariantError("object conservation broken")

    config = small_config(replications=1)
    previous = signal.signal(signal.SIGTERM, mine)
    try:
        # A run that succeeds and one that fails inside the output directory.
        assert run_main(tmp_path, config, out="a") == 0
        assert signal.getsignal(signal.SIGTERM) is mine
        monkeypatch.setattr(World, "check_conservation", broken)
        assert run_main(tmp_path, config, out="b") == 3
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_run_command_runs_outside_the_main_thread(tmp_path):
    # Only the main thread can set a signal handler; a run in another one
    # goes without it.
    out = tmp_path / "out"
    with ThreadPoolExecutor(1) as pool:
        pool.submit(run_command, small_config(replications=1), str(out)).result()
    assert read_bundle(out).config == small_config(replications=1)


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
    (config, flags), (again, again_flags) = first, second
    assert run_main(tmp_path, config, *flags) == 0
    before = read_bundle(out).files
    assert run_main(tmp_path, again, *again_flags) == 2
    assert "not empty" in capsys.readouterr().err
    assert read_bundle(out).files == before


@pytest.mark.parametrize(
    "out", ["taken", os.path.join("taken", "out"), ""], ids=["file", "under-a-file", "empty"]
)
def test_main_output_on_a_file_exits_2(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)  # where each output path, "" too, resolves
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["--preset", "set1", "--replications", "1", "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "kept\n"


def test_main_preset_with_mode_override(tmp_path, capsys):
    # Flags named after a config key override a preset and a config file alike.
    path = tmp_path / "c.json"
    write_config(small_config(), str(path))
    flags = ["--replications", "1", "--seed", "7", "--mode", "modified"]
    for name, source in (("preset", ["--preset", "set1"]), ("file", ["--config", str(path)])):
        out = tmp_path / name
        assert main([*source, "--output", str(out), *flags]) == 0
        assert "bimodality" in capsys.readouterr().out
        bundle = read_bundle(out)
        assert bundle.manifest["config"]["mode"] == "modified"
        assert bundle.manifest["config"]["seed"] == 7
        assert bundle.manifest["config"]["replications"] == 1
        assert "pobj1_histogram.csv" in bundle.files


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
            raw.update(ZERO_FLOORS)
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
    # A config it builds round-trips, and its echo writes each float key as
    # a float: a file's 1 is read as 1.0.
    echo = config_to_dict(config)
    assert config_from_dict(echo) == config
    floats = [key for key, kind, _ in config_items(config) if kind is float]
    assert all(type(echo[key]) is float for key in floats)
    # A config it builds runs, shrunk to a quick run, or is refused with rc 2.
    small = replace(
        config,
        robot_count=min(config.robot_count, 5),
        object_totals=tuple(min(n, 5) for n in config.object_totals),
        horizon=min(config.horizon, 1.0),
        replications=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        assert run_main(Path(tmp), small) in (0, 2)


def test_main_requires_source(capsys):
    with pytest.raises(SystemExit):
        main(["--output", "x"])


def test_main_runs_on_the_standard_library_alone(tmp_path, preset_bundle):
    # -I -S: no site-packages, no user site and no PYTHONPATH, so any
    # third-party import in the package fails here.
    out = tmp_path / "out"
    argv = ["--preset", "set2", "--replications", "1", "--event-log", "--output", str(out)]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"from foragesim.cli import main; sys.exit(main({argv!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    # Replication 0 draws the same stream however many replications run.
    name = event_log_name(0)
    log = read_bundle(out).files[name]
    assert len(log) > 0
    assert log == read_bundle(preset_bundle("set2")).files[name]


RUN = ["--preset", "set1", "--replications", "1"]


@pytest.mark.parametrize(
    "flags, unbuffered",
    [(RUN, ""), (RUN, "1"), (["--help"], ""), (["--help"], "1")],
    ids=["", "1", "help-", "help-1"],
)
def test_main_with_stdout_closed_exits_0_and_keeps_the_bundle(tmp_path, flags, unbuffered):
    # A pipe whose reader has gone, as in `foragesim ... | head -0`; with
    # buffered stdout the lines fail at the flush, unbuffered at the print.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "foragesim.cli", *flags, "--output", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    if flags != RUN:
        assert not out.exists()
        return
    assert sorted(read_bundle(out).files) == [
        "binomial.csv", "classification.csv", "manifest.json", "p1_histogram.csv",
        "results.csv",
    ]


@pytest.mark.parametrize("made_by_user", [False, True], ids=["new", "empty"])
@pytest.mark.parametrize(
    "signum, code, err",
    [(signal.SIGTERM, 143, ""), (signal.SIGINT, 130, "interrupted\n")],
    ids=["SIGTERM", "SIGINT"],
)
def test_main_stopped_by_a_signal_leaves_nothing(tmp_path, signum, code, err, made_by_user):
    # The signal comes once the first event log is open. SIGINT raises
    # KeyboardInterrupt, as in a terminal; a shell starts background jobs,
    # and so this process, with SIGINT ignored.
    out = tmp_path / "out"
    if made_by_user:
        out.mkdir()
    argv = ["--preset", "set1", "--event-log", "--output", str(out)]
    script = (
        f"import signal, sys; sys.path.insert(0, {str(SRC)!r}); "
        "signal.signal(signal.SIGINT, signal.default_int_handler); "
        f"from foragesim.cli import main; sys.exit(main({argv!r}))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        deadline = time.monotonic() + 60
        while not (out / event_log_name(0)).exists():
            assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
            time.sleep(0.01)
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, stdout, stderr) == (code, "", err)
    assert (os.listdir(out) == []) if made_by_user else not out.exists()


# -- the benchmark's record --------------------------------------------------------


@pytest.mark.parametrize(
    "name, seed", [("set1", 1), ("set2-events", 2)], ids=["original", "modified"]
)
def test_benchmark_tracer_counts_each_mode_under_its_name(tmp_path, load_script, name, seed):
    # The benchmark's own check on one recorded pair per mode: set1 runs
    # ORIGINAL, set2-events MODIFIED. The bundle's digests, its
    # retrieved_totals and every exact count, each mode's split of
    # record_trip_outcome and record_leave_outcome among them, must equal
    # perfbench/expected.json.
    run = load_script("perfbench/run.py")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(run.EXPECTED.read_text())[name][str(seed)]
    workload = run.WORKLOADS[name]
    config = run.make_config(workload, seed)
    write_config(config, str(tmp_path / "config.json"))
    trace_path = tmp_path / "trace.json"
    unit = run.run_bundle(
        tmp_path, tmp_path / "config.json", workload.event_log, time.perf_counter() + 600, trace_path
    )
    assert run.bundle_matches(unit, expected["bundle"]), unit.get("error", unit.get("bundle"))
    trace = json.loads(trace_path.read_text())
    layers = run.layer_metrics(trace, unit["bundle"])
    assert {key: layers[key] for key in run.exact_count_names(spec)} == expected["counts"]
    # Each replication runs inside run_command through cli.run_experiment,
    # and builds its world and runs its engine under its own span.
    spans = trace["spans"]
    (command,) = [sid for sid, name, _, _, _ in spans if name == "cli.run_command"]
    replications = [span for span in spans if span[1] == "experiment.replication"]
    assert [span[4] for span in replications] == [command] * config.replications
    for sid, *_ in replications:
        children = sorted(name for _, name, _, _, parent in spans if parent == sid)
        assert children == ["engine.run", "experiment.build_world"]
