"""Experiment runner tests: config validation, presets, bounds, determinism."""

import random
from dataclasses import replace

import pytest

from foragesim import (
    ArenaConfig,
    Mode,
    VdrParams,
    run_experiment,
    set1_config,
    set2_config,
)
from foragesim.engine import MAX_TICKS
from foragesim.experiment import MAX_OBJECTS, MAX_REPLICATIONS, ExperimentConfig, _build_world


def test_config_validation():
    config = set1_config()
    with pytest.raises(ValueError):
        replace(config, robot_count=0)
    with pytest.raises(ValueError):
        replace(config, object_totals=(0, 35))
    with pytest.raises(ValueError):
        replace(config, replications=0)
    with pytest.raises(ValueError):
        replace(config, search_timeout=0.0)
    with pytest.raises(ValueError):
        replace(config, tick_duration=-0.1)
    # random.Random seeds by |seed|, so seed -1 would repeat seed 1's streams.
    with pytest.raises(ValueError, match="seed"):
        replace(config, seed=-1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "name", ["horizon", "search_timeout", "tick_duration", "leave_check_period"]
)
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(set1_config(), **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("robot_count", True),
        ("robot_count", 2.7),
        ("robot_count", 4.0),  # only the CLI converts an integral float
        ("object_totals", (1.5, 35)),
        ("object_totals", (30, True)),
        ("replications", True),
        ("replications", 1.9),
        ("seed", 3.5),
        ("seed", False),
    ],
)
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match="must be an integer"):
        replace(set1_config(), **{name: value})


def test_config_rejects_infeasible_packing():
    # 0.9069 of a 2 x 2 square holds at most 28 disks of radius 0.2.
    arena = ArenaConfig(
        arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1
    )
    replace(set1_config(), arena=arena, object_totals=(14, 14))
    with pytest.raises(ValueError, match="too packed"):
        replace(set1_config(), arena=arena, object_totals=(14, 15))


def test_config_caps_the_tick_count():
    # No run starts: 1e-300 s ticks would never end, and 1e-320 s ticks make
    # the tick count infinite.
    replace(set1_config(), horizon=MAX_TICKS * 0.1)
    for overrides in (
        dict(horizon=MAX_TICKS * 0.1 + 0.1),
        dict(horizon=5.0, tick_duration=1e-300),
        dict(horizon=5.0, tick_duration=1e-320),
    ):
        with pytest.raises(ValueError, match="tick count is capped"):
            replace(set1_config(), **overrides)


def test_config_caps_replications_and_object_counts():
    wide = replace(set1_config().arena, arena_half_width=1000.0)
    replace(set1_config(), replications=MAX_REPLICATIONS)
    replace(set1_config(), arena=wide, object_totals=(MAX_OBJECTS, MAX_OBJECTS))
    with pytest.raises(ValueError, match="replications must be in"):
        replace(set1_config(), replications=MAX_REPLICATIONS + 1)
    # A count too large for a float is refused before the packing check.
    for totals, name in (((MAX_OBJECTS + 1, 1), "objects_type1"), ((1, 10**400), "objects_type2")):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            replace(set1_config(), arena=wide, object_totals=totals)


def test_config_rejects_zero_pickup_floors_in_modified_mode():
    # assign_task draws type 1 with p1 / (p1 + p2); failures clamp at p_min.
    zero = VdrParams(p_max=0.15, p_min=0.0, p_initial=0.0, delta=0.0025)
    replace(set2_config(), obj_params=(zero, set2_config().obj_params[1]))
    replace(set1_config(), obj_params=(zero, zero))  # ORIGINAL never draws a task
    with pytest.raises(ValueError, match="p_min"):
        replace(set2_config(), obj_params=(zero, zero))


def test_set1_preset_parameters():
    config = set1_config()
    assert config.mode is Mode.ORIGINAL
    assert config.robot_count == 15
    assert config.object_totals == (30, 35)
    assert config.horizon == 180.0
    assert config.search_timeout == 15.0
    assert config.leave_params == VdrParams(
        p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003
    )
    assert config.replications == 20


def test_set2_preset_parameters():
    config = set2_config()
    assert config.mode is Mode.MODIFIED
    assert config.horizon == 300.0
    assert config.search_timeout == 25.0
    assert config.leave_params.delta == 0.0015
    for params in config.obj_params:
        assert params == VdrParams(
            p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025
        )


def quick_config(**overrides):
    base = set1_config()
    defaults = dict(horizon=20.0, replications=2)
    defaults.update(overrides)
    return replace(base, **defaults)


def test_run_respects_p1_bounds():
    result = run_experiment(quick_config(), 0)
    lp = set1_config().leave_params
    assert len(result.final_p1) == 15
    assert all(lp.p_min <= p <= lp.p_max for p in result.final_p1)
    assert result.final_pobj is None


def test_zero_horizon_leaves_initials():
    result = run_experiment(quick_config(horizon=0.0), 0)
    assert result.final_p1 == [0.04] * 15
    assert result.retrieved == (0, 0)
    assert all(t == (0, 0) for t in result.trips)


def test_modified_run_respects_pobj_bounds():
    config = replace(set2_config(), horizon=20.0)
    result = run_experiment(config, 0)
    op = config.obj_params[0]
    assert result.final_pobj is not None
    for series in result.final_pobj:
        assert len(series) == 15
        assert all(op.p_min <= p <= op.p_max for p in series)


def test_capabilities_in_unit_interval():
    result = run_experiment(quick_config(horizon=0.0), 0)
    for c1, c2 in result.capabilities:
        assert 0.0 <= c1 <= 1.0
        assert 0.0 <= c2 <= 1.0


def test_replications_are_distinct_streams():
    config = quick_config()
    r0 = run_experiment(config, 0)
    r1 = run_experiment(config, 1)
    assert r0.capabilities != r1.capabilities


def test_seed_changes_runs():
    r_a = run_experiment(quick_config(horizon=0.0, seed=1), 0)
    r_b = run_experiment(quick_config(horizon=0.0, seed=2), 0)
    assert r_a.capabilities != r_b.capabilities


def test_world_build_is_the_same_in_both_modes():
    # Paired runs of the two rules share their random numbers: the same seed
    # builds the same world, whatever the mode.
    config = replace(set1_config(), robot_count=4, object_totals=(3, 4))
    worlds = [
        _build_world(replace(config, mode=mode), random.Random(7))
        for mode in (Mode.ORIGINAL, Mode.MODIFIED)
    ]
    original, modified = [
        (
            [(o.id, o.obj_type, o.x, o.y) for o in world.objects.values()],
            [(r.x, r.y, r.heading, r.capability, r.alloc) for r in world.robots],
        )
        for world in worlds
    ]
    assert len(original[0]) == 7 and len(original[1]) == 4
    assert original == modified