"""Experiment runner tests: config validation, presets, bounds, determinism."""

import random
from dataclasses import replace

import pytest

from foragesim.allocation import Mode, VdrParams, VdrState
from foragesim.arena import ArenaConfig
from foragesim.experiment import (
    MAX_OBJECTS,
    MAX_REPLICATIONS,
    MAX_TICKS,
    _build_world,
    run_experiment,
    set1_config,
    set2_config,
)

from conftest import TABLE9

# Pickup parameters whose floor, p_min, is 0.
ZERO_FLOOR = VdrParams(p_max=0.15, p_min=0.0, p_initial=0.0, delta=0.0025)
# 0.9069 of a 2 x 2 square holds at most 28 disks of radius 0.2.
PACKED = ArenaConfig(
    arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1
)
WIDE = replace(set1_config().arena, arena_half_width=1000.0)
CAPPED = "horizon_seconds is .* ticks at tick_duration {}; the tick count is capped"


def case(match, id=None, **edit):
    """``edit`` applied to set1_config(): refused with a message that
    ``match`` finds, or accepted if ``match`` is None."""
    if id is None:
        ((key, value),) = edit.items()
        id = f"{key}-{value}"
    return pytest.param(edit, match, id=id)


CONFIG_CASES = [
    # Spans below their floor, or not a whole number of ticks.
    case("horizon_seconds must be >= 0, got -1.0", horizon=-1.0),
    case("search_timeout_seconds must be > 0, got 0.0", search_timeout=0.0),
    case("search_timeout_seconds must be > 0, got -1.0", search_timeout=-1.0),
    case("tick_duration must be > 0, got -0.1", tick_duration=-0.1),
    case("leave_check_period must be > 0, got 0.0", leave_check_period=0.0),
    case("horizon_seconds must be a whole number", horizon=10.05),
    # No run starts: 1e-300 s ticks would never end, and 1e-320 s ticks
    # make the tick count infinite.
    case(None, horizon=MAX_TICKS * 0.1),
    case(CAPPED.format(0.1), horizon=MAX_TICKS * 0.1 + 0.1),
    case(CAPPED.format(1e-300), horizon=5.0, tick_duration=1e-300, id="tick_duration-1e-300"),
    case(CAPPED.format(1e-320), horizon=5.0, tick_duration=1e-320, id="tick_duration-1e-320"),
    # An int tick length is echoed as the tick count is, in three digits.
    case(CAPPED.format(r"1e\+290"), horizon=1e300, tick_duration=10**290,
         id="tick_duration-10**290"),
    # Counts out of range. random.Random seeds by |seed|, so seed -1 would
    # repeat seed 1's streams.
    case("robot_count must be in", robot_count=0),
    case("objects_type1 must be in", object_totals=(0, 35), id="objects_type1-0"),
    case("replications must be in", replications=0),
    case(None, replications=MAX_REPLICATIONS),
    case("replications must be in", replications=MAX_REPLICATIONS + 1),
    case("seed must be >= 0", seed=-1),
    # A count too large for a float is refused before the packing check.
    case(None, arena=WIDE, object_totals=(MAX_OBJECTS, MAX_OBJECTS), id="max-objects"),
    case("objects_type1 must be in", arena=WIDE, object_totals=(MAX_OBJECTS + 1, 1),
         id="objects_type1-over-max"),
    case("objects_type2 must be in", arena=WIDE, object_totals=(1, 10**400),
         id="objects_type2-10**400"),
    case(None, arena=PACKED, object_totals=(14, 14), id="packed-28"),
    case("too packed", arena=PACKED, object_totals=(14, 15), id="packed-29"),
    # assign_task draws type 1 with p1 / (p1 + p2); failures clamp each at
    # its p_min. ORIGINAL never draws a task.
    case(None, mode=Mode.MODIFIED, obj_params=(ZERO_FLOOR, TABLE9), id="one-zero-floor"),
    case(None, obj_params=(ZERO_FLOOR, ZERO_FLOOR), id="zero-floors-original"),
    case("modified mode needs obj1_p_min or obj2_p_min above 0", mode=Mode.MODIFIED,
         obj_params=(ZERO_FLOOR, ZERO_FLOOR), id="zero-floors-modified"),
    # Values of the wrong type, each refused under its key.
    case("mode must be a Mode, got 'modified'", mode="modified"),
    case("horizon_seconds must be a number, got True", horizon=True),
    case("robot_speed must be a number, got True", id="robot_speed-True",
         arena=lambda: replace(set1_config().arena, robot_speed=True)),
]


def check(edit, match):
    def build():
        values = {key: value() if callable(value) else value for key, value in edit.items()}
        return replace(set1_config(), **values)

    if match is None:
        build()
    else:
        with pytest.raises(ValueError, match=match) as refused:
            build()
        assert len(str(refused.value)) < 120


@pytest.mark.parametrize("edit, match", CONFIG_CASES)
def test_config_validation(edit, match):
    check(edit, match)


# Spans that are not finite, or an int past the float range, each named by
# its config key. A callable value is called inside the check, because an
# ArenaConfig is refused as it is built.
NON_FINITE = [
    *(
        case(f"{key} must be finite", id=f"{name}-{shown}", **{name: value})
        for name, key in (
            ("horizon", "horizon_seconds"),
            ("search_timeout", "search_timeout_seconds"),
            ("tick_duration", "tick_duration"),
            ("leave_check_period", "leave_check_period"),
        )
        for shown, value in (
            ("nan", float("nan")), ("inf", float("inf")), ("-inf", float("-inf")),
            ("10**400", 10**400),
        )
    ),
    case("robot_speed must be finite", id="robot_speed-10**400",
         arena=lambda: replace(set1_config().arena, robot_speed=10**400)),
]


@pytest.mark.parametrize("edit, match", NON_FINITE)
def test_config_rejects_non_finite(edit, match):
    check(edit, match)


# Counts that are not integers; only the CLI converts an integral float.
NON_INTEGER = [
    case("robot_count must be an integer", robot_count=True),
    case("robot_count must be an integer", robot_count=2.7),
    case("robot_count must be an integer", robot_count=4.0),
    case("objects_type1 must be an integer", object_totals=(1.5, 35), id="objects_type1-1.5"),
    case("objects_type2 must be an integer", object_totals=(30, True), id="objects_type2-True"),
    case("replications must be an integer", replications=True),
    case("replications must be an integer", replications=1.9),
    case("seed must be an integer", seed=3.5),
    case("seed must be an integer", seed=False),
]


@pytest.mark.parametrize("edit, match", NON_INTEGER)
def test_config_rejects_non_integer_counts(edit, match):
    check(edit, match)


def test_config_counts_its_spans_in_ticks():
    config = set1_config()
    assert (config.total_ticks, config.leave_check_ticks) == (1800, 1)
    # replace recomputes both, and neither shows in the config's repr.
    setup = replace(config, horizon=0.0, leave_check_period=1.0)
    assert (setup.total_ticks, setup.leave_check_ticks) == (0, 10)
    assert "ticks" not in repr(config)


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
            [(r.x, r.y, r.heading, r.capability, r.leave, r.pickup) for r in world.robots],
        )
        for world in worlds
    ]
    assert len(original[0]) == 7 and len(original[1]) == 4
    assert original == modified


def test_build_world_starts_robots_at_initial_states():
    config = replace(set1_config(), robot_count=4)
    world = _build_world(config, random.Random(7))
    assert [r.leave for r in world.robots] == [VdrState(0.04, 0, 0)] * 4
    pickup = (VdrState(0.075, 0, 0), VdrState(0.075, 0, 0))
    assert [r.pickup for r in world.robots] == [pickup] * 4
