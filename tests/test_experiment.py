"""Experiment runner tests: config validation, presets, bounds, determinism."""

from dataclasses import fields, replace
from itertools import product

import pytest

from foragesim.allocation import Mode, VdrParams, VdrState
from foragesim.experiment import (
    MAX_OBJECTS,
    MAX_REPLICATIONS,
    MAX_TICKS,
    PRESETS,
    ConfigError,
    config_from_dict,
    config_to_dict,
    run_experiment,
    set1_config,
    set2_config,
    start,
)

LEAVE = "invalid leave_* probability parameters:"
CAPPED = "horizon_seconds is {} ticks at tick_duration {}; the tick count is capped at 10000000"
SPANS = ("horizon_seconds", "search_timeout_seconds", "tick_duration", "leave_check_period")
LENGTHS = ("arena_half_width", "robot_radius", "robot_speed", "heading_jitter")
# Values by the names their rows' ids give them; any other string is a value.
NAMED = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "10**400": 10**400,
         "True": True, "False": False}
# 0.9069 of a 2 x 2 square less the nest's disk of radius 0.45 + 0.05 (margin)
# holds at most 23 disks of radius 0.2.
PACKED = dict(arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1)
KEEPOUT = dict(arena_half_width=2.0, nest_radius=1.5, object_radius=0.2)
ZERO_FLOORS = dict(obj1_p_min=0.0, obj1_p_initial=0.0, obj2_p_min=0.0, obj2_p_initial=0.0)
VDR_FIELDS = {spec.name for spec in fields(VdrParams)}


def row(expected, preset="set1", id=None, **edit):
    """A row of REFUSED: ``edit``, in config file keys, applied to ``preset``'s
    config file is refused with a message that holds ``expected``, or builds a
    config if ``expected`` is None."""
    if id is None:
        ((key, value),) = edit.items()
        id = f"{key}-{value}"
    return id, (preset, edit, expected)


def keyed(text, *pairs):
    """A row for each ``(key, value)``, refused with ``key`` and then ``text``
    formatted with the value; a VdrParams names only its field."""
    for key, shown in pairs:
        value = NAMED.get(shown, shown) if isinstance(shown, str) else shown
        field = key.removeprefix("leave_")
        named = f"{LEAVE} {field}" if field in VDR_FIELDS else key
        yield row(f"{named} {text.format(value)}", id=f"{key}-{shown}", **{key: value})


# Every value refusal of config_from_dict, the boundary that a config file, a
# flag override and a preset all pass, and the configs it accepts at its
# edges, each by its id. test_config_validation checks every row through
# config_from_dict, and tests/test_cli.py every refusal through the CLI.
_ROWS = [
    # Values that are not finite numbers, each refused under its key before a
    # comparison could raise TypeError: a string or a bool, which float()
    # would read; NaN and infinity, which json.load reads; and an int past
    # the float range, which it reads in full.
    *keyed("must be finite", *product(SPANS + LENGTHS, ("nan", "inf", "-inf", "10**400")),
           ("leave_delta", "nan"), ("leave_delta", "inf"), ("leave_delta", "10**400")),
    *keyed("must be a number, got {!r}", *product(LENGTHS, ("1.5", "True")),
           ("leave_delta", "1.5"), ("leave_delta", "True"), ("leave_p_max", "0.1"),
           ("leave_p_max", "True"), ("horizon_seconds", "10"), ("horizon_seconds", "True"),
           ("arena_half_width", "4")),
    # Counts that are not integers, and a mode that does not exist.
    *keyed("must be an integer, got {!r}", ("robot_count", "inf"), ("robot_count", 2.7),
           ("robot_count", "True"), ("objects_type1", 1.5), ("objects_type2", 2.5),
           ("objects_type2", "True"), ("replications", "True"), ("replications", 1.9),
           ("seed", 3.5), ("seed", "False")),
    row("mode: 'hybrid' is not a valid Mode", mode="hybrid"),
    # A float of 2**53 or more need not be the integer the file wrote.
    row("seed must be written as an integer from 2**53 on, got 1.2345678901234567e+19",
        seed=12345678901234567890.0),
    # Spans below their floor, or not a whole number of ticks; a zero
    # horizon builds the world and runs no tick.
    *keyed("must be >= 0, got -1.0", ("horizon_seconds", -1.0)),
    *keyed("must be > 0, got {!r}", ("search_timeout_seconds", 0.0),
           ("search_timeout_seconds", -1.0), ("tick_duration", 0.0), ("tick_duration", -0.1),
           ("leave_check_period", 0.0)),
    *keyed("must be a whole number of 0.1 s ticks", ("horizon_seconds", 10.05),
           ("leave_check_period", 0.15), ("leave_check_period", 0.05)),
    # No run starts that would not end: 1e-300 s ticks would take 5e300,
    # 1e-320 s ticks make the count infinite. An int tick length is echoed
    # as the tick count is, in three digits.
    row(None, horizon_seconds=MAX_TICKS * 0.1),
    row(CAPPED.format("1e+07", 0.1), horizon_seconds=MAX_TICKS * 0.1 + 0.1),
    row(CAPPED.format("5e+300", "1e-300"), id="tick_duration-1e-300",
        horizon_seconds=5.0, tick_duration=1e-300),
    row(CAPPED.format("inf", "1e-320"), id="tick_duration-1e-320",
        horizon_seconds=5.0, tick_duration=1e-320),
    row(CAPPED.format("1e+10", "1e+290"), id="tick_duration-10**290",
        horizon_seconds=1e300, tick_duration=10**290),
    # Counts out of range. C(1030, 515) overflows a float in the binomial
    # comparison; random.Random seeds by |seed|, so seed -1 would repeat seed
    # 1's streams; 10**9 replications would run for years. A count past the
    # float range is refused before the packing check could overflow.
    *keyed("must be in 1..1029", ("robot_count", 0), ("robot_count", 1030)),
    *keyed("must be in 1..100000", ("objects_type1", 0), ("objects_type1", 10**9),
           ("objects_type1", "10**400"), ("objects_type2", "10**400")),
    *keyed("must be in 1..10000", ("replications", 0), ("replications", MAX_REPLICATIONS + 1),
           ("replications", 10**9), ("replications", "10**400")),
    row(None, replications=MAX_REPLICATIONS),
    row("seed must be >= 0", seed=-1),
    row(None, id="max-objects",
        arena_half_width=1000.0, objects_type1=MAX_OBJECTS, objects_type2=MAX_OBJECTS),
    row("objects_type1 must be in 1..100000", id="objects_type1-over-max",
        arena_half_width=1000.0, objects_type1=MAX_OBJECTS + 1, objects_type2=1),
    # Impossible geometry: lengths not above 0, a nest as wide as a robot
    # (0.15) or narrower, or with no room for objects around it, a nest
    # keep-out past the farthest spawn draw or with too little room around it
    # for the objects, and more than half a turn a tick (1e308 summed the
    # heading to infinity).
    *keyed("must be strictly positive", ("robot_radius", 0.0), ("robot_speed", -1.0)),
    *keyed("must be > robot_radius", ("nest_radius", 0.15), ("nest_radius", 0.1)),
    row("nest_radius + 2*object_radius must be < arena_half_width", id="nest-fills-arena",
        arena_half_width=2.0, nest_radius=2.0),
    # A keep-out of 1.5 + 0.2 + margin against sqrt(2) * 1.8 = 2.55 from the origin.
    row("nest_radius + object_radius + contact_margin must be < "
        "sqrt(2) * (arena_half_width - object_radius)", id="keepout-covers-spawn",
        **KEEPOUT, contact_margin=1.0),
    # Objects lie outside the disk of radius nest_radius + contact_margin,
    # which is subtracted only up to the arena's inscribed circle. With
    # 1.5 + 0.7 = 2.2, 0.9069 of 16 - 4 pi holds 24 disks of radius 0.2, not
    # 65. With 1.85 + 0.45 = 2.3, 8 disks of radius 0.05 fit in the corners,
    # where the whole disk would leave less than no area.
    row("the arena is too packed for 65 objects of radius 0.2", id="keepout-inside-corners",
        **KEEPOUT, contact_margin=0.7),
    row(None, id="keepout-corners-fit", arena_half_width=2.0, nest_radius=1.85,
        object_radius=0.05, contact_margin=0.45, objects_type1=4, objects_type2=4),
    *keyed("must be in [0, pi], got {!r}", ("heading_jitter", -0.1), ("heading_jitter", 4.0),
           ("heading_jitter", 1e308)),
    # An arena whose area overflows a float, and radii and a margin near the
    # smallest float, which pass every check one by one but overflow the
    # arena's width in contact-grid cells.
    *keyed("{!r} is too wide", ("arena_half_width", 1e154), ("arena_half_width", 1e200),
           ("arena_half_width", 1e308)),
    row("robot_radius, object_radius and contact_margin are too small for arena_half_width: "
        "its width in grid cells overflows", id="geometry-too-fine-for-the-grid",
        robot_radius=1e-310, object_radius=1e-310, contact_margin=1e-310),
    row(None, id="fine-geometry",
        robot_radius=1e-300, object_radius=1e-300, contact_margin=1e-300),
    row(None, id="packed-23", **PACKED, objects_type1=11, objects_type2=12),
    row("the arena is too packed for 24 objects of radius 0.2", id="packed-24",
        **PACKED, objects_type1=12, objects_type2=12),
    # Probabilities out of order; the histograms of final probabilities span
    # [p_min, p_max]. assign_task draws type 1 with p1 / (p1 + p2), and
    # failures clamp each at its p_min; ORIGINAL never draws a task.
    row(f"{LEAVE} require 0 <= p_min <= p_initial", leave_p_min=0.1),
    row(f"{LEAVE} require 0 <= p_min <= p_initial", leave_p_initial=0.09),
    *keyed("must be > 0, got 0.0", ("leave_delta", 0.0)),
    row(f"{LEAVE} require 0 <= p_min <= p_initial <= p_max <= 1 and p_min < p_max",
        id="leave-equal-bounds", leave_p_min=0.04, leave_p_initial=0.04, leave_p_max=0.04),
    row(None, "set2", id="one-zero-floor", obj1_p_min=0.0, obj1_p_initial=0.0),
    row(None, id="zero-floors-original", **ZERO_FLOORS),
    row("modified mode needs obj1_p_min or obj2_p_min above 0", "set2",
        id="zero-floors-modified", **ZERO_FLOORS),
]
REFUSED = dict(_ROWS)
assert len(REFUSED) == len(_ROWS), "two rows of REFUSED share an id"


@pytest.mark.parametrize("name", REFUSED)
def test_config_validation(name):
    # A refusal on one line of under 120 characters that holds the row's
    # text, or a config.
    preset, edit, expected = REFUSED[name]
    raw = {**config_to_dict(PRESETS[preset]()), **edit}
    if expected is None:
        config_from_dict(raw)
        return
    with pytest.raises(ConfigError) as refused:
        config_from_dict(raw)
    message = str(refused.value)
    assert expected in message and "\n" not in message and len(message) < 120


# Where a config built from Python meets other checks than a config file: a
# count written as a whole float and a mode's name are refused from Python
# but read from a file, and a VdrParams does not know its group. Each row:
# the build from Python and its whole message, the edit of set1's config
# file, and the config the file gives or its whole message.
PYTHON_DOOR = [
    pytest.param(
        lambda: replace(set1_config(), robot_count=4.0), "robot_count must be an integer, got 4.0",
        {"robot_count": 4.0}, replace(set1_config(), robot_count=4), id="robot_count-4.0",
    ),
    pytest.param(
        lambda: replace(set1_config(), mode="modified"), "mode must be a Mode, got 'modified'",
        {"mode": "modified"}, replace(set1_config(), mode=Mode.MODIFIED), id="mode-modified",
    ),
    pytest.param(
        lambda: replace(set1_config().leave_params, p_max=True), "p_max must be a number, got True",
        {"leave_p_max": True}, f"{LEAVE} p_max must be a number, got True", id="VdrParams",
    ),
    pytest.param(
        lambda: replace(set1_config().arena, robot_speed=True),
        "robot_speed must be a number, got True",
        {"robot_speed": True}, "robot_speed must be a number, got True", id="ArenaConfig",
    ),
]


@pytest.mark.parametrize("build, message, edit, from_file", PYTHON_DOOR)
def test_python_door(build, message, edit, from_file):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
    raw = {**config_to_dict(set1_config()), **edit}
    if isinstance(from_file, str):
        with pytest.raises(ConfigError) as refused:
            config_from_dict(raw)
        assert str(refused.value) == from_file
    else:
        assert config_from_dict(raw) == from_file


# Parts of a config that only Python can get wrong: a file gives each count
# and each probability group by its own key.
PIECE = set1_config().obj_params[0]


@pytest.mark.parametrize("edit, message", [
    ({"object_totals": (30, 35, 5)}, "object_totals must be a pair of counts, got (30, 35, 5)"),
    ({"object_totals": (30,)}, "object_totals must be a pair of counts, got (30,)"),
    ({"object_totals": 65}, "object_totals must be a pair of counts, got 65"),
    ({"obj_params": (PIECE,) * 3}, "obj_params must be a pair of VdrParams, got (VdrParams("),
    ({"obj_params": (PIECE, None)}, "obj_params must be a pair of VdrParams, got (VdrParams("),
    ({"leave_params": {"p_max": 0.08}}, "leave_params must be a VdrParams, got {'p_max': 0.08}"),
    ({"arena": None}, "arena must be an ArenaConfig, got None"),
], ids=["totals-three", "totals-one", "totals-int", "obj-three", "obj-none", "leave-dict",
        "arena-none"])
def test_python_parts_refused(edit, message):
    with pytest.raises(ValueError) as refused:
        replace(set1_config(), **edit)
    text = str(refused.value)
    assert text.startswith(message) and "\n" not in text and len(text) < 120


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


def test_zero_horizon_keeps_pobj_order():
    # final_pobj lists type 1's pickup probabilities first.
    pickup = set2_config().obj_params[0]
    config = replace(set2_config(), horizon=0.0, robot_count=4, obj_params=(
        replace(pickup, p_initial=0.05), replace(pickup, p_initial=0.1),
    ))
    assert run_experiment(config, 0).final_pobj == ([0.05] * 4, [0.1] * 4)


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
        start(replace(config, mode=mode)).world
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
    world = start(config).world
    assert [r.leave for r in world.robots] == [VdrState(0.04, 0, 0)] * 4
    pickup = (VdrState(0.075, 0, 0), VdrState(0.075, 0, 0))
    assert [r.pickup for r in world.robots] == [pickup] * 4


def test_build_world_starts_robots_inside_the_nest():
    # Uniform over the disk a robot fits in, whose rim is nest_radius -
    # robot_radius: 200 robots reach past it if the disk is the nest's or its
    # bounding square.
    config = replace(set1_config(), robot_count=200)
    interior = config.arena.nest_radius - config.arena.robot_radius
    world = start(config).world
    assert all(r.x * r.x + r.y * r.y <= interior * interior for r in world.robots)
