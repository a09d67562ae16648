"""Behavioral state machine tests: leave checks, searching, pickup,
returning, delivery, and the deterministic tick loop."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.allocation import Mode, ObjectType, vdr_failure, vdr_success
from foragesim.arena import (
    BOUNCE_REDRAW_CAP,
    ArenaConfig,
    ContactKind,
    RobotPhase,
    World,
    edge_follow_heading,
    nearest_contact,
)
from foragesim.engine import Simulation, discard
from foragesim.experiment import result_of, run_experiment, set1_config, start

from conftest import TABLE4, TABLE9, ScriptedRng, drawn_configs, make_robot, on_presets

# Kinematics examples below assume the declared interpretation constants:
# speed 1 unit/s, tick 0.1 s, so one step is 0.1 units.
ARENA = ArenaConfig(robot_speed=1.0)


def build_sim(rng=None, totals=(30, 35), emit=discard, **overrides):
    """A simulation of Set I's rule in the ARENA geometry, with ``overrides``
    replacing config fields, over an empty world holding ``totals``."""
    config = replace(
        set1_config(), arena=ARENA, leave_params=TABLE4, obj_params=(TABLE9, TABLE9),
        **overrides,
    )
    world = World(config=config.arena, totals=totals)
    return Simulation(config, world, rng if rng is not None else random.Random(0), emit)


T1, T2 = ObjectType.TYPE1, ObjectType.TYPE2
STOPPING, SEARCHING, RETURNING = RobotPhase.STOPPING, RobotPhase.SEARCHING, RobotPhase.RETURNING
TOUCH = 2 * ARENA.robot_radius  # within contact range of a robot or an object
# A wall contact, far enough from the wall that no step away is clamped.
NEAR_WALL = (ARENA.arena_half_width - ARENA.robot_radius - 0.04, 3.0)
INSIDE_NEST = (ARENA.nest_radius - 0.05, 0.0)
# No robot's center goes past this on either axis: its rim would cross the wall.
LIMIT = ARENA.arena_half_width - ARENA.robot_radius
INITIAL = TABLE9.initial_state()
LEAVE = TABLE4.initial_state()


def check_tick(setup, kind, expect):
    """Tick once with robot 0 meeting ``kind``, and check what the tick left.

    A moving robot that stays in its phase moves one full step along the
    heading its handler left, each coordinate then clamped to ``LIMIT``. A
    STOPPING robot makes no contact query (``kind`` None) and takes no step;
    a departure, a pickup, a timeout or a delivery changes the phase where
    the robot stands. Its phase, load, leave and pickup states, search
    deadline, assignment, ``retrieved``, ``trip_failures`` and the types of
    the free objects stay as they were unless ``expect`` says otherwise.
    ``expect`` may also name the heading and position after the tick, the
    kinds of the records the tick emitted, "away": the step left the contact
    point behind, and "apart": the other robot ended the tick farther away.
    ``setup`` may set the start tick, the leave-check period and the robot's
    leave probability "p1". A ``setup`` with "draws" feeds the tick exactly
    those draws; without, the tick draws from a seeded rng.

    ``test_tick_steps_each_moving_robot_once`` runs it over one table with a
    row per tick rule; a row with "draws" pins its rule exactly. The eight
    named tests after the table repeat eight rows that draw from the seeded
    rng with the tick's draws scripted, to pin those rules exactly."""
    objects = setup.get("objects", [])
    totals = [0, 0]
    for obj_type, _, _ in objects + [(setup.get("carried"), 0, 0)]:
        if obj_type is not None:
            totals[obj_type] += 1
    rng = ScriptedRng(setup["draws"]) if "draws" in setup else random.Random(7)
    records = []
    sim = build_sim(rng=rng, totals=tuple(totals), emit=records.append,
                    mode=setup.get("mode", Mode.ORIGINAL),
                    leave_check_period=setup.get("period", 0.1))
    sim.clock.tick_index = setup.get("tick", 0)
    for obj_type, x, y in objects:
        sim.world.add_object(obj_type, x, y)
    start = setup.get("at", (5.0, 5.0))
    phase = setup.get("phase", SEARCHING)
    robot = make_robot(
        0, *start, phase=phase, search_deadline=setup.get("deadline", 15.0), heading=0.3,
        capability=setup.get("capability", (0.5, 0.5)), p1=setup.get("p1"),
    )
    robot.carried = setup.get("carried")
    robot.assignment = setup.get("assignment")
    sim.world.add_robot(robot)
    other = None
    if "other" in setup:
        other = make_robot(1, *setup["other"], phase=phase, search_deadline=15.0)
        sim.world.add_robot(other)
    contact = None if phase is STOPPING else nearest_contact(sim.world, start, robot.id)
    assert getattr(contact, "kind", None) is kind
    point = getattr(contact, "point", None)

    def free_types():
        return sorted(o.obj_type for o in sim.world.objects.values())

    expected = {
        "phase": phase, "carried": robot.carried, "leave": robot.leave,
        "pickup": robot.pickup, "deadline": robot.search_deadline,
        "assignment": robot.assignment, "retrieved": list(robot.retrieved),
        "trip_failures": robot.trip_failures, "objects": free_types(), **expect,
    }
    sim.tick()
    end = (robot.x, robot.y)
    seen = {
        "phase": robot.phase, "carried": robot.carried, "leave": robot.leave,
        "pickup": robot.pickup, "deadline": robot.search_deadline,
        "assignment": robot.assignment, "retrieved": robot.retrieved,
        "trip_failures": robot.trip_failures, "objects": free_types(),
        "heading": robot.heading, "position": end, "records": [r[0] for r in records],
        "away": point is not None and math.dist(end, point) > math.dist(start, point),
        "apart": other is not None
        and math.dist(end, (other.x, other.y)) > math.dist(start, setup["other"]),
    }
    assert {name: seen[name] for name in expected} == expected
    if "draws" in setup:
        assert rng.draws == []  # and one more draw would have raised
    if robot.phase is phase and phase is not STOPPING:
        step = ARENA.robot_speed * sim.config.tick_duration
        h = robot.heading
        full = (start[0] + step * math.cos(h), start[1] + step * math.sin(h))
        assert end == tuple(max(-LIMIT, min(LIMIT, c)) for c in full)
    else:
        assert end == start


# -- the tick's rules --------------------------------------------------------------
# One row per rule: README's behaviour table, row by row, and the leave check.
# A departure's draw 0.5 is its heading, pi; the Set I search budget is 15 s.
# A robot at (0.5, 0) is home: it ends its trip where it stands, and a trip
# moves the leave state only, in both modes.


@pytest.mark.parametrize(
    "setup, kind, expect",
    [
        # At tick 20, 2 s in: the deadline counts from the departure.
        pytest.param(
            {"phase": STOPPING, "p1": 0.08, "tick": 20, "draws": [0.01, 0.5]}, None,
            {"phase": SEARCHING, "heading": math.pi, "deadline": pytest.approx(17.0),
             "records": ["phase", "leave"]},
            id="departure",
        ),
        # One draw and no heading draw on a failed check.
        pytest.param({"phase": STOPPING, "p1": 0.002, "draws": [0.99]}, None, {"records": []},
                     id="stay"),
        # The heading's draw comes first; the task's, 0.49, is type 1 at symmetric P_obj.
        pytest.param(
            {"mode": Mode.MODIFIED, "phase": STOPPING, "p1": 0.08, "draws": [0.01, 0.5, 0.49]},
            None, {"phase": SEARCHING, "heading": math.pi, "assignment": T1},
            id="task-assignment",
        ),
        # Every 10th tick checks; an off-cadence tick makes no draw at all.
        pytest.param({"phase": STOPPING, "p1": 0.08, "period": 1.0, "tick": 5, "draws": []},
                     None, {}, id="off-cadence-tick"),
        pytest.param({}, ContactKind.NONE, {}, id="free-step"),
        # Out of contact range, 0.22 from the wall, a step at heading 0.3 (draw
        # 0.5 is zero jitter) would carry the center 0.0955 along x, past LIMIT.
        pytest.param(
            {"at": (ARENA.arena_half_width - 0.22, 3.0), "draws": [0.5]}, ContactKind.NONE,
            {"heading": 0.3, "position": (LIMIT, 3.0 + 0.1 * math.sin(0.3))},
            id="free-step-stops-at-wall",
        ),
        pytest.param({"deadline": 0.0}, ContactKind.NONE, {"phase": RETURNING},
                     id="search-timeout"),
        pytest.param({"at": INSIDE_NEST}, ContactKind.NEST, {}, id="nest-pass-through"),
        # Outside it, the ring repels: draw 0.5, heading pi, points back in
        # and is redrawn; draw 0.0, heading 0, clears it.
        pytest.param(
            {"at": (ARENA.nest_radius + ARENA.robot_radius, 0.0), "draws": [0.5, 0.0]},
            ContactKind.NEST, {"heading": 0.0, "away": True}, id="nest-bounce",
        ),
        pytest.param({"at": NEAR_WALL}, ContactKind.WALL, {"away": True}, id="wall-bounce"),
        # Every redraw, heading 0, points at the wall: after the last one the
        # robot takes the exact away heading.
        pytest.param(
            {"at": NEAR_WALL, "draws": [0.0] * BOUNCE_REDRAW_CAP}, ContactKind.WALL,
            {"heading": math.pi, "position": pytest.approx((NEAR_WALL[0] - 0.1, NEAR_WALL[1])),
             "away": True},
            id="wall-fallback",
        ),
        pytest.param({"other": (5.0 + TOUCH, 5.0)}, ContactKind.ROBOT, {"away": True},
                     id="robot-bounce"),
        pytest.param(
            {"capability": (1.0, 1.0), "objects": [(T1, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, {"phase": RETURNING, "carried": T1, "objects": []}, id="pickup",
        ),
        pytest.param(
            {"capability": (0.0, 0.0), "objects": [(T1, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, {"away": True}, id="failed-pickup",
        ),
        pytest.param(
            {"mode": Mode.MODIFIED, "assignment": T1, "capability": (1.0, 1.0),
             "objects": [(T2, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, {"away": True}, id="wrong-type-obstacle",
        ),
        # In MODIFIED mode each attempt moves the pickup state of its type.
        pytest.param(
            {"mode": Mode.MODIFIED, "assignment": T2, "capability": (0.0, 0.0),
             "objects": [(T2, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, {"pickup": (INITIAL, vdr_failure(INITIAL, TABLE9)), "away": True},
            id="modified-failed-pickup",
        ),
        pytest.param({"phase": RETURNING, "carried": T1, "at": (5.0, 0.0)}, ContactKind.NONE,
                     {}, id="return-home"),
        pytest.param(
            {"phase": RETURNING, "carried": T1, "objects": [(T2, 5.0 - TOUCH, 5.0)]},
            ContactKind.OBJECT, {}, id="edge-follow",
        ),
        # Two returning robots in contact both bounce, and end the tick apart.
        pytest.param({"phase": RETURNING, "other": (5.0 - TOUCH, 5.0)}, ContactKind.ROBOT,
                     {"away": True, "apart": True}, id="returning-robot-bounce"),
        pytest.param(
            {"phase": RETURNING, "carried": T1, "at": (0.5, 0.0)}, ContactKind.NONE,
            {"phase": STOPPING, "carried": None, "objects": [T1], "retrieved": [1, 0],
             "leave": vdr_success(LEAVE, TABLE4)},
            id="delivery-type1",
        ),
        # Draws 0.9 and 0.9 spawn the replacement at (7.88, 7.88), clear of the nest.
        *(pytest.param(
            {"mode": mode, "phase": RETURNING, "carried": T2, "at": (0.5, 0.0),
             "objects": [(T1, 5.0, 5.0)], "draws": [0.9, 0.9]},
            ContactKind.NONE,
            {"phase": STOPPING, "carried": None, "retrieved": [0, 1], "objects": [T1, T2],
             "leave": vdr_success(LEAVE, TABLE4), "records": ["deliver", "trip", "phase"]},
            id=f"delivery-type2-{mode.value}",
        ) for mode in Mode),
        *(pytest.param(
            {"mode": mode, "phase": RETURNING, "at": (0.5, 0.0),
             "objects": [(T1, 5.0, 5.0), (T2, -5.0, 5.0)], "draws": []},
            ContactKind.NONE,
            {"phase": STOPPING, "trip_failures": 1, "leave": vdr_failure(LEAVE, TABLE4),
             "records": ["trip", "phase"]},
            id=f"empty-trip-{mode.value}",
        ) for mode in Mode),
    ],
)
def test_tick_steps_each_moving_robot_once(setup, kind, expect):
    check_tick(setup, kind, expect)


# Eight rows' cases with the tick's draws scripted, each checking the one fact
# that its rule fixes exactly.


def test_searching_jitter_advance():
    # Draw 0.75 is +0.05 rad of jitter, with jitter half-width 0.1.
    check_tick({"draws": [0.75]}, ContactKind.NONE, {"heading": pytest.approx(0.35)})


def test_searching_timeout_returns_empty():
    # No draw: the robot turns for home carrying nothing, where it stands.
    check_tick({"deadline": 0.0, "draws": []}, ContactKind.NONE,
               {"phase": RETURNING, "carried": None})


def test_searching_inside_nest_passes_outward():
    # A robot still inside the nest passes outward: draw 0.5 is zero jitter,
    # and no bounce redraw follows.
    check_tick({"at": INSIDE_NEST, "draws": [0.5]}, ContactKind.NEST, {"heading": 0.3})


def test_pickup_certain_capability_succeeds():
    # One draw, the highest, still picks up at capability 1.0.
    check_tick(
        {"capability": (1.0, 1.0), "objects": [(T1, 5.0 + TOUCH, 5.0)], "draws": [0.999999]},
        ContactKind.OBJECT, {"phase": RETURNING, "carried": T1, "objects": []},
    )


def test_pickup_zero_capability_bounces():
    # Draw 0.0, the lowest, still fails at capability 0.0; the bounce's draw
    # 0.5, heading pi, clears the object ahead.
    check_tick(
        {"capability": (0.0, 0.0), "objects": [(T2, 5.0 + TOUCH, 5.0)], "draws": [0.0, 0.5]},
        ContactKind.OBJECT, {"heading": math.pi, "away": True},
    )


def test_modified_wrong_type_is_plain_obstacle():
    # Capability 1.0 would make a capability draw succeed: a type not
    # assigned is bounced off with the bounce's one draw, and no state update.
    check_tick(
        {"mode": Mode.MODIFIED, "assignment": T1, "capability": (1.0, 1.0),
         "objects": [(T2, 5.0 + TOUCH, 5.0)], "draws": [0.5]},
        ContactKind.OBJECT, {"heading": math.pi, "away": True},
    )


def test_returning_homes_on_origin():
    # No draw: heading +-pi, one step toward the origin.
    check_tick({"phase": RETURNING, "carried": T1, "at": (5.0, 0.0), "draws": []},
               ContactKind.NONE, {"position": pytest.approx((4.9, 0.0))})


def test_returning_edge_follows_object():
    # An object is no obstacle to bounce off on the way home: the robot
    # turns along its edge with no draw.
    check_tick(
        {"phase": RETURNING, "carried": T1, "objects": [(T2, 5.0 - TOUCH, 5.0)], "draws": []},
        ContactKind.OBJECT, {"heading": edge_follow_heading((5.0, 5.0), (5.0 - TOUCH, 5.0))},
    )


# -- tick loop ----------------------------------------------------------------------


def test_leave_records_follow_check_period():
    config = replace(set1_config(seed=3), horizon=60.0, leave_check_period=1.0)
    events = []
    run_experiment(config, emit=events.append)
    ticks = [record[1] for record in events if record[0] == "leave"]
    assert ticks and all(tick % 10 == 0 for tick in ticks)


def test_tick_fixed_point_when_all_draws_fail():
    sim = build_sim(rng=ScriptedRng([0.99] * 3), totals=(1, 1))
    sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
    sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
    for rid in range(3):
        sim.world.add_robot(make_robot(rid, 0.2 * rid, 0.0, phase=STOPPING))
    def snapshot():
        return [(r.x, r.y, r.heading, r.phase, r.leave, r.pickup) for r in sim.world.robots]

    before = snapshot()
    sim.tick()
    assert sim.clock.tick_index == 1
    assert snapshot() == before


def test_capability_gate_zero_never_carries():
    events = []
    sim = build_sim(rng=random.Random(2), totals=(2, 2), horizon=60.0, emit=events.append)
    rng = random.Random(2)
    from foragesim.arena import spawn_object

    for t in (ObjectType.TYPE1, ObjectType.TYPE1, ObjectType.TYPE2, ObjectType.TYPE2):
        spawn_object(sim.world, t, rng)
    robot = make_robot(
        0, 0.0, 0.0, phase=STOPPING, capability=(0.0, 0.0), p1=0.08
    )
    sim.world.add_robot(robot)
    sim.run()
    assert sum(robot.retrieved) == 0
    assert robot.retrieved == [0, 0]
    assert not any(e[0] == "pickup" for e in events)
    assert robot.trip_failures > 0  # it did go out and time out


def test_original_run_leaves_pickup_states_untouched():
    # In ORIGINAL mode only trips move a robot's state, and only its leave
    # state: after a whole Set I replication every pickup state is initial.
    config = set1_config(seed=1)
    assert config.mode is Mode.ORIGINAL
    sim = start(config)
    sim.run()
    robots = sim.world.robots
    initial = tuple(params.initial_state() for params in config.obj_params)
    assert sum(sum(r.retrieved) for r in robots) > 0  # pickups did happen
    assert any(r.leave != config.leave_params.initial_state() for r in robots)
    assert [r.pickup for r in robots] == [initial] * config.robot_count


@settings(max_examples=10, deadline=None)
@given(config=drawn_configs(), replication=st.integers(0, 1))
@on_presets
def test_run_stopped_at_tick_t_is_the_run_of_horizon_t(config, replication):
    # One run, advanced to a quarter, a half and all of its horizon, reads at
    # each stop the result, the event records and the stream position of a
    # run of that horizon: nothing in a tick reads the horizon.
    records = []
    sim = start(config, replication, records.append)
    for ticks in (config.total_ticks // 4, config.total_ticks // 2, config.total_ticks):
        sim.advance(ticks)
        alone = []
        shorter = start(replace(config, horizon=ticks * config.tick_duration), replication,
                        alone.append)
        shorter.run()
        assert result_of(sim) == result_of(shorter)
        assert records == alone
        assert sim.rng.getstate() == shorter.rng.getstate()
