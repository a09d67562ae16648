"""Behavioral state machine tests: leave checks, searching, pickup,
returning, delivery, and the deterministic tick loop."""

import math
import random
from dataclasses import replace

import pytest

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
from foragesim.experiment import _build_world, run_experiment, set1_config

from conftest import TABLE4, TABLE9, ScriptedRng, make_robot

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


# -- leaving the nest ------------------------------------------------------------


def test_leave_success_sets_deadline():
    sim = build_sim(rng=ScriptedRng([0.01, 0.5]), totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, phase=RobotPhase.STOPPING, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()  # the tick checks every stopping robot's leave draw
    assert robot.phase is RobotPhase.SEARCHING
    assert robot.search_deadline == pytest.approx(15.0)  # Set I search budget
    assert robot.assignment is None


def test_leave_failure_stays_stopped():
    rng = ScriptedRng([0.99])
    sim = build_sim(rng=rng, totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, phase=RobotPhase.STOPPING, p1=0.002)
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.STOPPING
    assert rng.calls == 1  # no heading draw on a failed check


def test_leave_modified_assigns_task():
    sim = build_sim(mode=Mode.MODIFIED, rng=ScriptedRng([0.01, 0.5, 0.49]), totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, phase=RobotPhase.STOPPING, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.SEARCHING
    assert robot.assignment is ObjectType.TYPE1  # symmetric P_obj, draw 0.49


def test_leave_check_cadence():
    rng = ScriptedRng([])
    sim = build_sim(rng=rng, totals=(0, 0), leave_check_period=1.0)  # every 10th tick
    sim.clock.tick_index = 5
    robot = make_robot(0, 0.0, 0.0, phase=RobotPhase.STOPPING, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()  # off-cadence tick: no draw at all
    assert robot.phase is RobotPhase.STOPPING
    assert rng.calls == 0


def test_leave_records_follow_check_period():
    config = replace(set1_config(seed=3), horizon=60.0, leave_check_period=1.0)
    events = []
    run_experiment(config, emit=events.append)
    ticks = [record[1] for record in events if record[0] == "leave"]
    assert ticks and all(tick % 10 == 0 for tick in ticks)


# -- trips ---------------------------------------------------------------------


# A trip moves the leave state only, in both modes.


def test_returning_delivery_updates_and_conserves():
    for mode in Mode:
        events = []
        sim = build_sim(rng=random.Random(3), totals=(1, 1), emit=events.append, mode=mode)
        sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
        robot = make_robot(0, 0.5, 0.0, phase=RobotPhase.RETURNING)
        robot.carried = ObjectType.TYPE2
        sim.world.add_robot(robot)
        leave, pickup = robot.leave, robot.pickup
        sim.tick()
        assert robot.phase is RobotPhase.STOPPING
        assert robot.carried is None
        assert robot.retrieved == [0, 1]
        assert sum(robot.retrieved) == 1
        # The replacement spawned.
        assert sum(o.obj_type == ObjectType.TYPE2 for o in sim.world.objects.values()) == 1
        sim.world.check_conservation()
        assert robot.leave == vdr_success(leave, TABLE4), mode
        assert robot.pickup == pickup, mode
        kinds = [e[0] for e in events]
        assert kinds == ["deliver", "trip", "phase"]


def test_returning_empty_counts_failure():
    for mode in Mode:
        sim = build_sim(rng=random.Random(3), totals=(1, 1), mode=mode)
        sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
        sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
        robot = make_robot(0, 0.5, 0.0, phase=RobotPhase.RETURNING)
        sim.world.add_robot(robot)
        leave, pickup = robot.leave, robot.pickup
        sim.tick()
        assert robot.phase is RobotPhase.STOPPING
        assert robot.trip_failures == 1
        assert robot.leave == vdr_failure(leave, TABLE4), mode
        assert robot.pickup == pickup, mode


# -- the tick's rules --------------------------------------------------------------

T1, T2 = ObjectType.TYPE1, ObjectType.TYPE2
RETURNING = RobotPhase.RETURNING
TOUCH = 2 * ARENA.robot_radius  # within contact range of a robot or an object
# A wall contact, far enough from the wall that no step away is clamped.
NEAR_WALL = (ARENA.arena_half_width - ARENA.robot_radius - 0.04, 3.0)
INSIDE_NEST = (ARENA.nest_radius - 0.05, 0.0)
INITIAL = TABLE9.initial_state()


def check_tick(setup, kind, expect):
    """Tick once with robot 0 meeting ``kind``, and check what the tick left.

    If the robot stays in its phase, it moves one full step along the heading
    its handler left; a pickup, a timeout or a delivery changes its phase and
    leaves it where it was. Its phase, load, leave and pickup states and the
    count of free objects stay as they were unless ``expect`` says otherwise.
    ``expect`` may also name the heading and position after the tick,
    "away": the step left the contact point behind, and "apart": the other
    robot ended the tick farther away. A ``setup`` with "draws" feeds the
    tick exactly those draws; without, the tick draws from a seeded rng."""
    objects = setup.get("objects", [])
    totals = [0, 0]
    for obj_type, _, _ in objects + [(setup.get("carried"), 0, 0)]:
        if obj_type is not None:
            totals[obj_type] += 1
    rng = ScriptedRng(setup["draws"]) if "draws" in setup else random.Random(7)
    sim = build_sim(rng=rng, totals=tuple(totals), mode=setup.get("mode", Mode.ORIGINAL))
    for obj_type, x, y in objects:
        sim.world.add_object(obj_type, x, y)
    start = setup.get("at", (5.0, 5.0))
    phase = setup.get("phase", RobotPhase.SEARCHING)
    robot = make_robot(
        0, *start, phase=phase, search_deadline=setup.get("deadline", 15.0), heading=0.3,
        capability=setup.get("capability", (0.5, 0.5)),
    )
    robot.carried = setup.get("carried")
    robot.assignment = setup.get("assignment")
    sim.world.add_robot(robot)
    other = None
    if "other" in setup:
        other = make_robot(1, *setup["other"], phase=phase, search_deadline=15.0)
        sim.world.add_robot(other)
    contact = nearest_contact(sim.world, start, robot.id)
    assert contact.kind is kind
    expected = {
        "phase": phase, "carried": robot.carried, "leave": robot.leave,
        "pickup": robot.pickup, "objects": len(objects), **expect,
    }
    sim.tick()
    end = (robot.x, robot.y)
    seen = {
        "phase": robot.phase, "carried": robot.carried, "leave": robot.leave,
        "pickup": robot.pickup, "objects": len(sim.world.objects),
        "heading": robot.heading, "position": end,
        "away": contact.point is not None
        and math.dist(end, contact.point) > math.dist(start, contact.point),
        "apart": other is not None
        and math.dist(end, (other.x, other.y)) > math.dist(start, setup["other"]),
    }
    assert {name: seen[name] for name in expected} == expected
    if "draws" in setup:
        assert rng.draws == []  # and one more draw would have raised
    if robot.phase is phase:
        step = ARENA.robot_speed * sim.config.tick_duration
        h = robot.heading
        assert end == (start[0] + step * math.cos(h), start[1] + step * math.sin(h))
    else:
        assert end == start


@pytest.mark.parametrize(
    "setup, kind, expect",
    [
        pytest.param({}, ContactKind.NONE, {}, id="free-step"),
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
            ContactKind.OBJECT, {"phase": RETURNING, "carried": T1, "objects": 0}, id="pickup",
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
        pytest.param(
            {"phase": RETURNING, "carried": T1, "at": (0.5, 0.0)}, ContactKind.NONE,
            {"phase": RobotPhase.STOPPING, "carried": None, "objects": 1,
             "leave": vdr_success(TABLE4.initial_state(), TABLE4)},
            id="delivery",
        ),
    ],
)
def test_tick_steps_each_moving_robot_once(setup, kind, expect):
    check_tick(setup, kind, expect)


# The rows' cases with the tick's draws scripted, each checking the one fact
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
        ContactKind.OBJECT, {"phase": RETURNING, "carried": T1, "objects": 0},
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


def test_returning_robot_contact_separates():
    # Two returning robots in contact both bounce, and end the tick apart.
    check_tick({"phase": RETURNING, "other": (5.0 - TOUCH, 5.0)}, ContactKind.ROBOT,
               {"away": True, "apart": True})


# -- tick loop ----------------------------------------------------------------------


def test_tick_fixed_point_when_all_draws_fail():
    sim = build_sim(rng=ScriptedRng([0.99] * 3), totals=(1, 1))
    sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
    sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
    for rid in range(3):
        sim.world.add_robot(make_robot(rid, 0.2 * rid, 0.0, phase=RobotPhase.STOPPING))
    def snapshot():
        return [(r.x, r.y, r.heading, r.phase, r.leave, r.pickup) for r in sim.world.robots]

    before = snapshot()
    sim.tick()
    assert sim.clock.tick_index == 1
    assert snapshot() == before


def test_tick_count_matches_horizon():
    sim = build_sim(rng=random.Random(1), totals=(1, 1), horizon=180.0)
    assert sim.config.total_ticks == 1800
    sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
    sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
    sim.world.add_robot(make_robot(0, 0.0, 0.0, phase=RobotPhase.STOPPING))
    sim.run()
    assert sim.clock.tick_index == 1800


def test_capability_gate_zero_never_carries():
    events = []
    sim = build_sim(rng=random.Random(2), totals=(2, 2), horizon=60.0, emit=events.append)
    rng = random.Random(2)
    from foragesim.arena import spawn_object

    for t in (ObjectType.TYPE1, ObjectType.TYPE1, ObjectType.TYPE2, ObjectType.TYPE2):
        spawn_object(sim.world, t, rng)
    robot = make_robot(
        0, 0.0, 0.0, phase=RobotPhase.STOPPING, capability=(0.0, 0.0), p1=0.08
    )
    sim.world.add_robot(robot)
    sim.run()
    assert sum(robot.retrieved) == 0
    assert robot.retrieved == [0, 0]
    assert not any(e[0] == "pickup" for e in events)
    assert robot.trip_failures > 0  # it did go out and time out


def test_trip_accounting_matches_departures():
    config = set1_config(seed=4)
    events = []
    result = run_experiment(config, replication=1, emit=events.append)
    departures = [0] * config.robot_count
    trips = [0] * config.robot_count
    for record in events:
        if record[0] == "leave":
            departures[record[2]] += 1
        elif record[0] == "trip":
            trips[record[2]] += 1
    for rid in range(config.robot_count):
        total = result.trips[rid][0] + result.trips[rid][1]
        assert trips[rid] == total
        # Every completed trip came from a departure; at most one trip open.
        assert departures[rid] - trips[rid] in (0, 1)


def test_original_run_leaves_pickup_states_untouched():
    # In ORIGINAL mode only trips move a robot's state, and only its leave
    # state: after a whole Set I replication every pickup state is initial.
    config = set1_config(seed=1)
    assert config.mode is Mode.ORIGINAL
    rng = random.Random(1)
    sim = Simulation(config, _build_world(config, rng), rng)
    sim.run()
    robots = sim.world.robots
    initial = tuple(params.initial_state() for params in config.obj_params)
    assert sum(sum(r.retrieved) for r in robots) > 0  # pickups did happen
    assert any(r.leave != config.leave_params.initial_state() for r in robots)
    assert [r.pickup for r in robots] == [initial] * config.robot_count
