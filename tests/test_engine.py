"""Behavioral state machine tests: leave checks, searching, pickup,
returning, delivery, and the deterministic tick loop."""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from foragesim.allocation import Mode, ObjectType, vdr_failure, vdr_success
from foragesim.arena import (
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


# -- searching -------------------------------------------------------------------


def test_searching_jitter_advance():
    # Jitter draw 0.75 maps to +0.05 rad with jitter half-width 0.1.
    sim = build_sim(rng=ScriptedRng([0.75]), totals=(0, 0))
    robot = make_robot(0, 5.0, 5.0, heading=0.0, search_deadline=15.0)
    sim.world.add_robot(robot)
    sim.tick()  # no contact: the tick takes the free step itself
    assert robot.heading == pytest.approx(0.05)
    assert robot.x == pytest.approx(5.0 + 0.1 * math.cos(0.05))
    assert robot.y == pytest.approx(5.0 + 0.1 * math.sin(0.05))


def test_searching_timeout_returns_empty():
    sim = build_sim(rng=ScriptedRng([]), totals=(0, 0))
    robot = make_robot(0, 5.0, 5.0, search_deadline=10.0)
    sim.clock.tick_index = 100  # now = 10.0 s, deadline reached
    sim.world.add_robot(robot)
    sim.tick()  # the tick checks the deadline
    assert robot.phase is RobotPhase.RETURNING
    assert robot.carried is None


def test_searching_nest_boundary_bounces_outward():
    sim = build_sim(totals=(0, 0))
    robot = make_robot(0, ARENA.nest_radius + ARENA.robot_radius, 0.0, search_deadline=15.0)
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.SEARCHING
    # Post-bounce heading separates from the nest: positive outward component.
    assert math.cos(robot.heading) > 0.0


def test_searching_inside_nest_passes_outward():
    rng = ScriptedRng([0.5])  # only the jitter draw, no bounce redraws
    sim = build_sim(rng=rng, totals=(0, 0))
    robot = make_robot(0, ARENA.nest_radius - 0.05, 0.0, search_deadline=15.0)
    sim.world.add_robot(robot)
    sim.tick()
    assert rng.calls == 1
    assert robot.heading == pytest.approx(0.0)  # draw 0.5 is zero jitter


# -- pickup ----------------------------------------------------------------------


def place_contact_object(sim, obj_type, robot):
    return sim.world.add_object(obj_type, robot.x + 2 * ARENA.robot_radius, robot.y)


def test_pickup_certain_capability_succeeds():
    sim = build_sim(rng=ScriptedRng([0.999999]), totals=(1, 0))
    robot = make_robot(0, 5.0, 5.0, capability=(1.0, 1.0), search_deadline=15.0)
    sim.world.add_robot(robot)
    obj = place_contact_object(sim, ObjectType.TYPE1, robot)
    sim.tick()
    assert robot.carried is ObjectType.TYPE1
    assert robot.phase is RobotPhase.RETURNING
    assert obj.id not in sim.world.objects
    assert (robot.x, robot.y) == (5.0, 5.0)  # the pickup uses the tick: no step


def test_pickup_zero_capability_bounces():
    sim = build_sim(rng=random.Random(5), totals=(0, 1))
    robot = make_robot(0, 5.0, 5.0, capability=(0.0, 0.0), search_deadline=15.0)
    sim.world.add_robot(robot)
    obj = place_contact_object(sim, ObjectType.TYPE2, robot)
    sim.tick()
    assert robot.carried is None
    assert robot.phase is RobotPhase.SEARCHING
    assert sim.world.objects.get(obj.id) is obj


def test_modified_wrong_type_is_plain_obstacle():
    # Capability 1.0 would guarantee pickup if a capability draw happened;
    # a non-assigned type must bounce with no draw and no state update.
    sim = build_sim(mode=Mode.MODIFIED, rng=random.Random(5), totals=(0, 1))
    robot = make_robot(0, 5.0, 5.0, capability=(1.0, 1.0), search_deadline=15.0)
    robot.assignment = ObjectType.TYPE1
    sim.world.add_robot(robot)
    obj = place_contact_object(sim, ObjectType.TYPE2, robot)
    before = (robot.leave, robot.pickup)
    sim.tick()
    assert robot.carried is None
    assert robot.phase is RobotPhase.SEARCHING
    assert sim.world.objects.get(obj.id) is obj
    assert (robot.leave, robot.pickup) == before


def test_modified_pickup_updates_per_attempt():
    sim = build_sim(mode=Mode.MODIFIED, rng=random.Random(5), totals=(0, 1))
    robot = make_robot(0, 5.0, 5.0, capability=(0.0, 0.0), search_deadline=15.0)
    robot.assignment = ObjectType.TYPE2
    sim.world.add_robot(robot)
    place_contact_object(sim, ObjectType.TYPE2, robot)
    leave, pickup = robot.leave, robot.pickup
    sim.tick()  # failed attempt
    assert robot.pickup[1] == vdr_failure(pickup[1], TABLE9)
    assert robot.pickup[0] == pickup[0]
    assert robot.leave == leave


# -- returning --------------------------------------------------------------------


def test_returning_homes_on_origin():
    sim = build_sim(rng=ScriptedRng([]), totals=(0, 0))
    robot = make_robot(0, 5.0, 0.0, heading=0.0, phase=RobotPhase.RETURNING)
    sim.world.add_robot(robot)
    sim.tick()
    assert abs(robot.heading) == pytest.approx(math.pi)  # -pi and pi coincide
    assert robot.x == pytest.approx(4.9)
    assert robot.y == pytest.approx(0.0)


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


def test_returning_edge_follows_object():
    # An object is no obstacle to bounce off on the way home: the robot
    # turns along its edge with no draw.
    sim = build_sim(rng=ScriptedRng([]), totals=(1, 1))
    obj = sim.world.add_object(ObjectType.TYPE2, 5.0 - 2 * ARENA.robot_radius, 0.1)
    robot = make_robot(0, 5.0, 0.0, heading=0.0, phase=RobotPhase.RETURNING)
    robot.carried = ObjectType.TYPE1
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.heading == edge_follow_heading((5.0, 0.0), (obj.x, obj.y))


def test_returning_robot_contact_separates():
    sim = build_sim(rng=random.Random(9), totals=(0, 0))
    a = make_robot(0, 5.0, 0.0, phase=RobotPhase.RETURNING, heading=math.pi)
    b = make_robot(1, 5.0 - 2 * ARENA.robot_radius, 0.0, phase=RobotPhase.RETURNING)
    sim.world.add_robot(a)
    sim.world.add_robot(b)
    d0 = math.hypot(a.x - b.x, a.y - b.y)
    sim.tick()
    assert math.hypot(a.x - b.x, a.y - b.y) > d0


# -- the step ---------------------------------------------------------------------

T1, T2 = ObjectType.TYPE1, ObjectType.TYPE2
TOUCH = 2 * ARENA.robot_radius  # within contact range of a robot or an object
# A wall contact, far enough from the wall that no step away is clamped.
NEAR_WALL = (ARENA.arena_half_width - ARENA.robot_radius - 0.04, 3.0)


@pytest.mark.parametrize(
    "setup, kind, moves",
    [
        pytest.param({}, ContactKind.NONE, True, id="free-step"),
        pytest.param({"at": NEAR_WALL}, ContactKind.WALL, True, id="wall-bounce"),
        pytest.param({"other": (5.0 + TOUCH, 5.0)}, ContactKind.ROBOT, True, id="robot-bounce"),
        pytest.param(
            {"capability": (0.0, 0.0), "objects": [(T1, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, True, id="failed-pickup",
        ),
        pytest.param(
            {"mode": Mode.MODIFIED, "assignment": T1, "capability": (1.0, 1.0),
             "objects": [(T2, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, True, id="wrong-type-obstacle",
        ),
        pytest.param(
            {"at": (ARENA.nest_radius - 0.05, 0.0)}, ContactKind.NEST, True,
            id="nest-pass-through",
        ),
        pytest.param(
            {"phase": RobotPhase.RETURNING, "carried": T1, "at": (5.0, 0.0)},
            ContactKind.NONE, True, id="return-home",
        ),
        pytest.param(
            {"phase": RobotPhase.RETURNING, "carried": T1, "objects": [(T2, 5.0 - TOUCH, 5.0)]},
            ContactKind.OBJECT, True, id="edge-follow",
        ),
        pytest.param(
            {"capability": (1.0, 1.0), "objects": [(T1, 5.0 + TOUCH, 5.0)]},
            ContactKind.OBJECT, False, id="pickup",
        ),
        pytest.param({"deadline": 0.0}, ContactKind.NONE, False, id="search-timeout"),
        pytest.param(
            {"phase": RobotPhase.RETURNING, "carried": T1, "at": (0.5, 0.0)},
            ContactKind.NONE, False, id="delivery",
        ),
    ],
)
def test_tick_steps_each_moving_robot_once(setup, kind, moves):
    # Robot 0 meets ``kind`` this tick. If it goes on in its phase, it moves
    # one full step along the heading its handler left; a pickup, a timeout
    # or a delivery changes its phase and leaves it where it was.
    objects = setup.get("objects", [])
    totals = [0, 0]
    for obj_type, _, _ in objects + [(setup.get("carried"), 0, 0)]:
        if obj_type is not None:
            totals[obj_type] += 1
    sim = build_sim(rng=random.Random(7), totals=tuple(totals),
                    mode=setup.get("mode", Mode.ORIGINAL))
    for obj_type, x, y in objects:
        sim.world.add_object(obj_type, x, y)
    x0, y0 = setup.get("at", (5.0, 5.0))
    phase = setup.get("phase", RobotPhase.SEARCHING)
    robot = make_robot(
        0, x0, y0, phase=phase, search_deadline=setup.get("deadline", 15.0), heading=0.3,
        capability=setup.get("capability", (0.5, 0.5)),
    )
    robot.carried = setup.get("carried")
    robot.assignment = setup.get("assignment")
    sim.world.add_robot(robot)
    if "other" in setup:
        sim.world.add_robot(make_robot(1, *setup["other"], search_deadline=15.0))
    assert nearest_contact(sim.world, (x0, y0), robot.id).kind is kind
    sim.tick()
    assert (robot.phase is phase) == moves
    if moves:
        step = ARENA.robot_speed * sim.config.tick_duration
        h = robot.heading
        assert (robot.x, robot.y) == (x0 + step * math.cos(h), y0 + step * math.sin(h))
    else:
        assert (robot.x, robot.y) == (x0, y0)


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


def test_run_memory_does_not_grow_with_the_horizon():
    # Set I with 3 robots keeps the traced run near half a second.
    config = replace(set1_config(), robot_count=3, horizon=480.0)
    rng = random.Random(1)
    tracemalloc.start()
    try:
        sim = Simulation(config, _build_world(config, rng), rng)
        while sim.clock.tick_index < sim.config.total_ticks:
            sim.tick()
            if sim.clock.tick_index == 600:
                at_60_s = tracemalloc.get_traced_memory()[0]
        at_480_s = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The world is still alive here. Between 60 and 120 s its object-cell
    # dict doubles its table once (4.6 KiB), and its cell lists keep the
    # spare room they grew; in all 2.6-8.5 KiB on Python 3.10-3.13, flat after
    # 120 s. One float leaked per tick would add about 140 KiB.
    assert at_480_s <= at_60_s + 12 * 1024
