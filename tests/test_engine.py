"""Behavioral state machine tests: leave checks, searching, pickup,
returning, delivery, and the deterministic tick loop."""

import math
import random
from dataclasses import replace

import pytest

from foragesim import (
    ArenaConfig,
    Mode,
    ObjectType,
    Robot,
    SimClock,
    Simulation,
    VdrParams,
    VdrState,
    World,
    initial_allocation,
    run_experiment,
    set1_config,
    vdr_failure,
    vdr_success,
)
from foragesim.arena import ContactKind, edge_follow_heading, nearest_contact
from foragesim.engine import RobotPhase

from conftest import ScriptedRng

LEAVE = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
OBJ = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)

# Kinematics examples below assume the declared interpretation constants:
# speed 1 unit/s, tick 0.1 s, so one step is 0.1 units.
ARENA = ArenaConfig(robot_speed=1.0)


def build_sim(rng=None, totals=(30, 35), events=None, **overrides):
    """A simulation of Set I's rule in the ARENA geometry, with ``overrides``
    replacing config fields, over an empty world holding ``totals``."""
    config = replace(
        set1_config(), arena=ARENA, leave_params=LEAVE, obj_params=(OBJ, OBJ), **overrides
    )
    world = World(config=config.arena, totals=totals)
    return Simulation(config, world, rng if rng is not None else random.Random(0), events)


def make_robot(rid, x, y, heading=0.0, capability=(0.5, 0.5), p1=None):
    alloc = initial_allocation(LEAVE, (OBJ, OBJ))
    if p1 is not None:
        alloc = alloc._replace(leave=VdrState(p1))
    return Robot(id=rid, x=x, y=y, heading=heading, capability=capability, alloc=alloc)


# -- leaving the nest ------------------------------------------------------------


def test_leave_success_sets_deadline():
    sim = build_sim(rng=ScriptedRng([0.01, 0.5]), totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()  # the tick checks every stopping robot's leave draw
    assert robot.phase is RobotPhase.SEARCHING
    assert robot.search_deadline == pytest.approx(15.0)  # Set I search budget
    assert robot.assignment is None


def test_leave_failure_stays_stopped():
    rng = ScriptedRng([0.99])
    sim = build_sim(rng=rng, totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, p1=0.002)
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.STOPPING
    assert rng.calls == 1  # no heading draw on a failed check


def test_leave_modified_assigns_task():
    sim = build_sim(mode=Mode.MODIFIED, rng=ScriptedRng([0.01, 0.5, 0.49]), totals=(0, 0))
    robot = make_robot(0, 0.0, 0.0, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.SEARCHING
    assert robot.assignment is ObjectType.TYPE1  # symmetric P_obj, draw 0.49


def test_leave_check_cadence():
    rng = ScriptedRng([])
    sim = build_sim(rng=rng, totals=(0, 0), leave_check_period=1.0)  # every 10th tick
    sim.clock.tick_index = 5
    robot = make_robot(0, 0.0, 0.0, p1=0.08)
    sim.world.add_robot(robot)
    sim.tick()  # off-cadence tick: no draw at all
    assert robot.phase is RobotPhase.STOPPING
    assert rng.calls == 0


def test_leave_records_follow_check_period():
    config = replace(set1_config(seed=3), horizon=60.0, leave_check_period=1.0)
    events = []
    run_experiment(config, events=events)
    ticks = [record[1] for record in events if record[0] == "leave"]
    assert ticks and all(tick % 10 == 0 for tick in ticks)


# -- searching -------------------------------------------------------------------


def test_searching_jitter_advance():
    # Jitter draw 0.75 maps to +0.05 rad with jitter half-width 0.1.
    sim = build_sim(rng=ScriptedRng([0.75]), totals=(0, 0))
    robot = make_robot(0, 5.0, 5.0, heading=0.0)
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    sim.world.add_robot(robot)
    sim.tick()  # no contact: the tick takes the free step itself
    assert robot.heading == pytest.approx(0.05)
    assert robot.x == pytest.approx(5.0 + 0.1 * math.cos(0.05))
    assert robot.y == pytest.approx(5.0 + 0.1 * math.sin(0.05))


def test_searching_timeout_returns_empty():
    sim = build_sim(rng=ScriptedRng([]), totals=(0, 0))
    robot = make_robot(0, 5.0, 5.0)
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 10.0
    sim.clock.tick_index = 100  # now = 10.0 s, deadline reached
    sim.world.add_robot(robot)
    sim.tick()  # the tick checks the deadline
    assert robot.phase is RobotPhase.RETURNING
    assert robot.carried is None


def test_searching_nest_boundary_bounces_outward():
    sim = build_sim(totals=(0, 0))
    robot = make_robot(0, ARENA.nest_radius + ARENA.robot_radius, 0.0)
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.phase is RobotPhase.SEARCHING
    # Post-bounce heading separates from the nest: positive outward component.
    assert math.cos(robot.heading) > 0.0


def test_searching_inside_nest_passes_outward():
    rng = ScriptedRng([0.5])  # only the jitter draw, no bounce redraws
    sim = build_sim(rng=rng, totals=(0, 0))
    robot = make_robot(0, ARENA.nest_radius - 0.05, 0.0)
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    sim.world.add_robot(robot)
    sim.tick()
    assert rng.calls == 1
    assert robot.heading == pytest.approx(0.0)  # draw 0.5 is zero jitter


# -- pickup ----------------------------------------------------------------------


def place_contact_object(sim, obj_type, robot):
    return sim.world.add_object(obj_type, robot.x + 2 * ARENA.robot_radius, robot.y)


def test_pickup_certain_capability_succeeds():
    sim = build_sim(rng=ScriptedRng([0.999999]), totals=(1, 0))
    robot = make_robot(0, 5.0, 5.0, capability=(1.0, 1.0))
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    sim.world.add_robot(robot)
    obj = place_contact_object(sim, ObjectType.TYPE1, robot)
    sim.tick()
    assert robot.carried is ObjectType.TYPE1
    assert robot.phase is RobotPhase.RETURNING
    assert obj.id not in sim.world.objects
    assert (robot.x, robot.y) == (5.0, 5.0)  # the pickup uses the tick: no step


def test_pickup_zero_capability_bounces():
    sim = build_sim(rng=random.Random(5), totals=(0, 1))
    robot = make_robot(0, 5.0, 5.0, capability=(0.0, 0.0))
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
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
    robot = make_robot(0, 5.0, 5.0, capability=(1.0, 1.0))
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    robot.assignment = ObjectType.TYPE1
    sim.world.add_robot(robot)
    obj = place_contact_object(sim, ObjectType.TYPE2, robot)
    before = robot.alloc
    sim.tick()
    assert robot.carried is None
    assert robot.phase is RobotPhase.SEARCHING
    assert sim.world.objects.get(obj.id) is obj
    assert robot.alloc == before


def test_modified_pickup_updates_per_attempt():
    sim = build_sim(mode=Mode.MODIFIED, rng=random.Random(5), totals=(0, 1))
    robot = make_robot(0, 5.0, 5.0, capability=(0.0, 0.0))
    robot.phase = RobotPhase.SEARCHING
    robot.search_deadline = 15.0
    robot.assignment = ObjectType.TYPE2
    sim.world.add_robot(robot)
    place_contact_object(sim, ObjectType.TYPE2, robot)
    before = robot.alloc
    sim.tick()  # failed attempt
    assert robot.alloc.obj[1] == vdr_failure(before.obj[1], OBJ)
    assert robot.alloc.obj[0] == before.obj[0]
    assert robot.alloc.leave == before.leave


# -- returning --------------------------------------------------------------------


def test_returning_homes_on_origin():
    sim = build_sim(rng=ScriptedRng([]), totals=(0, 0))
    robot = make_robot(0, 5.0, 0.0, heading=0.0)
    robot.phase = RobotPhase.RETURNING
    sim.world.add_robot(robot)
    sim.tick()
    assert abs(robot.heading) == pytest.approx(math.pi)  # -pi and pi coincide
    assert robot.x == pytest.approx(4.9)
    assert robot.y == pytest.approx(0.0)


# A trip moves the leave state only, in both modes.


def test_returning_delivery_updates_and_conserves():
    for mode in Mode:
        events = []
        sim = build_sim(rng=random.Random(3), totals=(1, 1), events=events, mode=mode)
        sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
        robot = make_robot(0, 0.5, 0.0)
        robot.phase = RobotPhase.RETURNING
        robot.carried = ObjectType.TYPE2
        sim.world.add_robot(robot)
        before = robot.alloc
        sim.tick()
        assert robot.phase is RobotPhase.STOPPING
        assert robot.carried is None
        assert robot.retrieved == [0, 1]
        assert sum(robot.retrieved) == 1
        # The replacement spawned.
        assert sum(o.obj_type == ObjectType.TYPE2 for o in sim.world.objects.values()) == 1
        sim.world.check_conservation()
        assert robot.alloc.leave == vdr_success(before.leave, LEAVE), mode
        assert robot.alloc.obj == before.obj, mode
        kinds = [e[0] for e in events]
        assert kinds == ["deliver", "trip", "phase"]


def test_returning_empty_counts_failure():
    for mode in Mode:
        sim = build_sim(rng=random.Random(3), totals=(1, 1), mode=mode)
        sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
        sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
        robot = make_robot(0, 0.5, 0.0)
        robot.phase = RobotPhase.RETURNING
        sim.world.add_robot(robot)
        before = robot.alloc
        sim.tick()
        assert robot.phase is RobotPhase.STOPPING
        assert robot.trip_failures == 1
        assert robot.alloc.leave == vdr_failure(before.leave, LEAVE), mode
        assert robot.alloc.obj == before.obj, mode


def test_returning_edge_follows_object():
    # An object is no obstacle to bounce off on the way home: the robot
    # turns along its edge with no draw.
    sim = build_sim(rng=ScriptedRng([]), totals=(1, 1))
    obj = sim.world.add_object(ObjectType.TYPE2, 5.0 - 2 * ARENA.robot_radius, 0.1)
    robot = make_robot(0, 5.0, 0.0, heading=0.0)
    robot.phase = RobotPhase.RETURNING
    robot.carried = ObjectType.TYPE1
    sim.world.add_robot(robot)
    sim.tick()
    assert robot.heading == edge_follow_heading((5.0, 0.0), (0.0, 0.0), (obj.x, obj.y))


def test_returning_robot_contact_separates():
    sim = build_sim(rng=random.Random(9), totals=(0, 0))
    a = make_robot(0, 5.0, 0.0, heading=math.pi)
    b = make_robot(1, 5.0 - 2 * ARENA.robot_radius, 0.0, heading=0.0)
    a.phase = RobotPhase.RETURNING
    b.phase = RobotPhase.RETURNING
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
    robot = make_robot(0, x0, y0, heading=0.3, capability=setup.get("capability", (0.5, 0.5)))
    robot.phase = phase = setup.get("phase", RobotPhase.SEARCHING)
    robot.search_deadline = setup.get("deadline", 15.0)
    robot.carried = setup.get("carried")
    robot.assignment = setup.get("assignment")
    sim.world.add_robot(robot)
    if "other" in setup:
        other = make_robot(1, *setup["other"])
        other.phase = RobotPhase.SEARCHING
        other.search_deadline = 15.0
        sim.world.add_robot(other)
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
        sim.world.add_robot(make_robot(rid, 0.2 * rid, 0.0))
    snapshot = [(r.x, r.y, r.heading, r.phase, r.alloc) for r in sim.world.robots]
    sim.tick()
    assert sim.clock.tick_index == 1
    assert snapshot == [(r.x, r.y, r.heading, r.phase, r.alloc) for r in sim.world.robots]


def test_tick_count_matches_horizon():
    assert SimClock(tick_duration=0.1, horizon=180.0).total_ticks == 1800
    sim = build_sim(rng=random.Random(1), totals=(1, 1), horizon=180.0)
    sim.world.add_object(ObjectType.TYPE1, 5.0, 5.0)
    sim.world.add_object(ObjectType.TYPE2, -5.0, 5.0)
    sim.world.add_robot(make_robot(0, 0.0, 0.0))
    sim.run()
    assert sim.clock.tick_index == 1800
    with pytest.raises(ValueError):
        sim.tick()


def test_run_determinism_bit_identical():
    config = set1_config(seed=5)
    ev1, ev2 = [], []
    r1 = run_experiment(config, replication=3, events=ev1)
    r2 = run_experiment(config, replication=3, events=ev2)
    assert r1.final_p1 == r2.final_p1
    assert r1.trips == r2.trips
    assert r1.capabilities == r2.capabilities
    assert ev1 == ev2


def test_capability_gate_zero_never_carries():
    events = []
    sim = build_sim(rng=random.Random(2), totals=(2, 2), horizon=60.0, events=events)
    rng = random.Random(2)
    from foragesim.arena import spawn_object

    for t in (ObjectType.TYPE1, ObjectType.TYPE1, ObjectType.TYPE2, ObjectType.TYPE2):
        spawn_object(sim.world, t, rng)
    robot = make_robot(0, 0.0, 0.0, capability=(0.0, 0.0), p1=0.08)
    sim.world.add_robot(robot)
    sim.run()
    assert sum(robot.retrieved) == 0
    assert robot.retrieved == [0, 0]
    assert not any(e[0] == "pickup" for e in events)
    assert robot.trip_failures > 0  # it did go out and time out


def test_full_run_phase_audit():
    config = set1_config(seed=3)
    events = []
    run_experiment(config, replication=0, events=events)
    legal = {("stopping", "searching"), ("searching", "returning"), ("returning", "stopping")}
    entered = {}
    for record in events:
        if record[0] != "phase":
            continue
        _, tick, rid, old, new = record
        assert (old, new) in legal
        if new == "searching":
            entered[rid] = tick
        elif old == "searching":
            # Timeout bound: searching lasts at most timeout plus one tick.
            slack_ticks = round(config.search_timeout / config.tick_duration) + 1
            assert tick - entered.pop(rid) <= slack_ticks


def test_trip_accounting_matches_departures():
    config = set1_config(seed=4)
    events = []
    result = run_experiment(config, replication=1, events=events)
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
