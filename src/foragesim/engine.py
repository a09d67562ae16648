"""Per-robot behavioral state machine (searching / returning / stopping)
and the deterministic global tick loop.

All randomness for one run flows through a single ``random.Random`` stream,
consumed in ascending robot-id order within each tick, so a fixed seed and
config reproduce a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .allocation import (
    Mode,
    ObjectType,
    VdrState,
    assign_task,
    leave_nest_decision,
    record_leave_outcome,
    record_pickup_event,
)
# The same rule under a second name, which ORIGINAL mode calls: the benchmark
# tracer counts ORIGINAL's trip updates by rebinding this name.
from .allocation import record_leave_outcome as record_trip_outcome
from .arena import (
    TWO_PI,
    ContactKind,
    RobotPhase,
    World,
    WorldObject,
    bounce_heading,
    edge_follow_heading,
    nearest_contact,
    separating_test,
    spawn_object,
)


@dataclass(slots=True, eq=False)  # compared by identity: ids are unique
class Robot:
    id: int
    x: float
    y: float
    heading: float
    capability: tuple[float, float]  # mechanical pickup probability per type
    leave: VdrState
    pickup: tuple[VdrState, VdrState]
    phase: RobotPhase = RobotPhase.STOPPING
    carried: Optional[ObjectType] = None
    search_deadline: float = 0.0
    assignment: Optional[ObjectType] = None
    trip_failures: int = 0
    retrieved: list = field(default_factory=lambda: [0, 0])
    cell: Optional[int] = None  # key of its contact-grid cell; None while STOPPING


@dataclass
class SimClock:
    tick_index: int = 0  # ticks run so far; their count and length are the config's


# Receives each event record, a tuple such as ("pickup", tick, robot id,
# object type), as the run makes it.
EventSink = Callable[[tuple], None]


def discard(record: tuple) -> None:
    """The default sink: a run without an event log drops each record."""


class Simulation:
    """Owns one world, one clock and one random stream for one run of
    ``config``. The allocation rule and its timing come from ``config``;
    geometry comes from ``world.config``."""

    def __init__(self, config, world: World, rng, emit: EventSink = discard):
        self.config = config
        self.world = world
        self.clock = SimClock()
        self.rng = rng
        self.emit = emit
        self._step = world.config.robot_speed * config.tick_duration
        self._limit = world.config.arena_half_width - world.config.robot_radius

    def _set_phase(self, robot: Robot, phase: RobotPhase) -> None:
        self.emit(("phase", self.clock.tick_index, robot.id, robot.phase.value, phase.value))
        self.world.set_phase(robot, phase)

    # -- behavior ----------------------------------------------------------
    #
    # The helpers below only turn a robot or change its phase; the tick
    # states each phase's response to each contact kind and takes the step.

    def _bounce(self, robot: Robot, contact_point) -> None:
        cx, cy = contact_point
        dx = robot.x - cx
        dy = robot.y - cy
        robot.heading = bounce_heading(
            robot.heading,
            self.rng,
            separating_test(dx, dy, self._step),
            math.atan2(dy, dx),  # straight away from the contact
        )

    def _depart(self, robot: Robot, now: float) -> None:
        """Send a robot that decided at time ``now`` to leave the nest out
        searching."""
        robot.heading = self.rng.random() * TWO_PI
        config = self.config
        robot.search_deadline = now + config.search_timeout
        if config.mode is Mode.MODIFIED:
            robot.assignment = assign_task(robot.pickup, self.rng.random())
        self._set_phase(robot, RobotPhase.SEARCHING)
        self.emit(("leave", self.clock.tick_index, robot.id,
                   None if robot.assignment is None else int(robot.assignment)))

    def pickup_attempt(self, robot: Robot, obj: WorldObject) -> bool:
        """Try to pick ``obj`` up; ``True`` if the robot now carries it."""
        success = self.rng.random() < robot.capability[obj.obj_type]
        if self.config.mode is Mode.MODIFIED:
            # Pickup probabilities track individual attempts, not whole
            # trips; this is what couples them to mechanical capability.
            robot.pickup = record_pickup_event(
                robot.pickup, obj.obj_type, success, self.config.obj_params
            )
        if success:
            self.world.remove_object(obj)
            robot.carried = obj.obj_type
            self.emit(("pickup", self.clock.tick_index, robot.id, int(obj.obj_type)))
            self._set_phase(robot, RobotPhase.RETURNING)
        return success

    def _complete_trip(self, robot: Robot) -> None:
        delivered = robot.carried is not None
        if delivered:
            obj_type = robot.carried
            robot.retrieved[obj_type] += 1
            spawn_object(self.world, obj_type, self.rng)
            self.emit(("deliver", self.clock.tick_index, robot.id, int(obj_type)))
        else:
            robot.trip_failures += 1
        # Both names are looked up at call time, so module wrappers see them.
        modified = self.config.mode is Mode.MODIFIED
        update = record_leave_outcome if modified else record_trip_outcome
        robot.leave = update(robot.leave, delivered, self.config.leave_params)
        self.emit(("trip", self.clock.tick_index, robot.id, delivered, robot.leave.p))
        robot.carried = None
        robot.assignment = None
        self._set_phase(robot, RobotPhase.STOPPING)

    # -- driver ----------------------------------------------------------

    def tick(self) -> None:
        config = self.config
        clock = self.clock
        now = clock.tick_index * config.tick_duration
        check = clock.tick_index % config.leave_check_ticks == 0
        world = self.world
        move = world.move_robot
        jitter = world.config.heading_jitter
        nest_radius = world.config.nest_radius
        step, limit = self._step, self._limit
        random = self.rng.random
        cos, sin, hypot = math.cos, math.sin, math.hypot
        stopping, searching = RobotPhase.STOPPING, RobotPhase.SEARCHING
        no_contact, nest = ContactKind.NONE, ContactKind.NEST
        modified = config.mode is Mode.MODIFIED
        # Looked up once a tick, so a wrapper installed on the module sees
        # every call.
        query, leaves = nearest_contact, leave_nest_decision
        for robot in world.robots:
            phase = robot.phase
            if phase is stopping:
                if check and leaves(robot.leave, random()):
                    self._depart(robot, now)
                continue
            x = robot.x
            y = robot.y
            if phase is searching:
                if now >= robot.search_deadline:
                    self._set_phase(robot, RobotPhase.RETURNING)
                    continue
                contact = query(world, (x, y), robot.id)
                kind = contact.kind
                if kind is no_contact or (kind is nest and hypot(x, y) < nest_radius):
                    # The free step, which most searching ticks take. Freshly
                    # departed robots, still inside the nest, pass outward
                    # freely.
                    robot.heading += (random() * 2.0 - 1.0) * jitter
                elif (
                    kind is ContactKind.OBJECT
                    # In MODIFIED mode a non-assigned type is a plain
                    # obstacle: no capability draw.
                    and (not modified or contact.obj.obj_type == robot.assignment)
                    and self.pickup_attempt(robot, contact.obj)
                ):
                    continue
                else:
                    # Robots, walls and objects left in place repel, and
                    # empty-handed robots may not re-enter the nest.
                    self._bounce(robot, contact.point)
            else:
                if hypot(x, y) < nest_radius:
                    self._complete_trip(robot)
                    continue
                contact = query(world, (x, y), robot.id)
                kind = contact.kind
                if kind is ContactKind.ROBOT or kind is ContactKind.WALL:
                    # Random separating bounce, re-aim at the origin next
                    # tick. An exact heading reversal livelocks head-on pairs
                    # that both home on the origin: they retreat and re-meet
                    # forever.
                    self._bounce(robot, contact.point)
                elif kind is ContactKind.OBJECT:
                    robot.heading = edge_follow_heading((x, y), contact.point)
                else:
                    # The nest boundary is passable on return; home in.
                    robot.heading = math.atan2(-y, -x)
            # Every moving robot's one step, along the heading set above.
            heading = robot.heading
            x += step * cos(heading)
            y += step * sin(heading)
            if x > limit:
                x = limit
            elif x < -limit:
                x = -limit
            if y > limit:
                y = limit
            elif y < -limit:
                y = -limit
            move(robot, x, y)
        clock.tick_index += 1
        world.check_conservation()

    def run(self) -> None:
        while self.clock.tick_index < self.config.total_ticks:
            self.tick()
