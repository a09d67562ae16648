"""Per-robot behavioral state machine (searching / returning / stopping)
and the deterministic global tick loop.

All randomness for one run flows through a single ``random.Random`` stream,
consumed in ascending robot-id order within each tick, so a fixed seed and
config reproduce a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .allocation import (
    AllocationState,
    Mode,
    ObjectType,
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
    away_heading,
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
    alloc: AllocationState
    phase: RobotPhase = RobotPhase.STOPPING
    carried: Optional[ObjectType] = None
    search_deadline: float = 0.0
    assignment: Optional[ObjectType] = None
    trip_failures: int = 0
    retrieved: list = field(default_factory=lambda: [0, 0])
    cell: Optional[int] = None  # key of its contact-grid cell; None while STOPPING


# 10**7 ticks of 0.1 s cover 11.6 days, a run that would take weeks.
MAX_TICKS = 10**7


def whole_ticks(name: str, seconds: float, tick_duration: float) -> int:
    """``seconds`` as a count of ``tick_duration`` ticks; ``ValueError``
    unless it is a whole count of at most ``MAX_TICKS``."""
    ticks = seconds / tick_duration
    if ticks > MAX_TICKS:  # first, so an infinite count gets this message too
        raise ValueError(f"{name} is {ticks:.3g} ticks; the tick count is capped at {MAX_TICKS}")
    # The clock counts whole ticks, so it would round any other length, and
    # a positive whole number of ticks is at least one. The tolerance
    # admits quotients like 6.0 / 0.1 == 59.99999999999999.
    count = round(ticks)
    if abs(ticks - count) > 1e-9 * ticks:
        raise ValueError(f"{name} must be a whole number of {tick_duration} s ticks")
    return count


@dataclass
class SimClock:
    tick_duration: float
    horizon: float
    tick_index: int = 0
    total_ticks: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_ticks = whole_ticks("horizon", self.horizon, self.tick_duration)

    @property
    def now(self) -> float:
        return self.tick_index * self.tick_duration


class Simulation:
    """Owns one world, one clock and one random stream for one run of
    ``config``. The allocation rule and its timing come from ``config``;
    geometry comes from ``world.config``."""

    def __init__(self, config, world: World, rng, events: Optional[list] = None):
        self.config = config
        self.world = world
        tick = config.tick_duration
        self.clock = SimClock(tick, config.horizon)
        self.rng = rng
        self.events = events
        self._check_every = whole_ticks("leave_check_period", config.leave_check_period, tick)
        self._step = world.config.robot_speed * tick
        self._limit = world.config.arena_half_width - world.config.robot_radius

    # -- event log -----------------------------------------------------

    def _emit(self, *record) -> None:
        if self.events is not None:
            self.events.append(record)

    def _set_phase(self, robot: Robot, phase: RobotPhase) -> None:
        self._emit("phase", self.clock.tick_index, robot.id, robot.phase.value, phase.value)
        self.world.set_phase(robot, phase)

    # -- behavior ----------------------------------------------------------
    #
    # The helpers below only turn a robot or change its phase; the tick
    # states each phase's response to each contact kind and takes the step.

    def _bounce(self, robot: Robot, contact_point) -> None:
        position = (robot.x, robot.y)
        robot.heading = bounce_heading(
            robot.heading,
            self.rng,
            separating_test(position, contact_point, self._step),
            away_heading(position, contact_point),
        )

    def _depart(self, robot: Robot) -> None:
        """Send a robot that decided to leave the nest out searching."""
        robot.heading = self.rng.random() * TWO_PI
        robot.search_deadline = self.clock.now + self.config.search_timeout
        if self.config.mode is Mode.MODIFIED:
            robot.assignment = assign_task(robot.alloc, self.rng.random())
        self._set_phase(robot, RobotPhase.SEARCHING)
        self._emit("leave", self.clock.tick_index, robot.id,
                   None if robot.assignment is None else int(robot.assignment))

    def pickup_attempt(self, robot: Robot, obj: WorldObject) -> bool:
        """Try to pick ``obj`` up; ``True`` if the robot now carries it."""
        success = self.rng.random() < robot.capability[obj.obj_type]
        if self.config.mode is Mode.MODIFIED:
            # Pickup probabilities track individual attempts, not whole
            # trips; this is what couples them to mechanical capability.
            robot.alloc = record_pickup_event(
                robot.alloc, obj.obj_type, success, self.config.obj_params
            )
        if success:
            self.world.remove_object(obj)
            robot.carried = obj.obj_type
            self._emit("pickup", self.clock.tick_index, robot.id, int(obj.obj_type))
            self._set_phase(robot, RobotPhase.RETURNING)
        return success

    def _complete_trip(self, robot: Robot) -> None:
        delivered = robot.carried is not None
        if delivered:
            obj_type = robot.carried
            robot.retrieved[obj_type] += 1
            spawn_object(self.world, obj_type, self.rng)
            self._emit("deliver", self.clock.tick_index, robot.id, int(obj_type))
        else:
            robot.trip_failures += 1
        # Both names are looked up at call time, so module wrappers see them.
        modified = self.config.mode is Mode.MODIFIED
        update = record_leave_outcome if modified else record_trip_outcome
        robot.alloc = update(robot.alloc, delivered, self.config.leave_params)
        self._emit(
            "trip", self.clock.tick_index, robot.id, delivered, robot.alloc.leave.p
        )
        robot.carried = None
        robot.assignment = None
        self._set_phase(robot, RobotPhase.STOPPING)

    # -- driver ----------------------------------------------------------

    def tick(self) -> None:
        clock = self.clock
        if clock.tick_index >= clock.total_ticks:
            raise ValueError("clock is past the horizon")
        now = clock.now
        check = clock.tick_index % self._check_every == 0
        world = self.world
        move = world.move_robot
        jitter = world.config.heading_jitter
        nest_radius = world.config.nest_radius
        step, limit = self._step, self._limit
        random = self.rng.random
        cos, sin, hypot = math.cos, math.sin, math.hypot
        stopping, searching = RobotPhase.STOPPING, RobotPhase.SEARCHING
        no_contact, nest = ContactKind.NONE, ContactKind.NEST
        modified = self.config.mode is Mode.MODIFIED
        # Looked up once a tick, so a wrapper installed on the module sees
        # every call.
        query, leaves = nearest_contact, leave_nest_decision
        for robot in world.robots:
            phase = robot.phase
            if phase is stopping:
                if check and leaves(robot.alloc, random()):
                    self._depart(robot)
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
                    robot.heading = edge_follow_heading((x, y), (0.0, 0.0), contact.point)
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
        while self.clock.tick_index < self.clock.total_ticks:
            self.tick()
