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
    record_trip_outcome,
)
from .arena import (
    TWO_PI,
    Contact,
    ContactKind,
    RobotPhase,
    Vec2,
    World,
    WorldObject,
    away_heading,
    bounce_heading,
    edge_follow_step,
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
    trip_successes: int = 0
    trip_failures: int = 0
    retrieved: list = field(default_factory=lambda: [0, 0])

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)


@dataclass
class SimClock:
    tick_duration: float
    horizon: float
    tick_index: int = 0

    @property
    def now(self) -> float:
        return self.tick_index * self.tick_duration

    @property
    def total_ticks(self) -> int:
        return round(self.horizon / self.tick_duration)


class Simulation:
    """Owns one world, one clock and one random stream for one run of
    ``config``. The allocation rule and its timing come from ``config``;
    geometry comes from ``world.config``."""

    def __init__(self, config, world: World, rng, events: Optional[list] = None):
        self.config = config
        self.world = world
        self.clock = SimClock(config.tick_duration, config.horizon)
        self.rng = rng
        self.events = events
        self._check_every = round(config.leave_check_period / config.tick_duration)
        self._step = world.config.robot_speed * config.tick_duration
        self._limit = world.config.arena_half_width - world.config.robot_radius

    # -- event log -----------------------------------------------------

    def _emit(self, *record) -> None:
        if self.events is not None:
            self.events.append(record)

    def _set_phase(self, robot: Robot, phase: RobotPhase) -> None:
        self._emit("phase", self.clock.tick_index, robot.id, robot.phase.value, phase.value)
        self.world.set_phase(robot, phase)

    # -- movement helpers ----------------------------------------------

    def _advance(self, robot: Robot) -> None:
        step = self._step
        heading = robot.heading
        x = robot.x + step * math.cos(heading)
        y = robot.y + step * math.sin(heading)
        limit = self._limit
        if x > limit:
            x = limit
        elif x < -limit:
            x = -limit
        if y > limit:
            y = limit
        elif y < -limit:
            y = -limit
        self.world.move_robot(robot, x, y)

    def _bounce(self, robot: Robot, contact_point: Vec2) -> None:
        position = robot.position
        robot.heading = bounce_heading(
            robot.heading,
            self.rng,
            separating_test(position, contact_point, self._step),
            away_heading(position, contact_point),
        )

    # -- per-phase behavior ----------------------------------------------

    def try_leave_nest(self, robot: Robot) -> None:
        if self.clock.tick_index % self._check_every != 0:
            return
        if not leave_nest_decision(robot.alloc, self.rng.random()):
            return
        robot.heading = self.rng.random() * TWO_PI
        robot.search_deadline = self.clock.now + self.config.search_timeout
        if self.config.mode is Mode.MODIFIED:
            robot.assignment = assign_task(robot.alloc, self.rng.random())
        self._set_phase(robot, RobotPhase.SEARCHING)
        self._emit("leave", self.clock.tick_index, robot.id,
                   None if robot.assignment is None else int(robot.assignment))

    def searching_step(self, robot: Robot, contact: Contact) -> None:
        """Act on ``contact``, a searching robot's contact this tick; the tick
        itself checks the search deadline and takes the free step when there
        is no contact."""
        kind = contact.kind
        if kind is ContactKind.OBJECT:
            obj = contact.obj
            if self.config.mode is Mode.MODIFIED and obj.obj_type != robot.assignment:
                # Non-assigned types are plain obstacles: no capability draw.
                self._bounce(robot, obj.position)
                self._advance(robot)
            else:
                self.pickup_attempt(robot, obj)
            return
        cfg = self.world.config
        if kind is ContactKind.NEST and math.hypot(robot.x, robot.y) < cfg.nest_radius:
            # Freshly departed robots (still inside the nest) pass outward
            # freely.
            robot.heading += (self.rng.random() * 2.0 - 1.0) * cfg.heading_jitter
        else:
            # Robots and walls repel, and empty-handed robots may not
            # re-enter the nest.
            self._bounce(robot, contact.point)
        self._advance(robot)

    def pickup_attempt(self, robot: Robot, obj: WorldObject) -> None:
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
        else:
            self._bounce(robot, obj.position)
            self._advance(robot)

    def returning_step(self, robot: Robot) -> None:
        cfg = self.world.config
        if math.hypot(robot.x, robot.y) < cfg.nest_radius:
            self._complete_trip(robot)
            return
        contact = nearest_contact(self.world, (robot.x, robot.y), robot.id)
        kind = contact.kind
        if kind is ContactKind.ROBOT:
            # Random separating bounce, re-aim at the origin next tick. An
            # exact heading reversal livelocks head-on pairs that both home
            # on the origin: they retreat and re-meet forever.
            self._bounce(robot, contact.point)
        elif kind is ContactKind.OBJECT:
            direction = edge_follow_step(
                robot.position, Vec2(0.0, 0.0), contact.obj.position
            )
            robot.heading = math.atan2(direction.y, direction.x)
        elif kind is ContactKind.WALL:
            self._bounce(robot, contact.point)
        else:
            # Nest boundary is passable on return; otherwise home in.
            robot.heading = math.atan2(-robot.y, -robot.x)
        self._advance(robot)

    def _complete_trip(self, robot: Robot) -> None:
        delivered = robot.carried is not None
        if delivered:
            obj_type = robot.carried
            robot.retrieved[obj_type] += 1
            spawn_object(self.world, obj_type, self.rng)
            self._emit("deliver", self.clock.tick_index, robot.id, int(obj_type))
            robot.trip_successes += 1
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
        world = self.world
        jitter = world.config.heading_jitter
        random = self.rng.random
        stopping, searching = RobotPhase.STOPPING, RobotPhase.SEARCHING
        no_contact = ContactKind.NONE
        leave, search = self.try_leave_nest, self.searching_step
        home, advance = self.returning_step, self._advance
        for robot in world.robots:
            phase = robot.phase
            if phase is searching:
                if now >= robot.search_deadline:
                    self._set_phase(robot, RobotPhase.RETURNING)
                    continue
                # Looked up at call time, so a wrapper installed on the
                # module sees every query.
                contact = nearest_contact(world, (robot.x, robot.y), robot.id)
                if contact.kind is no_contact:
                    # The free step, which most searching ticks take.
                    robot.heading += (random() * 2.0 - 1.0) * jitter
                    advance(robot)
                else:
                    search(robot, contact)
            elif phase is stopping:
                leave(robot)
            else:
                home(robot)
        clock.tick_index += 1
        world.check_conservation()

    def run(self) -> None:
        while self.clock.tick_index < self.clock.total_ticks:
            self.tick()
