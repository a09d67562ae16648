"""World geometry: square arena, central circular nest, circular robots and
objects, contact classification, bounce and edge-follow maneuvers, and
object spawning with the constant-population replacement rule.

Contact and spawn queries read the two cell grids ``World`` holds, one of
free objects and one of collidable robots, which only its methods update."""

from __future__ import annotations

import enum
import math
import reprlib
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional

from .allocation import ObjectType, check_number

TWO_PI = 2.0 * math.pi

SPAWN_ATTEMPT_CAP = 10_000
BOUNCE_REDRAW_CAP = 100


class SpawnError(RuntimeError):
    """Rejection sampling could not place an object (arena over-packed)."""


class SimulationInvariantError(AssertionError):
    """A world invariant broke mid-run; indicates a simulator bug."""


@dataclass(frozen=True)
class ArenaConfig:
    """Geometry and kinematics constants. The source material fixes none of
    these, so they are declared here and surfaced through the config file."""

    arena_half_width: float = 10.0
    nest_radius: float = 2.0
    robot_radius: float = 0.15
    object_radius: float = 0.15
    robot_speed: float = 1.0
    contact_margin: float = 0.05
    heading_jitter: float = 0.1  # half-width of uniform per-tick perturbation, rad

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = check_number(spec.name, getattr(self, spec.name))
            object.__setattr__(self, spec.name, value)  # frozen
            if value <= 0.0 and spec.name != "heading_jitter":
                raise ValueError(f"{spec.name} must be strictly positive")
        # At most half a turn a tick; near 1e308 it sums the unwrapped heading to inf.
        jitter = self.heading_jitter
        if not 0.0 <= jitter <= math.pi:
            raise ValueError(f"heading_jitter must be in [0, pi], got {reprlib.repr(jitter)}")
        if self.nest_radius <= self.robot_radius:
            raise ValueError(
                "nest_radius must be > robot_radius so robots fit in the nest"
            )
        if self.nest_radius + 2.0 * self.object_radius >= self.arena_half_width:
            raise ValueError(
                "nest_radius + 2*object_radius must be < arena_half_width "
                "so objects can spawn outside the nest"
            )
        # ExperimentConfig's packing check squares the arena's width.
        hw = self.arena_half_width
        if (2.0 * hw) * (2.0 * hw) == math.inf:
            echo = reprlib.repr(hw)  # an int of hundreds of digits would show them all
            raise ValueError(f"arena_half_width {echo} is too wide: its area overflows a float")
        # The contact grids count the arena's width in cells.
        if not math.isfinite(hw / self.cell_side()):
            raise ValueError(
                "robot_radius, object_radius and contact_margin are too small for "
                "arena_half_width: its width in grid cells overflows"
            )

    def robot_contact(self) -> float:
        """Center distance below which a robot touches another robot."""
        return 2.0 * self.robot_radius + self.contact_margin

    def object_contact(self) -> float:
        """Center distance below which a robot touches an object."""
        return self.robot_radius + self.object_radius + self.contact_margin

    def cell_side(self) -> float:
        """Side of the contact grids' cells: twice the largest contact or
        separation threshold, padded so float rounding in a cell key cannot
        leave a contact out of the 2x2 block."""
        return 2.000002 * max(
            self.robot_contact(), self.object_contact(), 2.0 * self.object_radius
        )


@dataclass(eq=False)  # compared by identity: ids are unique
class WorldObject:
    id: int
    obj_type: ObjectType
    x: float
    y: float


class RobotPhase(enum.Enum):
    SEARCHING = "searching"
    RETURNING = "returning"
    STOPPING = "stopping"  # parked in the nest, out of collision checks


class ContactKind(enum.Enum):
    NONE = "none"
    ROBOT = "robot"
    WALL = "wall"
    NEST = "nest"
    OBJECT = "object"


class Contact(NamedTuple):
    kind: ContactKind
    # Reference point of the contact, used to compute away-vectors: the
    # ``(x, y)`` of the other robot's or the object's center, the nearest
    # wall point or the nearest point on the nest circle.
    point: Optional[tuple[float, float]] = None
    obj: Optional[WorldObject] = None


NO_CONTACT = Contact(ContactKind.NONE)


def _join(cells: dict, item, key: int, offsets: tuple) -> None:
    """File ``item``, lying in the cell ``key``, under the cells at ``offsets``."""
    for offset in offsets:
        cell = cells.get(key + offset)
        if cell is None:
            cells[key + offset] = [item]
        else:
            cell.append(item)


def _leave(cells: dict, item, key: int, offsets: tuple) -> None:
    """Unfile ``item``, lying in the cell ``key``, from the cells at ``offsets``."""
    for offset in offsets:
        # Items compare by identity (``eq=False``), so the search past
        # the items ahead of ``item`` runs no Python ``__eq__``.
        cell = cells[key + offset]
        cell.remove(item)
        if not cell:
            del cells[key + offset]


class World:
    """Arena state. Objects and robots enter and change only through the
    methods below, which keep the two contact grids in step with them.

    The grids are uniform square cells of side ``side`` (the cell-list
    method): ``object_cells`` files the free objects, ``robot_cells`` the
    robots not STOPPING. Every item closer than ``side / 2`` to a point lies
    in the 2x2 block of cells around it. A block is addressed by its
    lower-left cell, whose key ``block_key`` gives. Each item is filed under
    the four cells whose block holds its own cell: that cell and the ones
    below, to the left, and below-left of it (``filed_at``). The lower-left
    cell of a point's block then holds every item near the point, so a query
    reads one cell, and adding or removing an item touches four.

    Cell ``(floor(x / side), floor(y / side))`` has the single int key
    ``i * stride + j``, unique for every cell within two cells of the arena.
    Each grid maps the key of each cell that holds items to the list of
    them, so its size follows its items, not the arena's area. A robot
    carries its own cell's key in ``robot.cell``, ``None`` while STOPPING;
    an object's key follows from its fixed ``x``/``y``.

    A robot moving to a neighbouring cell keeps the cells its old and new
    blocks share, so it is unfiled from and filed under only the others
    (``steps``): 2 for a move along an axis, 3 for a diagonal one. Its place
    in the lists it leaves and joins changes; queries read a cell in no
    particular order.
    """

    def __init__(self, config: ArenaConfig, totals: tuple[int, int]) -> None:
        self.config = cfg = config
        self.totals = totals
        self.objects: dict = {}  # id -> free WorldObject
        self.robots: list = []  # engine.Robot instances
        self._next_object_id = 0
        # Contact thresholds, computed once for the contact query.
        rr = cfg.robot_contact()
        ro = cfg.object_contact()
        self.robot_contact_sq = rr * rr
        self.object_contact_sq = ro * ro
        self.edge_contact = cfg.robot_radius + cfg.contact_margin
        # One geometry for both grids, so one key addresses both.
        side = cfg.cell_side()
        stride = 2 * math.ceil(cfg.arena_half_width / side) + 5
        filed_at = (0, -1, -stride, -stride - 1)
        self.side = side
        self.stride = stride
        self.filed_at = filed_at
        # Key change of a move to a neighbouring cell -> the offsets, from
        # the old key, of the cells to leave, and, from the new key, of the
        # cells to join.
        self.steps = {
            di * stride + dj: (
                tuple(o for o in filed_at if o - di * stride - dj not in filed_at),
                tuple(o for o in filed_at if o + di * stride + dj not in filed_at),
            )
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if di or dj
        }
        self.object_cells: dict = {}
        self.robot_cells: dict = {}

    def cell_key(self, x: float, y: float) -> int:
        """Key of the cell that holds the point."""
        return math.floor(x / self.side) * self.stride + math.floor(y / self.side)

    def block_key(self, x: float, y: float) -> int:
        """Key of the lower-left cell of the 2x2 block around the point."""
        side = self.side
        return math.floor(x / side - 0.5) * self.stride + math.floor(y / side - 0.5)

    def check_conservation(self) -> None:
        """Recount every free and carried object against the totals."""
        # Counts TYPE2 by identity and TYPE1 as the rest: an ``IntEnum``
        # subscript would miss the interpreter's fast list index path.
        type2 = ObjectType.TYPE2
        objects = self.objects
        n2 = 0
        for o in objects.values():
            if o.obj_type is type2:
                n2 += 1
        carried = 0
        for r in self.robots:
            c = r.carried
            if c is not None:
                carried += 1
                if c is type2:
                    n2 += 1
        have = (len(objects) + carried - n2, n2)
        for t, count in enumerate(have):
            if count != self.totals[t]:
                raise SimulationInvariantError(
                    f"object conservation broken for {ObjectType(t).name}: "
                    f"free+carried={count}, expected {self.totals[t]}"
                )

    def add_object(self, obj_type: ObjectType, x: float, y: float) -> WorldObject:
        """Add a free object with the next id."""
        obj = WorldObject(self._next_object_id, obj_type, x, y)
        self._next_object_id += 1
        self.objects[obj.id] = obj
        _join(self.object_cells, obj, self.cell_key(x, y), self.filed_at)
        return obj

    def remove_object(self, obj: WorldObject) -> None:
        """Remove a free object; ``ValueError`` if it is not in the world."""
        if self.objects.get(obj.id) is not obj:
            raise ValueError(f"object {obj.id} is not in the world")
        del self.objects[obj.id]
        _leave(self.object_cells, obj, self.cell_key(obj.x, obj.y), self.filed_at)

    def add_robot(self, robot) -> None:
        self.robots.append(robot)
        self.set_phase(robot, robot.phase)

    def move_robot(self, robot, x: float, y: float) -> None:
        robot.x = x
        robot.y = y
        old = robot.cell
        if old is not None:  # STOPPING robots stay out of the grid
            side = self.side
            key = math.floor(x / side) * self.stride + math.floor(y / side)
            if key != old:
                # A jump past the neighbouring cells leaves and joins all four.
                leave, join = self.steps.get(key - old, (self.filed_at, self.filed_at))
                cells = self.robot_cells
                _leave(cells, robot, old, leave)
                _join(cells, robot, key, join)
                robot.cell = key

    def set_phase(self, robot, phase: RobotPhase) -> None:
        robot.phase = phase
        if phase is RobotPhase.STOPPING:
            if robot.cell is not None:
                _leave(self.robot_cells, robot, robot.cell, self.filed_at)
                robot.cell = None
        elif robot.cell is None:
            robot.cell = self.cell_key(robot.x, robot.y)
            _join(self.robot_cells, robot, robot.cell, self.filed_at)


def spawn_object(world: World, obj_type: ObjectType, rng) -> WorldObject:
    """Place one object uniformly at random, rejecting positions inside the
    nest (plus margin), too close to a wall, or overlapping a free object."""
    cfg = world.config
    lo = -cfg.arena_half_width + cfg.object_radius
    hi = cfg.arena_half_width - cfg.object_radius
    span = hi - lo
    nest_keepout = cfg.nest_radius + cfg.object_radius + cfg.contact_margin
    min_sep = 2.0 * cfg.object_radius
    min_sep_sq = min_sep * min_sep
    cells = world.object_cells

    for _ in range(SPAWN_ATTEMPT_CAP):
        x = lo + rng.random() * span
        y = lo + rng.random() * span
        if x * x + y * y <= nest_keepout * nest_keepout:
            continue
        near = cells.get(world.block_key(x, y))
        if near and any(
            (o.x - x) * (o.x - x) + (o.y - y) * (o.y - y) < min_sep_sq for o in near
        ):
            continue
        return world.add_object(obj_type, x, y)
    raise SpawnError(
        f"could not place a {obj_type.name} object after {SPAWN_ATTEMPT_CAP} attempts"
    )


def nearest_contact(
    world: World,
    position: tuple[float, float],
    ignore_robot_id: Optional[int] = None,
) -> Contact:
    """Classify the highest-priority contact at ``position``, an ``(x, y)``
    pair, for a robot of the configured radius.

    Priority when several thresholds are crossed at once:
    robot > wall > nest boundary > object. Robots parked in the nest
    (Stopping phase) are ignored; they sit out of the way. Among robots or
    objects the nearest wins, and an exact tie goes to the lower id.
    """
    x, y = position
    side = world.side
    # world.block_key(x, y), inline: this runs for every moving robot each tick.
    key = math.floor(x / side - 0.5) * world.stride + math.floor(y / side - 0.5)

    # Robot-robot: center distance below sum of radii plus margin. Robots,
    # like objects, are filed so that this one cell holds every near one.
    near = world.robot_cells.get(key)
    if near:
        best_robot = None
        best_d2 = world.robot_contact_sq
        for other in near:
            if other.id == ignore_robot_id:
                continue
            dx = other.x - x
            dy = other.y - y
            d2 = dx * dx + dy * dy
            if d2 < best_d2 or (
                d2 == best_d2 and best_robot is not None and other.id < best_robot.id
            ):
                best_d2 = d2
                best_robot = other
        if best_robot is not None:
            return Contact(ContactKind.ROBOT, (best_robot.x, best_robot.y))

    # Wall: distance to the nearest side below robot radius plus margin.
    cfg = world.config
    edge = world.edge_contact
    hw = cfg.arena_half_width
    ax = abs(x)
    ay = abs(y)
    if hw - (ax if ax >= ay else ay) < edge:
        if ax >= ay:
            wall_point = (math.copysign(hw, x), y)
        else:
            wall_point = (x, math.copysign(hw, y))
        return Contact(ContactKind.WALL, wall_point)

    # Nest boundary: radial distance from the circle below radius plus margin.
    r = math.hypot(x, y)
    if abs(r - cfg.nest_radius) < edge:
        if r > 0.0:
            ring = (x / r * cfg.nest_radius, y / r * cfg.nest_radius)
        else:
            ring = (cfg.nest_radius, 0.0)
        return Contact(ContactKind.NEST, ring)

    # Free objects: nearest one within threshold, all filed in this one cell.
    near = world.object_cells.get(key)
    if not near:
        return NO_CONTACT
    best_obj = None
    best_d2 = world.object_contact_sq
    for obj in near:
        dx = obj.x - x
        dy = obj.y - y
        d2 = dx * dx + dy * dy
        if d2 < best_d2 or (
            d2 == best_d2 and best_obj is not None and obj.id < best_obj.id
        ):
            best_d2 = d2
            best_obj = obj
    if best_obj is not None:
        return Contact(ContactKind.OBJECT, (best_obj.x, best_obj.y), obj=best_obj)
    return NO_CONTACT


def bounce_heading(
    current_heading: float,
    rng,
    clearance_test: Callable[[float], bool],
    fallback_heading: float,
) -> float:
    """Redraw a uniform random heading until it clears the contact, falling
    back to the exact away-vector heading after ``BOUNCE_REDRAW_CAP`` attempts."""
    for _ in range(BOUNCE_REDRAW_CAP):
        h = rng.random() * TWO_PI
        if clearance_test(h):
            return h
    return fallback_heading


def separating_test(dx0: float, dy0: float, step: float) -> Callable[[float], bool]:
    """Predicate accepting headings whose one-tick step strictly increases
    the distance to a contact point, from a position offset ``(dx0, dy0)``
    from it."""
    d0_sq = dx0 * dx0 + dy0 * dy0

    def test(h: float) -> bool:
        dx = dx0 + step * math.cos(h)
        dy = dy0 + step * math.sin(h)
        return dx * dx + dy * dy > d0_sq

    return test


def edge_follow_heading(robot_position, obstacle_center) -> float:
    """Heading tangent to the obstacle, choosing the tangent direction
    closer to the direction of the nest center, the origin. Both points are
    ``(x, y)`` pairs. Discrete tangent steps move along a chord and
    therefore never reduce the distance to the obstacle center."""
    x, y = robot_position
    vx = x - obstacle_center[0]
    vy = y - obstacle_center[1]
    norm = math.hypot(vx, vy)
    # 0.0 - x, not -x: at x = 0.0 it is +0.0, where -0.0 would turn atan2 by pi.
    gx, gy = 0.0 - x, 0.0 - y
    if norm == 0.0:
        # Degenerate overlap; flee toward the nest center.
        gn = math.hypot(gx, gy) or 1.0
        return math.atan2(gy / gn, gx / gn)
    # A unit tangent, perpendicular to the obstacle-to-robot vector. The
    # other is its exact negation, and so is its dot product with the goal.
    tx, ty = -vy / norm, vx / norm
    if tx * gx + ty * gy >= 0.0:
        return math.atan2(ty, tx)
    return math.atan2(-ty, -tx)
