"""Geometry tests: spawning, contact classification, bounce, edge follow."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import ArenaConfig, Robot, Simulation, Vec2, World, WorldObject
from foragesim.allocation import ObjectType, VdrParams, initial_allocation
from foragesim.arena import (
    MAX_GRID_CELLS,
    SPAWN_ATTEMPT_CAP,
    Contact,
    ContactKind,
    SimulationInvariantError,
    SpawnError,
    away_heading,
    bounce_heading,
    edge_follow_step,
    nearest_contact,
    separating_test,
    spawn_object,
)
from foragesim.engine import RobotPhase
from foragesim.experiment import _build_world, set2_config

from conftest import ScriptedRng

CFG = ArenaConfig()  # declared defaults: hw=10, nest=2, radii 0.15, margin 0.05


def make_world(config=CFG, totals=(30, 35)):
    return World(config=config, totals=totals)


def make_robot(rid, x, y, phase=RobotPhase.SEARCHING):
    params = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
    obj = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)
    return Robot(
        id=rid,
        x=x,
        y=y,
        heading=0.0,
        capability=(0.5, 0.5),
        alloc=initial_allocation(params, (obj, obj)),
        phase=phase,
    )


# -- config validation ---------------------------------------------------------


def test_config_rejects_nest_filling_arena():
    with pytest.raises(ValueError):
        ArenaConfig(arena_half_width=2.0, nest_radius=2.0)


def test_config_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        ArenaConfig(robot_radius=0.0)
    with pytest.raises(ValueError):
        ArenaConfig(robot_speed=-1.0)


def test_config_rejects_arena_wider_than_grid_cap():
    # Only a World allocates the grids, so building these configs is cheap.
    ArenaConfig(arena_half_width=0.99 * MAX_GRID_CELLS * CFG.cell_side())
    with pytest.raises(ValueError, match="grid cells"):
        ArenaConfig(arena_half_width=1000.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["arena_half_width", "robot_radius", "heading_jitter"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ArenaConfig(**{name: value})


# -- spawning -------------------------------------------------------------------


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spawn_constraints(seed):
    world = make_world()
    obj = spawn_object(world, ObjectType.TYPE1, random.Random(seed))
    r = math.hypot(*obj.position)
    assert r > CFG.nest_radius + CFG.object_radius
    assert abs(obj.position.x) <= CFG.arena_half_width - CFG.object_radius
    assert abs(obj.position.y) <= CFG.arena_half_width - CFG.object_radius


def test_spawn_packed_arena_pairwise_separation():
    world = make_world(totals=(65, 65))
    rng = random.Random(7)
    for i in range(64):
        spawn_object(world, ObjectType(i % 2), rng)
    spawn_object(world, ObjectType.TYPE2, rng)
    # Brute-force pairwise distance check over all 65 objects.
    positions = [o.position for o in world.objects]
    min_sep = min(
        math.hypot(a.x - b.x, a.y - b.y)
        for i, a in enumerate(positions)
        for b in positions[i + 1 :]
    )
    assert min_sep >= 2.0 * CFG.object_radius


def test_spawn_overpacked_arena_errors():
    # Nest nearly fills a tiny arena; packing objects into the leftover
    # corners must hit the attempt cap after a handful of placements.
    cfg = ArenaConfig(
        arena_half_width=1.0, nest_radius=0.45, object_radius=0.2, robot_radius=0.1
    )
    world = make_world(config=cfg, totals=(200, 1))
    rng = random.Random(0)
    with pytest.raises(SpawnError):
        for _ in range(200):
            spawn_object(world, ObjectType.TYPE1, rng)


def test_spawn_assigns_unique_ids():
    world = make_world()
    rng = random.Random(3)
    ids = [spawn_object(world, ObjectType.TYPE1, rng).id for _ in range(10)]
    assert len(set(ids)) == 10


# -- contact classification -----------------------------------------------------


def test_contact_robot_within_threshold():
    world = make_world()
    gap = 2 * CFG.robot_radius + CFG.contact_margin / 2
    other = make_robot(1, 5.0 + gap, 5.0)
    world.add_robot(make_robot(0, 5.0, 5.0))
    world.add_robot(other)
    contact = nearest_contact(world, Vec2(5.0, 5.0), ignore_robot_id=0)
    assert contact.kind is ContactKind.ROBOT
    assert contact.point == Vec2(other.x, other.y)


def test_contact_ignores_stopped_robots():
    world = make_world()
    world.add_robot(make_robot(0, 0.5, 0.0))
    world.add_robot(
        make_robot(1, 0.5 + 2 * CFG.robot_radius, 0.0, phase=RobotPhase.STOPPING)
    )
    contact = nearest_contact(world, Vec2(0.5, 0.0), ignore_robot_id=0)
    assert contact.kind is not ContactKind.ROBOT


def test_contact_isolated_is_none():
    world = make_world()
    contact = nearest_contact(world, Vec2(5.0, 5.0))
    assert contact.kind is ContactKind.NONE


def test_contact_nest_boundary_matches_sampled_oracle():
    world = make_world()
    pos = Vec2(CFG.nest_radius + CFG.robot_radius, 0.0)
    contact = nearest_contact(world, pos)
    assert contact.kind is ContactKind.NEST
    # Oracle: minimum distance to densely sampled boundary points.
    sampled = min(
        math.hypot(
            pos.x - CFG.nest_radius * math.cos(t / 5000 * 2 * math.pi),
            pos.y - CFG.nest_radius * math.sin(t / 5000 * 2 * math.pi),
        )
        for t in range(5000)
    )
    assert sampled < CFG.robot_radius + CFG.contact_margin


def test_contact_priority_robot_over_wall():
    world = make_world()
    x = CFG.arena_half_width - CFG.robot_radius  # flush against the wall
    world.add_robot(make_robot(0, x, 0.0))
    world.add_robot(make_robot(1, x - 2 * CFG.robot_radius, 0.0))
    contact = nearest_contact(world, Vec2(x, 0.0), ignore_robot_id=0)
    assert contact.kind is ContactKind.ROBOT


def test_contact_wall():
    world = make_world()
    pos = Vec2(CFG.arena_half_width - CFG.robot_radius, 3.0)
    contact = nearest_contact(world, pos)
    assert contact.kind is ContactKind.WALL
    assert contact.point == Vec2(CFG.arena_half_width, 3.0)


def test_contact_object():
    world = make_world()
    obj = world.add_object(ObjectType.TYPE2, Vec2(5.0, 5.0))
    pos = Vec2(obj.position.x + 2 * CFG.robot_radius, obj.position.y)
    contact = nearest_contact(world, pos)
    assert contact.kind is ContactKind.OBJECT
    assert contact.obj is obj


# -- cell grid against a linear scan ------------------------------------------------

# A small arena, so walls, the nest and negative coordinates all come up.
SMALL = ArenaConfig(arena_half_width=2.0, nest_radius=0.5)
SIDE = make_world(SMALL).robot_grid.side


def scan_nearest_contact(world, position, ignore_robot_id=None):
    """The contact query as a linear scan over every robot and object in list
    order: the reference the cell grid must match."""
    cfg = world.config
    x, y = position
    margin = cfg.contact_margin
    rr = 2.0 * cfg.robot_radius + margin
    best_robot, best_d2 = None, rr * rr
    for other in world.robots:
        if other.id == ignore_robot_id or other.phase is RobotPhase.STOPPING:
            continue
        d2 = (other.x - x) ** 2 + (other.y - y) ** 2
        if d2 < best_d2:
            best_robot, best_d2 = other, d2
    if best_robot is not None:
        return Contact(ContactKind.ROBOT, Vec2(best_robot.x, best_robot.y))
    hw = cfg.arena_half_width
    if hw - max(abs(x), abs(y)) < cfg.robot_radius + margin:
        if abs(x) >= abs(y):
            return Contact(ContactKind.WALL, Vec2(math.copysign(hw, x), y))
        return Contact(ContactKind.WALL, Vec2(x, math.copysign(hw, y)))
    r = math.hypot(x, y)
    if abs(r - cfg.nest_radius) < cfg.robot_radius + margin:
        if r > 0.0:
            return Contact(
                ContactKind.NEST, Vec2(x / r * cfg.nest_radius, y / r * cfg.nest_radius)
            )
        return Contact(ContactKind.NEST, Vec2(cfg.nest_radius, 0.0))
    ro = cfg.robot_radius + cfg.object_radius + margin
    best_obj, best_d2 = None, ro * ro
    for obj in world.objects:
        d2 = (obj.position.x - x) ** 2 + (obj.position.y - y) ** 2
        if d2 < best_d2:
            best_obj, best_d2 = obj, d2
    if best_obj is not None:
        return Contact(ContactKind.OBJECT, best_obj.position, obj=best_obj)
    return Contact(ContactKind.NONE)


def scan_spawn_position(world, rng):
    """spawn_object's sampling with its overlap test as a linear scan."""
    cfg = world.config
    lo = -cfg.arena_half_width + cfg.object_radius
    span = 2.0 * (cfg.arena_half_width - cfg.object_radius)
    keepout = cfg.nest_radius + cfg.object_radius + cfg.contact_margin
    for _ in range(SPAWN_ATTEMPT_CAP):
        x = lo + rng.random() * span
        y = lo + rng.random() * span
        if x * x + y * y <= keepout * keepout:
            continue
        if any(
            (o.position.x - x) ** 2 + (o.position.y - y) ** 2
            < (2.0 * cfg.object_radius) ** 2
            for o in world.objects
        ):
            continue
        return Vec2(x, y)
    return None


def off_by(value, step):
    """``value``, or one float step above or below it."""
    return math.nextafter(value, step * math.inf) if step else value


# Points on a 1/16 lattice, where distances are exact and ties common,
# points on (or one float step off) the grid's cell edges k * SIDE, where an
# item changes cell, and its block edges (k + 0.5) * SIDE, where a query's
# 2x2 block changes, and points on the walls or where a robot or an object
# touches them, which lie in the border cells of the grid.
HW = SMALL.arena_half_width
border = st.builds(
    lambda at, sign, step: off_by(sign * at, step),
    st.sampled_from([HW, HW - SMALL.object_radius, HW - SMALL.robot_radius]),
    st.sampled_from([-1, 1]),
    st.sampled_from([-1, 0, 1]),
)
coordinate = st.one_of(
    st.integers(-36, 36).map(lambda k: k / 16),
    st.builds(
        lambda k, half, step: off_by((k + half) * SIDE, step),
        st.integers(-3, 3),
        st.sampled_from([0, 0.5]),
        st.sampled_from([-1, 0, 1]),
    ),
    border,
)
point = st.one_of(
    st.builds(Vec2, coordinate, coordinate),
    st.builds(Vec2, border, border),  # the corners
)
# Offsets to the eight points around a point, each within contact range.
NEAR = (-0.1875, 0, 0.1875)
AROUND = [(dx, dy) for dx in NEAR for dy in NEAR if dx or dy]
# A shift that keeps a point in or next to its own cell.
shift = st.integers(-6, 6).map(lambda k: k / 16)
phase = st.sampled_from(list(RobotPhase))
operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 11), point),
    st.tuples(st.just("phase"), st.integers(0, 11), phase),
    st.tuples(st.just("pickup"), st.integers(0, 11)),
    # A pickup and a spawn beside the picked-up object, as a delivery
    # does somewhere in the arena.
    st.tuples(st.just("respawn"), st.integers(0, 11), shift, shift),
)


@settings(max_examples=300, deadline=None)
@given(
    robots=st.lists(st.tuples(point, phase), min_size=1, max_size=12),
    objects=st.lists(point, max_size=12),
    operations=st.lists(operation, max_size=12),
    queries=st.lists(point, max_size=4),
)
def test_contact_grid_matches_linear_scan(robots, objects, operations, queries):
    world = make_world(SMALL)
    for rid, (pos, robot_phase) in enumerate(robots):
        world.add_robot(make_robot(rid, pos.x, pos.y, phase=robot_phase))
    for i, pos in enumerate(objects):
        world.add_object(ObjectType(i % 2), pos)

    def check():
        # Each robot's own query, as in a tick, free-standing points, the
        # midpoints of close pairs, which are exact ties on the lattice, and
        # the points around each robot and object in all eight directions,
        # within contact range and often in a neighbouring cell.
        probes = [(r.position, r.id) for r in world.robots] + [(q, None) for q in queries]
        for group in ([r.position for r in world.robots], [o.position for o in world.objects]):
            probes += [
                (Vec2((a.x + b.x) / 2, (a.y + b.y) / 2), None)
                for i, a in enumerate(group)
                for b in group[i + 1 :]
                if math.dist(a, b) < 1.0
            ]
            probes += [
                (Vec2(a.x + dx, a.y + dy), None) for a in group for dx, dy in AROUND
            ]
        for position, ignore in probes:
            got = nearest_contact(world, position, ignore_robot_id=ignore)
            want = scan_nearest_contact(world, position, ignore_robot_id=ignore)
            assert got == want
            assert got.obj is want.obj

    check()
    # Moves, phase changes and pickups in sequence, each visible to the
    # queries that follow it, as robots update one after another in a tick.
    for op in operations:
        if op[0] == "move":
            robot = world.robots[op[1] % len(world.robots)]
            world.move_robot(robot, op[2].x, op[2].y)
        elif op[0] == "phase":
            world.set_phase(world.robots[op[1] % len(world.robots)], op[2])
        elif world.objects:
            gone = world.objects[op[1] % len(world.objects)]
            world.remove_object(gone)
            if op[0] == "respawn":
                x, y = gone.position
                world.add_object(gone.obj_type, Vec2(x + op[2], y + op[3]))
        check()


def scattered(seed):
    """Thirty points uniform over the small arena. They leave few clear spots,
    so most spawn draws land near an object, often in another cell."""
    rng = random.Random(seed)
    return [Vec2(rng.uniform(-HW, HW), rng.uniform(-HW, HW)) for _ in range(30)]


@settings(max_examples=100, deadline=None)
@given(
    objects=st.one_of(
        st.lists(point, max_size=40), st.integers(0, 2**32 - 1).map(scattered)
    ),
    removals=st.lists(st.integers(0, 39), max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_spawn_grid_matches_linear_scan(objects, removals, seed):
    world = make_world(SMALL)
    for pos in objects:
        world.add_object(ObjectType.TYPE1, pos)
    # Picked-up objects no longer block a spawn.
    for i in removals:
        if world.objects:
            world.remove_object(world.objects[i % len(world.objects)])
    scan_rng, grid_rng = random.Random(seed), random.Random(seed)
    want = scan_spawn_position(world, scan_rng)
    if want is None:
        with pytest.raises(SpawnError):
            spawn_object(world, ObjectType.TYPE2, grid_rng)
    else:
        assert spawn_object(world, ObjectType.TYPE2, grid_rng).position == want
    assert grid_rng.getstate() == scan_rng.getstate()


@pytest.mark.parametrize("low_id_x", [0.25, -0.25])
def test_contact_tie_goes_to_lower_id(low_id_x):
    # Both robots sit exactly 0.25 from the query point, in different cells.
    world = make_world(SMALL)
    world.add_robot(make_robot(0, low_id_x, 1.0))
    world.add_robot(make_robot(1, -low_id_x, 1.0))
    world.add_object(ObjectType.TYPE1, Vec2(1.25, -1.0))
    world.add_object(ObjectType.TYPE2, Vec2(0.75, -1.0))
    assert nearest_contact(world, Vec2(0.0, 1.0)).point == Vec2(low_id_x, 1.0)
    assert nearest_contact(world, Vec2(1.0, -1.0)).obj is world.objects[0]


# -- bounce ----------------------------------------------------------------------


def test_bounce_separates_from_contact_ahead():
    position = Vec2(5.0, 0.0)
    contact_point = Vec2(5.3, 0.0)  # directly ahead at bearing 0
    step = 0.1
    h = bounce_heading(
        0.0,
        random.Random(11),
        separating_test(position, contact_point, step),
        away_heading(position, contact_point),
    )
    away = away_heading(position, contact_point)
    assert math.cos(h - away) > 0.0


def test_opposed_bounces_increase_distance():
    step = 0.1
    a, b = Vec2(5.0, 0.0), Vec2(5.3, 0.0)
    rng = random.Random(4)
    ha = bounce_heading(0.0, rng, separating_test(a, b, step), away_heading(a, b))
    hb = bounce_heading(math.pi, rng, separating_test(b, a, step), away_heading(b, a))
    a2 = Vec2(a.x + step * math.cos(ha), a.y + step * math.sin(ha))
    b2 = Vec2(b.x + step * math.cos(hb), b.y + step * math.sin(hb))
    assert math.hypot(a2.x - b2.x, a2.y - b2.y) > math.hypot(a.x - b.x, a.y - b.y)


def test_bounce_fallback_after_exhausted_redraws():
    # Scripted draws all map to heading 0, which points at the contact.
    rng = ScriptedRng([0.0] * 100)
    position, contact_point = Vec2(5.0, 0.0), Vec2(5.3, 0.0)
    h = bounce_heading(
        0.25,
        rng,
        separating_test(position, contact_point, 0.1),
        away_heading(position, contact_point),
    )
    assert rng.calls == 100
    assert h == away_heading(position, contact_point) == pytest.approx(math.pi)


# -- edge follow ------------------------------------------------------------------


def test_edge_follow_perpendicular_when_obstacle_blocks_goal():
    direction = edge_follow_step(Vec2(4.0, 0.0), Vec2(0.0, 0.0), Vec2(3.7, 0.0))
    radial = Vec2(4.0 - 3.7, 0.0)
    assert abs(direction.x * radial.x + direction.y * radial.y) < 1e-12
    assert math.hypot(direction.x, direction.y) == pytest.approx(1.0)


def test_edge_follow_picks_tangent_closer_to_goal():
    robot = Vec2(4.0, 0.0)
    goal = Vec2(0.0, 0.0)
    obstacle = Vec2(3.8, 0.2)  # offset left of the robot-to-origin line
    chosen = edge_follow_step(robot, goal, obstacle)
    # Brute force: both tangents, pick the one with larger dot toward goal.
    vx, vy = robot.x - obstacle.x, robot.y - obstacle.y
    n = math.hypot(vx, vy)
    tangents = [Vec2(-vy / n, vx / n), Vec2(vy / n, -vx / n)]
    gx, gy = goal.x - robot.x, goal.y - robot.y
    best = max(tangents, key=lambda t: t.x * gx + t.y * gy)
    assert chosen == best


def test_edge_follow_detour_clears_obstacle():
    cfg = CFG
    step = cfg.robot_speed * 0.1
    obstacle = Vec2(3.0, 0.0)
    contact_range = cfg.robot_radius + cfg.object_radius + cfg.contact_margin
    pos = Vec2(obstacle.x + contact_range - 0.01, 0.0)  # in contact, goal behind it
    goal = Vec2(0.0, 0.0)
    start_goal_dist = math.hypot(*pos)
    budget = math.ceil(math.pi * (cfg.object_radius + cfg.robot_radius) / step) + 5
    improved = False
    for _ in range(budget):
        before = math.hypot(pos.x - obstacle.x, pos.y - obstacle.y)
        if before < contact_range:
            d = edge_follow_step(pos, goal, obstacle)
            following = True
        else:
            gn = math.hypot(*pos)
            d = Vec2(-pos.x / gn, -pos.y / gn)
            following = False
        pos = Vec2(pos.x + step * d.x, pos.y + step * d.y)
        if following:
            # Chord steps along the tangent never close in on the obstacle.
            assert math.hypot(pos.x - obstacle.x, pos.y - obstacle.y) >= before - 1e-9
        if math.hypot(*pos) < start_goal_dist:
            improved = True
            break
    assert improved


# -- world bookkeeping -------------------------------------------------------------


def test_world_counts_and_conservation():
    world = make_world(totals=(2, 1))
    rng = random.Random(0)
    spawn_object(world, ObjectType.TYPE1, rng)
    spawn_object(world, ObjectType.TYPE1, rng)
    spawn_object(world, ObjectType.TYPE2, rng)
    world.check_conservation()
    carrier = make_robot(0, 0.0, 0.0)
    carrier.carried = ObjectType.TYPE1
    world.add_robot(carrier)
    world.remove_object(world.objects[0])
    world.check_conservation()
    assert sum(o.obj_type == ObjectType.TYPE1 for o in world.objects) == 1
    assert sum(r.carried == ObjectType.TYPE1 for r in world.robots) == 1


def test_remove_object_not_in_world_raises():
    world = make_world()
    rng = random.Random(0)
    first, gone, last = (spawn_object(world, ObjectType.TYPE1, rng) for _ in range(3))
    world.remove_object(gone)
    # An object already removed, and one that was never added.
    for stranger in (gone, WorldObject(99, ObjectType.TYPE1, Vec2(5.0, 5.0))):
        with pytest.raises(ValueError):
            world.remove_object(stranger)
    assert world.objects == [first, last]
    assert nearest_contact(world, gone.position).obj is not gone


def test_conservation_violation_raises():
    world = make_world(totals=(1, 1))
    rng = random.Random(0)
    spawn_object(world, ObjectType.TYPE1, rng)
    spawn_object(world, ObjectType.TYPE2, rng)
    world.remove_object(world.objects[0])
    with pytest.raises(AssertionError):
        world.check_conservation()


@pytest.mark.parametrize(
    "free, carried",
    [
        ((ObjectType.TYPE1, ObjectType.TYPE1), ()),
        ((ObjectType.TYPE2,), (ObjectType.TYPE2,)),  # a TYPE2 for the missing TYPE1
    ],
    ids=["two-free-type1", "carried-type2"],
)
def test_conservation_counts_each_type(free, carried):
    # Totals (1, 1) want one object of each type: the total is right, the
    # split is not.
    world = make_world(totals=(1, 1))
    for i, obj_type in enumerate(free):
        world.add_object(obj_type, Vec2(5.0, 5.0 - i))
    for rid, obj_type in enumerate(carried):
        carrier = make_robot(rid, 0.0, 0.0)
        carrier.carried = obj_type
        world.add_robot(carrier)
    with pytest.raises(SimulationInvariantError, match="for TYPE1"):
        world.check_conservation()


def filed_cells(grid):
    """The sorted table slots each item is filed in, by item id."""
    slots = {}
    for slot, cell in enumerate(grid.cells):
        for item in cell or ():
            slots.setdefault(item.id, []).append(slot)
    return slots


def block_slots(grid, x, y):
    """The slots of the four cells whose 2x2 block holds the point's cell."""
    i, j = math.floor(x / grid.side), math.floor(y / grid.side)
    size = len(grid.cells)
    return sorted(
        ((i - di) * grid.stride + j - dj) % size for di in (0, 1) for dj in (0, 1)
    )


def test_grids_file_each_item_under_its_block_cells():
    # A seeded set2 run moves robots across cells, parks and releases them,
    # and picks up and spawns objects; after every tick each moving robot and
    # each free object is filed under exactly its four cells, once each.
    config = replace(set2_config(seed=3), horizon=60.0)
    rng = random.Random(3)
    world = _build_world(config, rng)
    events = []
    sim = Simulation(config, world, rng, events)
    robots, objects = world.robot_grid, world.object_grid
    for _ in range(sim.clock.total_ticks):
        sim.tick()
        moving = [r for r in world.robots if r.phase is not RobotPhase.STOPPING]
        assert filed_cells(robots) == {r.id: block_slots(robots, r.x, r.y) for r in moving}
        assert robots.where == {r.id: robots.key(r.x, r.y) for r in moving}
        assert filed_cells(objects) == {
            o.id: block_slots(objects, *o.position) for o in world.objects
        }
        assert objects.where == {o.id: objects.key(*o.position) for o in world.objects}
    kinds = {record[0] for record in events}
    assert {"phase", "pickup", "deliver"} <= kinds
