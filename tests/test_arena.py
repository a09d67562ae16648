"""Geometry tests: spawning, contact classification, bounce, edge follow."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import ArenaConfig, Robot, Simulation, World, WorldObject
from foragesim.allocation import ObjectType, VdrParams, initial_allocation
from foragesim.arena import (
    SPAWN_ATTEMPT_CAP,
    Contact,
    ContactKind,
    SimulationInvariantError,
    SpawnError,
    away_heading,
    bounce_heading,
    edge_follow_heading,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["arena_half_width", "robot_radius", "heading_jitter"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ArenaConfig(**{name: value})


def test_config_rejects_geometry_too_fine_for_the_grid():
    tiny = dict(robot_radius=1e-310, object_radius=1e-310, contact_margin=1e-310)
    with pytest.raises(ValueError, match="width in grid cells overflows"):
        ArenaConfig(arena_half_width=4.0, nest_radius=1.2, **tiny)
    # Small radii whose width in cells stays finite are accepted.
    fine = ArenaConfig(arena_half_width=4.0, nest_radius=1.2, robot_radius=1e-300,
                       object_radius=1e-300, contact_margin=1e-300)
    assert math.isfinite(fine.arena_half_width / fine.cell_side())


# -- spawning -------------------------------------------------------------------


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spawn_constraints(seed):
    world = make_world()
    obj = spawn_object(world, ObjectType.TYPE1, random.Random(seed))
    r = math.hypot(obj.x, obj.y)
    assert r > CFG.nest_radius + CFG.object_radius
    assert abs(obj.x) <= CFG.arena_half_width - CFG.object_radius
    assert abs(obj.y) <= CFG.arena_half_width - CFG.object_radius


def test_spawn_packed_arena_pairwise_separation():
    world = make_world(totals=(65, 65))
    rng = random.Random(7)
    for i in range(64):
        spawn_object(world, ObjectType(i % 2), rng)
    spawn_object(world, ObjectType.TYPE2, rng)
    # Brute-force pairwise distance check over all 65 objects.
    positions = [(o.x, o.y) for o in world.objects.values()]
    min_sep = min(
        math.dist(a, b)
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
    contact = nearest_contact(world, (5.0, 5.0), ignore_robot_id=0)
    assert contact.kind is ContactKind.ROBOT
    assert contact.point == (other.x, other.y)


def test_contact_ignores_stopped_robots():
    world = make_world()
    world.add_robot(make_robot(0, 0.5, 0.0))
    world.add_robot(
        make_robot(1, 0.5 + 2 * CFG.robot_radius, 0.0, phase=RobotPhase.STOPPING)
    )
    contact = nearest_contact(world, (0.5, 0.0), ignore_robot_id=0)
    assert contact.kind is not ContactKind.ROBOT


def test_contact_isolated_is_none():
    world = make_world()
    contact = nearest_contact(world, (5.0, 5.0))
    assert contact.kind is ContactKind.NONE


def test_contact_nest_boundary_matches_sampled_oracle():
    world = make_world()
    x, y = CFG.nest_radius + CFG.robot_radius, 0.0
    contact = nearest_contact(world, (x, y))
    assert contact.kind is ContactKind.NEST
    # Oracle: minimum distance to densely sampled boundary points.
    sampled = min(
        math.hypot(
            x - CFG.nest_radius * math.cos(t / 5000 * 2 * math.pi),
            y - CFG.nest_radius * math.sin(t / 5000 * 2 * math.pi),
        )
        for t in range(5000)
    )
    assert sampled < CFG.robot_radius + CFG.contact_margin


def test_contact_priority_robot_over_wall():
    world = make_world()
    x = CFG.arena_half_width - CFG.robot_radius  # flush against the wall
    world.add_robot(make_robot(0, x, 0.0))
    world.add_robot(make_robot(1, x - 2 * CFG.robot_radius, 0.0))
    contact = nearest_contact(world, (x, 0.0), ignore_robot_id=0)
    assert contact.kind is ContactKind.ROBOT


def test_contact_wall():
    world = make_world()
    pos = (CFG.arena_half_width - CFG.robot_radius, 3.0)
    contact = nearest_contact(world, pos)
    assert contact.kind is ContactKind.WALL
    assert contact.point == (CFG.arena_half_width, 3.0)


def test_contact_object():
    world = make_world()
    obj = world.add_object(ObjectType.TYPE2, 5.0, 5.0)
    pos = (obj.x + 2 * CFG.robot_radius, obj.y)
    contact = nearest_contact(world, pos)
    assert contact.kind is ContactKind.OBJECT
    assert contact.obj is obj
    assert contact.point == (5.0, 5.0)


# -- cell grid against a linear scan ------------------------------------------------

# A small arena, so walls, the nest and negative coordinates all come up.
SMALL = ArenaConfig(arena_half_width=2.0, nest_radius=0.5)
SIDE = make_world(SMALL).side


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
        return Contact(ContactKind.ROBOT, (best_robot.x, best_robot.y))
    hw = cfg.arena_half_width
    if hw - max(abs(x), abs(y)) < cfg.robot_radius + margin:
        if abs(x) >= abs(y):
            return Contact(ContactKind.WALL, (math.copysign(hw, x), y))
        return Contact(ContactKind.WALL, (x, math.copysign(hw, y)))
    r = math.hypot(x, y)
    if abs(r - cfg.nest_radius) < cfg.robot_radius + margin:
        if r > 0.0:
            return Contact(
                ContactKind.NEST, (x / r * cfg.nest_radius, y / r * cfg.nest_radius)
            )
        return Contact(ContactKind.NEST, (cfg.nest_radius, 0.0))
    ro = cfg.robot_radius + cfg.object_radius + margin
    best_obj, best_d2 = None, ro * ro
    for obj in world.objects.values():
        d2 = (obj.x - x) ** 2 + (obj.y - y) ** 2
        if d2 < best_d2:
            best_obj, best_d2 = obj, d2
    if best_obj is not None:
        return Contact(ContactKind.OBJECT, (best_obj.x, best_obj.y), obj=best_obj)
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
            (o.x - x) ** 2 + (o.y - y) ** 2 < (2.0 * cfg.object_radius) ** 2
            for o in world.objects.values()
        ):
            continue
        return (x, y)
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
    st.tuples(coordinate, coordinate),
    st.tuples(border, border),  # the corners
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
    for rid, ((x, y), robot_phase) in enumerate(robots):
        world.add_robot(make_robot(rid, x, y, phase=robot_phase))
    for i, (x, y) in enumerate(objects):
        world.add_object(ObjectType(i % 2), x, y)

    def check():
        # Each robot's own query, as in a tick, free-standing points, the
        # midpoints of close pairs, which are exact ties on the lattice, and
        # the points around each robot and object in all eight directions,
        # within contact range and often in a neighbouring cell.
        probes = [((r.x, r.y), r.id) for r in world.robots] + [(q, None) for q in queries]
        for items in (world.robots, world.objects.values()):
            group = [(a.x, a.y) for a in items]
            probes += [
                (((ax + bx) / 2, (ay + by) / 2), None)
                for i, (ax, ay) in enumerate(group)
                for bx, by in group[i + 1 :]
                if math.dist((ax, ay), (bx, by)) < 1.0
            ]
            probes += [((ax + dx, ay + dy), None) for ax, ay in group for dx, dy in AROUND]
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
            world.move_robot(robot, *op[2])
        elif op[0] == "phase":
            world.set_phase(world.robots[op[1] % len(world.robots)], op[2])
        elif world.objects:
            gone = list(world.objects.values())[op[1] % len(world.objects)]
            world.remove_object(gone)
            if op[0] == "respawn":
                world.add_object(gone.obj_type, gone.x + op[2], gone.y + op[3])
        check()


def scattered(seed):
    """Thirty points uniform over the small arena. They leave few clear spots,
    so most spawn draws land near an object, often in another cell."""
    rng = random.Random(seed)
    return [(rng.uniform(-HW, HW), rng.uniform(-HW, HW)) for _ in range(30)]


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
    for x, y in objects:
        world.add_object(ObjectType.TYPE1, x, y)
    # Picked-up objects no longer block a spawn.
    for i in removals:
        if world.objects:
            world.remove_object(list(world.objects.values())[i % len(world.objects)])
    scan_rng, grid_rng = random.Random(seed), random.Random(seed)
    want = scan_spawn_position(world, scan_rng)
    if want is None:
        with pytest.raises(SpawnError):
            spawn_object(world, ObjectType.TYPE2, grid_rng)
    else:
        obj = spawn_object(world, ObjectType.TYPE2, grid_rng)
        assert (obj.x, obj.y) == want
    assert grid_rng.getstate() == scan_rng.getstate()


@pytest.mark.parametrize("low_id_x", [0.25, -0.25])
def test_contact_tie_goes_to_lower_id(low_id_x):
    # Both robots sit exactly 0.25 from the query point, in different cells.
    world = make_world(SMALL)
    world.add_robot(make_robot(0, low_id_x, 1.0))
    world.add_robot(make_robot(1, -low_id_x, 1.0))
    world.add_object(ObjectType.TYPE1, 1.25, -1.0)
    world.add_object(ObjectType.TYPE2, 0.75, -1.0)
    assert nearest_contact(world, (0.0, 1.0)).point == (low_id_x, 1.0)
    assert nearest_contact(world, (1.0, -1.0)).obj is world.objects[0]


# -- bounce ----------------------------------------------------------------------


def test_bounce_separates_from_contact_ahead():
    position = (5.0, 0.0)
    contact_point = (5.3, 0.0)  # directly ahead at bearing 0
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
    a, b = (5.0, 0.0), (5.3, 0.0)
    rng = random.Random(4)
    ha = bounce_heading(0.0, rng, separating_test(a, b, step), away_heading(a, b))
    hb = bounce_heading(math.pi, rng, separating_test(b, a, step), away_heading(b, a))
    a2 = (a[0] + step * math.cos(ha), a[1] + step * math.sin(ha))
    b2 = (b[0] + step * math.cos(hb), b[1] + step * math.sin(hb))
    assert math.dist(a2, b2) > math.dist(a, b)


def test_bounce_fallback_after_exhausted_redraws():
    # Scripted draws all map to heading 0, which points at the contact.
    rng = ScriptedRng([0.0] * 100)
    position, contact_point = (5.0, 0.0), (5.3, 0.0)
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
    h = edge_follow_heading((4.0, 0.0), (0.0, 0.0), (3.7, 0.0))
    radial = (4.0 - 3.7, 0.0)
    assert abs(math.cos(h) * radial[0] + math.sin(h) * radial[1]) < 1e-12


def test_edge_follow_picks_tangent_closer_to_goal():
    rx, ry = 4.0, 0.0
    gx, gy = 0.0 - rx, 0.0 - ry
    ox, oy = 3.8, 0.2  # offset left of the robot-to-origin line
    chosen = edge_follow_heading((rx, ry), (0.0, 0.0), (ox, oy))
    # Brute force: both tangents, pick the one with larger dot toward goal.
    vx, vy = rx - ox, ry - oy
    n = math.hypot(vx, vy)
    tangents = [(-vy / n, vx / n), (vy / n, -vx / n)]
    tx, ty = max(tangents, key=lambda t: t[0] * gx + t[1] * gy)
    assert chosen == math.atan2(ty, tx)


def test_edge_follow_detour_clears_obstacle():
    cfg = CFG
    step = cfg.robot_speed * 0.1
    obstacle = (3.0, 0.0)
    contact_range = cfg.robot_radius + cfg.object_radius + cfg.contact_margin
    pos = (obstacle[0] + contact_range - 0.01, 0.0)  # in contact, goal behind it
    goal = (0.0, 0.0)
    start_goal_dist = math.hypot(*pos)
    budget = math.ceil(math.pi * (cfg.object_radius + cfg.robot_radius) / step) + 5
    improved = False
    for _ in range(budget):
        before = math.dist(pos, obstacle)
        following = before < contact_range
        if following:
            h = edge_follow_heading(pos, goal, obstacle)
        else:
            h = math.atan2(-pos[1], -pos[0])
        pos = (pos[0] + step * math.cos(h), pos[1] + step * math.sin(h))
        if following:
            # Chord steps along the tangent never close in on the obstacle.
            assert math.dist(pos, obstacle) >= before - 1e-9
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
    assert sum(o.obj_type == ObjectType.TYPE1 for o in world.objects.values()) == 1
    assert sum(r.carried == ObjectType.TYPE1 for r in world.robots) == 1


def test_remove_object_not_in_world_raises():
    world = make_world()
    rng = random.Random(0)
    first, gone, last = (spawn_object(world, ObjectType.TYPE1, rng) for _ in range(3))
    world.remove_object(gone)
    # An object already removed, one that was never added, and a copy of a
    # free one: the same id, but not the object in the world.
    copy = WorldObject(first.id, first.obj_type, first.x, first.y)
    for stranger in (gone, WorldObject(99, ObjectType.TYPE1, 5.0, 5.0), copy):
        with pytest.raises(ValueError):
            world.remove_object(stranger)
    assert world.objects == {first.id: first, last.id: last}
    assert nearest_contact(world, (gone.x, gone.y)).obj is not gone


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
        world.add_object(obj_type, 5.0, 5.0 - i)
    for rid, obj_type in enumerate(carried):
        carrier = make_robot(rid, 0.0, 0.0)
        carrier.carried = obj_type
        world.add_robot(carrier)
    with pytest.raises(SimulationInvariantError, match="for TYPE1"):
        world.check_conservation()


def filed_cells(cells):
    """The sorted cell keys each item is filed under, by item id."""
    keys = {}
    for key, cell in cells.items():
        for item in cell:
            keys.setdefault(item.id, []).append(key)
    return {item_id: sorted(item_keys) for item_id, item_keys in keys.items()}


def block_slots(world, x, y):
    """The keys of the four cells whose 2x2 block holds the point's cell."""
    i, j = math.floor(x / world.side), math.floor(y / world.side)
    return sorted((i - di) * world.stride + j - dj for di in (0, 1) for dj in (0, 1))


def test_grids_file_each_item_under_its_block_cells():
    # A seeded set2 run moves robots across cells, parks and releases them,
    # and picks up and spawns objects; after every tick each moving robot and
    # each free object is filed under exactly its four cells, once each, and
    # each robot carries its own cell's key, None while STOPPING.
    config = replace(set2_config(seed=3), horizon=60.0)
    rng = random.Random(3)
    world = _build_world(config, rng)
    events = []
    sim = Simulation(config, world, rng, events)
    for _ in range(sim.clock.total_ticks):
        sim.tick()
        moving = [r for r in world.robots if r.phase is not RobotPhase.STOPPING]
        assert filed_cells(world.robot_cells) == {
            r.id: block_slots(world, r.x, r.y) for r in moving
        }
        for r in world.robots:
            if r.phase is RobotPhase.STOPPING:
                assert r.cell is None
            else:
                assert r.cell == world.cell_key(r.x, r.y)
        assert filed_cells(world.object_cells) == {
            o.id: block_slots(world, o.x, o.y) for o in world.objects.values()
        }
    kinds = {record[0] for record in events}
    assert {"phase", "pickup", "deliver"} <= kinds


@pytest.mark.parametrize(
    "di, dj",
    [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj] + [(3, -2)],
)
def test_grid_move_refiles_under_the_new_block_cells(di, dj):
    # Robot 0 moves one cell over in each of the 8 directions, or jumps
    # further; robots 1 and 2 share cells with its old and its new block.
    world = make_world(SMALL)
    cells = world.robot_cells

    def at(i, j):  # the centre of cell (i, j)
        return (i + 0.5) * world.side, (j + 0.5) * world.side

    for rid, (i, j) in enumerate([(0, 0), (0, 0), (di, dj)]):
        world.add_robot(make_robot(rid, *at(i, j)))
    world.move_robot(world.robots[0], *at(di, dj))
    assert filed_cells(cells) == {r.id: block_slots(world, r.x, r.y) for r in world.robots}
    assert [r.cell for r in world.robots] == [world.cell_key(r.x, r.y) for r in world.robots]
    # Alone, it empties the cells it leaves, which must then be gone.
    for robot in world.robots[1:]:
        world.set_phase(robot, RobotPhase.STOPPING)
    world.move_robot(world.robots[0], *at(0, 0))
    assert filed_cells(cells) == {0: block_slots(world, *at(0, 0))}
    assert len(cells) == 4


def test_contact_query_ignores_the_order_of_cell_lists():
    # Moves leave a robot at another place in its cells' lists. On a 1/8
    # lattice, where distances are exact and ties common, shuffled cells
    # must give every probe the same contact, ties going to the lower id.
    world = make_world(SMALL)
    rng = random.Random(5)
    spots = [(i / 8, j / 8) for i in range(-14, 15) for j in range(-14, 15)]
    rng.shuffle(spots)
    for rid, (x, y) in enumerate(spots[:24]):
        world.add_robot(make_robot(rid, x, y))
    for i, (x, y) in enumerate(spots[24:60]):
        world.add_object(ObjectType(i % 2), x, y)
    probes = [((i / 16, j / 16), None) for i in range(-30, 31) for j in range(-30, 31)]
    probes += [((r.x, r.y), r.id) for r in world.robots]

    def contacts():
        return [nearest_contact(world, p, ignore_robot_id=rid) for p, rid in probes]

    want = contacts()
    ties = 0
    for (x, y), rid in probes:
        d2 = sorted((r.x - x) ** 2 + (r.y - y) ** 2 for r in world.robots if r.id != rid)
        ties += d2[0] == d2[1] < world.robot_contact_sq
    assert ties > 50
    for shuffle in (list.reverse, rng.shuffle, rng.shuffle):
        for cells in (world.robot_cells, world.object_cells):
            for cell in cells.values():
                shuffle(cell)
        assert contacts() == want  # objects compare by identity


def test_wide_arena_grids_hold_only_cells_with_items():
    # 1,429 cells from the centre to a wall: the grids' size follows the
    # robots and objects, and each holds at most the 4 cells of each item.
    base = set2_config(seed=3)
    config = replace(base, horizon=5.0, arena=replace(base.arena, arena_half_width=1000.0))
    rng = random.Random(3)
    world = _build_world(config, rng)
    sim = Simulation(config, world, rng)
    for _ in range(sim.clock.total_ticks):
        sim.tick()
        moving = [r for r in world.robots if r.phase is not RobotPhase.STOPPING]
        assert len(world.robot_cells) <= 4 * len(moving)
        assert len(world.object_cells) <= 4 * len(world.objects)
    assert moving
