"""Experiment configuration, the two shipped presets, and the seeded
single-run driver that turns a config into a RunResult."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from .allocation import Mode, ObjectType, VdrParams, initial_allocation
from .arena import ArenaConfig, TWO_PI, World, spawn_object
from .engine import Robot, Simulation, whole_ticks

# Offsets mixed into (seed, replication) so distinct replications get
# independent streams while staying reproducible from the manifest alone.
_STREAM_STRIDE = 1_000_003

# analysis.binomial_pmf turns math.comb(n, k) into a float, which overflows
# once C(n, n // 2) passes the float range: first at n = 1030.
MAX_ROBOTS = 1029

# A world of 10**5 objects of each type holds about 150 MB, and its
# per-tick conservation recount takes about 60 ms (2-core x86 host).
MAX_OBJECTS = 10**5

# 10**4 replications of set2 take about 20 minutes (same host); 10**9, which
# a config could ask for, would take three years.
MAX_REPLICATIONS = 10**4


@dataclass(frozen=True)
class ExperimentConfig:
    mode: Mode
    robot_count: int
    object_totals: tuple[int, int]
    horizon: float  # seconds
    search_timeout: float  # seconds
    leave_params: VdrParams
    obj_params: tuple[VdrParams, VdrParams]
    arena: ArenaConfig
    seed: int
    replications: int
    tick_duration: float = 0.1
    leave_check_period: float = 0.1

    def __post_init__(self) -> None:
        for name in ("horizon", "search_timeout", "tick_duration", "leave_check_period"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, value in (
            ("robot_count", self.robot_count),
            ("objects_type1", self.object_totals[0]),
            ("objects_type2", self.object_totals[1]),
            ("replications", self.replications),
            ("seed", self.seed),
        ):
            # bool subclasses int, but True is no count.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.robot_count <= MAX_ROBOTS:
            raise ValueError(f"robot_count must be in 1..{MAX_ROBOTS}")
        # Before the packing check, which turns the counts into floats.
        for t, count in enumerate(self.object_totals):
            if not 0 < count <= MAX_OBJECTS:
                raise ValueError(f"objects_type{t + 1} must be in 1..{MAX_OBJECTS}")
        if not 0 < self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must be in 1..{MAX_REPLICATIONS}")
        # random.Random seeds by the absolute value, so seed -s would draw
        # the streams of seed s.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.horizon < 0 or self.search_timeout <= 0:
            raise ValueError("horizon must be >= 0 and search_timeout > 0")
        if self.tick_duration <= 0 or self.leave_check_period <= 0:
            raise ValueError("tick_duration and leave_check_period must be > 0")
        for name in ("horizon", "leave_check_period"):
            whole_ticks(name, getattr(self, name), self.tick_duration)
        # assign_task divides by p1 + p2, and failures clamp each at its p_min.
        floors = self.obj_params[0].p_min + self.obj_params[1].p_min
        if self.mode is Mode.MODIFIED and floors == 0:
            raise ValueError("modified mode needs obj1_p_min or obj2_p_min above 0")
        # Equal disks cover at most pi / sqrt(12) (0.9069) of any region they
        # are packed in, the hexagonal packing, so more object area than that
        # cannot be placed however long spawning draws.
        objects = sum(self.object_totals)
        radius = self.arena.object_radius
        width = 2.0 * self.arena.arena_half_width
        if objects * math.pi * radius**2 > math.pi / math.sqrt(12.0) * width**2:
            raise ValueError(
                f"the arena is too packed: {objects} objects of radius {radius} "
                f"cannot fit in a {width} x {width} square"
            )


@dataclass
class RunResult:
    final_p1: list
    final_pobj: Optional[tuple[list, list]]  # None in ORIGINAL mode
    retrieved: tuple[int, int]
    trips: list  # (successes, failures) per robot
    capabilities: list  # (cap_type1, cap_type2) per robot


def set1_config(seed: int = 1, replications: int = 20) -> ExperimentConfig:
    """Original single-probability rule: 15 robots, 30+35 objects, 180 s.

    Geometry is tuned so trips are short relative to the 15 s search budget;
    with the slow delta (0.0003) the leave probabilities only polarize when
    robots complete a few dozen trips per run.
    """
    pickup = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)
    return ExperimentConfig(
        mode=Mode.ORIGINAL,
        robot_count=15,
        object_totals=(30, 35),
        horizon=180.0,
        search_timeout=15.0,
        leave_params=VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003),
        obj_params=(pickup, pickup),
        arena=ArenaConfig(
            arena_half_width=4.0,
            nest_radius=1.2,
            robot_radius=0.15,
            object_radius=0.15,
            robot_speed=1.5,
            contact_margin=0.05,
            heading_jitter=0.1,
        ),
        seed=seed,
        replications=replications,
    )


def set2_config(seed: int = 2, replications: int = 20) -> ExperimentConfig:
    """Set I with the two-object-type rule: 300 s, 25 s search, a faster
    leave delta and a wider arena.

    Pickup probabilities update per attempt, so each one performs a streak
    random walk with success rate equal to the robot's mechanical capability
    for that type; capabilities above/below 0.5 drift to the clamps.
    """
    base = set1_config(seed, replications)
    return replace(
        base,
        mode=Mode.MODIFIED,
        horizon=300.0,
        search_timeout=25.0,
        leave_params=replace(base.leave_params, delta=0.0015),
        arena=replace(base.arena, arena_half_width=6.0),
    )


PRESETS = {"set1": set1_config, "set2": set2_config}


def _build_world(config: ExperimentConfig, rng) -> World:
    world = World(config=config.arena, totals=config.object_totals)
    for obj_type in ObjectType:
        for _ in range(config.object_totals[obj_type]):
            spawn_object(world, obj_type, rng)
    interior = config.arena.nest_radius - config.arena.robot_radius
    for rid in range(config.robot_count):
        # Rejection-sample a start position uniform over the nest interior.
        while True:
            x = (rng.random() * 2.0 - 1.0) * interior
            y = (rng.random() * 2.0 - 1.0) * interior
            if x * x + y * y <= interior * interior:
                break
        world.add_robot(
            Robot(
                id=rid,
                x=x,
                y=y,
                heading=rng.random() * TWO_PI,
                capability=(rng.random(), rng.random()),
                alloc=initial_allocation(config.leave_params, config.obj_params),
            )
        )
    return world


def run_experiment(
    config: ExperimentConfig, replication: int = 0, events: Optional[list] = None
) -> RunResult:
    """Run one seeded replication to the horizon and extract its result."""
    rng = random.Random(config.seed * _STREAM_STRIDE + replication)
    world = _build_world(config, rng)
    Simulation(config, world, rng, events).run()

    robots = world.robots
    final_pobj = None
    if config.mode is Mode.MODIFIED:
        final_pobj = (
            [r.alloc.obj[0].p for r in robots],
            [r.alloc.obj[1].p for r in robots],
        )
    retrieved = (
        sum(r.retrieved[0] for r in robots),
        sum(r.retrieved[1] for r in robots),
    )
    return RunResult(
        final_p1=[r.alloc.leave.p for r in robots],
        final_pobj=final_pobj,
        retrieved=retrieved,
        trips=[(sum(r.retrieved), r.trip_failures) for r in robots],
        capabilities=[r.capability for r in robots],
    )
