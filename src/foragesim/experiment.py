"""Experiment configuration (its schema, checks and file reader), the two shipped
presets, and the seeded single-run driver that turns a config into a RunResult."""

from __future__ import annotations

import json
import math
import random
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .allocation import Mode, ObjectType, VdrParams, check_number
from .arena import ArenaConfig, TWO_PI, World, spawn_object
from .engine import EventSink, Robot, Simulation, discard

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

# 10**7 ticks of 0.1 s cover 11.6 days, a run that would take weeks.
MAX_TICKS = 10**7


def whole_ticks(name: str, seconds: float, tick_duration: float) -> int:
    """``seconds`` as a count of ``tick_duration`` ticks; ``ValueError``
    unless it is a whole count of at most ``MAX_TICKS``."""
    ticks = seconds / tick_duration
    if ticks > MAX_TICKS:  # first, so an infinite count gets this message too
        raise ValueError(
            f"{name} is {ticks:.3g} ticks at tick_duration {tick_duration:.3g}; "
            f"the tick count is capped at {MAX_TICKS}"
        )
    # The clock counts whole ticks, so it would round any other length, and
    # a positive whole number of ticks is at least one. The tolerance
    # admits quotients like 6.0 / 0.1 == 59.99999999999999.
    count = round(ticks)
    if abs(ticks - count) > 1e-9 * ticks:
        raise ValueError(f"{name} must be a whole number of {reprlib.repr(tick_duration)} s ticks")
    return count


# The three probability groups: key prefix, and path to the VdrParams.
_VDR_GROUPS = (
    ("leave", ("leave_params",)),
    ("obj1", ("obj_params", 0)),
    ("obj2", ("obj_params", 1)),
)

# The config schema, one row per config file key: the key, its path in
# ExperimentConfig (attribute names, and indices into its tuples), its type,
# and whether the file must give it. An omitted key takes the dataclass
# default. Geometry and probability keys are the field names of ArenaConfig
# and VdrParams, so renaming such a field renames its key.
_FIELDS = (
    ("mode", ("mode",), Mode, True),
    ("robot_count", ("robot_count",), int, True),
    ("objects_type1", ("object_totals", 0), int, True),
    ("objects_type2", ("object_totals", 1), int, True),
    ("horizon_seconds", ("horizon",), float, True),
    ("search_timeout_seconds", ("search_timeout",), float, True),
    ("seed", ("seed",), int, True),
    ("replications", ("replications",), int, True),
    ("tick_duration", ("tick_duration",), float, False),
    ("leave_check_period", ("leave_check_period",), float, False),
    *((spec.name, ("arena", spec.name), float, False) for spec in fields(ArenaConfig)),
    *(
        (f"{prefix}_{spec.name}", (*path, spec.name), float, True)
        for prefix, path in _VDR_GROUPS
        for spec in fields(VdrParams)
    ),
)
_KEYS = {row[0] for row in _FIELDS}
_REQUIRED = {row[0] for row in _FIELDS if row[3]}
_OWN_FLOATS = [
    (path[0], key) for key, path, kind, _ in _FIELDS if kind is float and len(path) == 1
]


def config_items(config: ExperimentConfig):
    """Yield each config key with its schema type and its value in ``config``."""
    for key, path, kind, _ in _FIELDS:
        value = config
        for step in path:
            value = value[step] if isinstance(step, int) else getattr(value, step)
        yield key, kind, value


def config_to_dict(config: ExperimentConfig) -> dict:
    """``config`` as a config file holds it: each key with its JSON value."""
    return {key: v.value if kind is Mode else v for key, kind, v in config_items(config)}


class ConfigError(ValueError):
    """A config file unreadable or unparsable, or a key or value refused."""


def _some_keys(keys) -> str:
    """``keys``, sorted, as a list of the first two (each cut to 30 characters,
    as ``reprlib`` cuts an echoed value) and the count of the rest."""
    keys = sorted(keys)
    rest = f" and {len(keys) - 2} more" if len(keys) > 2 else ""
    return reprlib.repr(keys[:2]) + rest


def _file_value(key: str, kind, value):
    """A config file's ``value`` for ``key`` as its schema type ``kind`` holds it: a mode's
    name, refused here, or a count written as 4.0. The config classes check the rest."""
    if kind is Mode:
        try:
            return Mode(value)
        except ValueError:
            raise ConfigError(f"{key}: {reprlib.repr(value)} is not a valid Mode") from None
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _vdr_params(parts: dict, prefix: str, path: tuple) -> VdrParams:
    try:
        return VdrParams(**parts[path])
    except ValueError as exc:
        raise ConfigError(f"invalid {prefix}_* probability parameters: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a flat dict of config file keys describes."""
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {_some_keys(unknown)}")
    missing = _REQUIRED - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {_some_keys(missing)}")

    # Values grouped by the path of the object that holds them: () for
    # ExperimentConfig itself, ("arena",), ("obj_params", 0) and so on.
    parts = {path[:-1]: {} for _, path, _, _ in _FIELDS}
    for key, path, kind, _ in _FIELDS:
        if key in raw:
            parts[path[:-1]][path[-1]] = _file_value(key, kind, raw[key])
    leave, obj1, obj2 = [_vdr_params(parts, *group) for group in _VDR_GROUPS]
    totals = parts[("object_totals",)]
    try:
        return ExperimentConfig(
            **parts[()], object_totals=(totals[0], totals[1]), leave_params=leave,
            obj_params=(obj1, obj2), arena=ArenaConfig(**parts[("arena",)]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    # A key given twice would otherwise silently take its last value.
    twice = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
    if twice:
        raise ValueError(f"duplicate keys: {_some_keys(twice)}")
    return dict(pairs)


def _file_int(digits: str) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits() allows, and
    # its message tells the user to raise that limit from Python.
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("-"))
        raise ValueError(
            f"an integer of {count} digits is over the limit of {sys.get_int_max_str_digits()}"
        ) from None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_file_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # Malformed JSON, bytes not UTF-8, integers past Python's digit limit and
    # duplicate keys raise ValueError; arrays nested too deep, RecursionError.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return config_from_dict(raw)


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
    # The horizon and the leave-check period in ticks, the engine's units.
    total_ticks: int = field(init=False, repr=False, compare=False)
    leave_check_ticks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The parts a config file cannot get wrong, before the key walk reads into them.
        totals, obj = self.object_totals, self.obj_params
        for name, what, ok in (
            ("object_totals", "a pair of counts", isinstance(totals, tuple) and len(totals) == 2),
            ("obj_params", "a pair of VdrParams", isinstance(obj, tuple) and len(obj) == 2
             and all(isinstance(params, VdrParams) for params in obj)),
            ("leave_params", "a VdrParams", isinstance(self.leave_params, VdrParams)),
            ("arena", "an ArenaConfig", isinstance(self.arena, ArenaConfig)),
        ):
            if not ok:
                echo = reprlib.repr(getattr(self, name))[:40]  # three VdrParams echo 95 characters
                raise ValueError(f"{name} must be {what}, got {echo}")
        for name, key in _OWN_FLOATS:  # ArenaConfig and VdrParams store their own floats
            object.__setattr__(self, name, check_number(key, getattr(self, name)))
        for key, kind, value in config_items(self):
            if kind is not float and (isinstance(value, bool) or not isinstance(value, kind)):
                name = "a Mode" if kind is Mode else "an integer"
                raise ValueError(f"{key} must be {name}, got {reprlib.repr(value)}")
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
        if self.seed < 0:  # not echoed: it may have hundreds of digits
            raise ValueError("seed must be >= 0")
        # A zero horizon builds the world and runs no tick.
        if self.horizon < 0:
            raise ValueError(f"horizon_seconds must be >= 0, got {reprlib.repr(self.horizon)}")
        for name, value in (
            ("search_timeout_seconds", self.search_timeout),
            ("tick_duration", self.tick_duration),
            ("leave_check_period", self.leave_check_period),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {reprlib.repr(value)}")
        # Frozen, so the counts are set past the dataclass's own __setattr__.
        tick = self.tick_duration
        total = whole_ticks("horizon_seconds", self.horizon, tick)
        object.__setattr__(self, "total_ticks", total)
        period = whole_ticks("leave_check_period", self.leave_check_period, tick)
        object.__setattr__(self, "leave_check_ticks", period)
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
                f"the arena is too packed for {objects} objects of radius {reprlib.repr(radius)}"
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
                leave=config.leave_params.initial_state(),
                pickup=tuple(params.initial_state() for params in config.obj_params),
            )
        )
    return world


def run_experiment(
    config: ExperimentConfig, replication: int = 0, emit: EventSink = discard
) -> RunResult:
    """Run one seeded replication to the horizon and extract its result."""
    rng = random.Random(config.seed * _STREAM_STRIDE + replication)
    world = _build_world(config, rng)
    Simulation(config, world, rng, emit).run()

    robots = world.robots
    final_pobj = None
    if config.mode is Mode.MODIFIED:
        final_pobj = (
            [r.pickup[0].p for r in robots],
            [r.pickup[1].p for r in robots],
        )
    retrieved = (
        sum(r.retrieved[0] for r in robots),
        sum(r.retrieved[1] for r in robots),
    )
    return RunResult(
        final_p1=[r.leave.p for r in robots],
        final_pobj=final_pobj,
        retrieved=retrieved,
        trips=[(sum(r.retrieved), r.trip_failures) for r in robots],
        capabilities=[r.capability for r in robots],
    )
