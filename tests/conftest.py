import importlib.util
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, example
from hypothesis import strategies as st

from foragesim.allocation import VdrParams, VdrState, vdr_failure, vdr_success
from foragesim.arena import RobotPhase
from foragesim.cli import main
from foragesim.engine import Robot
from foragesim.experiment import PRESETS, ConfigError, config_from_dict, config_to_dict

ROOT = Path(__file__).resolve().parent.parent

# Experiment Set I leave-nest parameters, and Set II pickup parameters.
TABLE4 = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
TABLE9 = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)


def replay_oracle(params, events):
    """The streak rule replayed line by line from p_initial, with the same
    operation order as ``vdr_success``/``vdr_failure``, so a state they reach
    equals it exactly."""
    p = params.p_initial
    succ = fail = 0
    for success in events:
        if success:
            succ += 1
            fail = 0
            p = min(params.p_max, p + succ * params.delta)
        else:
            fail += 1
            succ = 0
            p = max(params.p_min, p - fail * params.delta)
    return VdrState(p, succ, fail)


def apply_events(state, params, events):
    """The state that ``vdr_success``/``vdr_failure`` reach from ``state``,
    one event at a time."""
    for success in events:
        state = vdr_success(state, params) if success else vdr_failure(state, params)
    return state


class ScriptedRng:
    """Deterministic rng stub feeding a fixed sequence of unit draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        if not self.draws:
            raise AssertionError("scripted rng exhausted")
        return self.draws.pop(0)


def make_robot(
    rid, x, y, phase=RobotPhase.SEARCHING, search_deadline=0.0, heading=0.0,
    capability=(0.5, 0.5), p1=None,
):
    """A robot at the initial TABLE4 leave and TABLE9 pickup states, or with
    leave probability ``p1``. A searching robot that a test ticks needs a
    ``search_deadline`` past the clock."""
    return Robot(
        id=rid,
        x=x,
        y=y,
        heading=heading,
        capability=capability,
        leave=TABLE4.initial_state() if p1 is None else VdrState(p1),
        pickup=(TABLE9.initial_state(), TABLE9.initial_state()),
        phase=phase,
        search_deadline=search_deadline,
    )


class Replay(NamedTuple):
    """One replication's event log, folded robot by robot."""

    p1: list  # each robot's leave probability after its last trip
    trips: list  # each robot's [successes, failures]
    delivered: list  # deliveries per object type
    departures: list  # each robot's "leave" records
    transitions: set  # the (old, new) phase pairs
    searches: list  # each search's length in ticks; one still open counts to the horizon


def replay(records, config):
    """Fold one replication's event records, as the run emits them or as
    lists read back from its ``events_runNNN.jsonl``, for ``config``. The
    record kinds and their fields are stated at ``foragesim.engine.EventSink``."""
    p1 = [config.leave_params.p_initial] * config.robot_count
    trips = [[0, 0] for _ in range(config.robot_count)]
    departures = [0] * config.robot_count
    delivered, transitions, searches, entered = [0, 0], set(), [], {}
    for kind, tick, rid, *fields in records:
        if kind == "phase":
            old, new = fields
            transitions.add((old, new))
            if new == "searching":
                entered[rid] = tick
            elif old == "searching":
                searches.append(tick - entered.pop(rid))
        elif kind == "leave":
            departures[rid] += 1
        elif kind == "trip":
            success, p1[rid] = fields
            trips[rid][not success] += 1
        elif kind == "deliver":
            delivered[fields[0]] += 1
        elif kind != "pickup":
            raise ValueError(f"unknown event record kind {kind!r}")
    searches.extend(config.total_ticks - tick for tick in entered.values())
    return Replay(p1, trips, delivered, departures, transitions, searches)


@st.composite
def drawn_configs(draw):
    """A preset's config with each float key moved within 25% of its value, the
    robot and object counts too, as whole numbers, and a drawn seed. The clock
    counts whole ticks, so the horizon is 5 to 20 whole seconds and the tick,
    which is also the leave-check period, a whole fraction of a second. Each
    probability group keeps p_min <= p_initial <= p_max, and a draw the config
    checks refuse is skipped."""
    raw = config_to_dict(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]())
    for key, value in raw.items():
        if isinstance(value, float):
            raw[key] = value * draw(st.floats(0.75, 1.25))
    for key in ("robot_count", "objects_type1", "objects_type2"):
        raw[key] = draw(st.integers(round(raw[key] * 0.75), round(raw[key] * 1.25)))
    raw["horizon_seconds"] = float(draw(st.integers(5, 20)))
    raw["tick_duration"] = raw["leave_check_period"] = 1 / draw(st.integers(8, 13))
    raw["seed"] = draw(st.integers(0, 2**32))
    for prefix in ("leave", "obj1", "obj2"):
        keys = [f"{prefix}_{name}" for name in ("p_min", "p_initial", "p_max")]
        for key, value in zip(keys, sorted(raw[key] for key in keys)):
            raw[key] = value
    try:
        config = config_from_dict(raw)
    except ConfigError:
        config = None
    assume(config is not None)
    return config


def preset_30s(preset):
    """The config of ``preset``, cut to 30 s."""
    return replace(PRESETS[preset](), horizon=30.0)


def on_presets(test):
    """``test``, given a ``config`` and a ``replication``, with each preset cut
    to 30 s at replications 0 and 1 as explicit examples."""
    for name in sorted(PRESETS):
        for replication in (0, 1):
            test = example(config=preset_30s(name), replication=replication)(test)
    return test


@pytest.fixture(scope="session")
def preset_bundle(tmp_path_factory):
    """A function of a preset's name that returns the directory of its
    ``foragesim --preset NAME --replications 2 --event-log`` bundle, written
    through ``main`` once per session, on first use. Tests read it only."""
    written = {}

    def bundle(preset):
        if preset not in written:
            out = tmp_path_factory.mktemp(preset) / "bundle"
            argv = ["--preset", preset, "--replications", "2", "--event-log"]
            assert main([*argv, "--output", str(out)]) == 0
            written[preset] = out
        return written[preset]

    return bundle


@pytest.fixture
def load_script(monkeypatch):
    """A function of a script's path under the checkout, such as
    ``perfbench/run.py``, that imports it as a module. Its directory is on
    ``sys.path`` and the module in ``sys.modules`` only while it loads: the
    script imports its neighbours as top-level modules (``perfbench/`` holds
    a ``bundle.py``), and a ``@dataclass`` looks its module up as it is
    built."""

    def load(relative):
        path = ROOT / relative
        spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        with monkeypatch.context() as patch:
            patch.syspath_prepend(str(path.parent))
            patch.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
        return module

    return load
