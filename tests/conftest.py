from pathlib import Path

import pytest

from foragesim.allocation import VdrParams, VdrState, vdr_failure, vdr_success
from foragesim.arena import RobotPhase
from foragesim.cli import main
from foragesim.engine import Robot

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
        self.calls = 0

    def random(self):
        self.calls += 1
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


def bundle_files(directory):
    """Each file of a bundle directory, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


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
