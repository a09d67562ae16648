from pathlib import Path

from foragesim.allocation import VdrParams, VdrState
from foragesim.arena import RobotPhase
from foragesim.engine import Robot

# Experiment Set I leave-nest parameters, and Set II pickup parameters.
TABLE4 = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
TABLE9 = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)


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
