import pytest

from foragesim.allocation import VdrParams


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


@pytest.fixture
def table4_params():
    # Experiment Set I leave-nest parameters.
    return VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)


@pytest.fixture
def table9_params():
    # Experiment Set II pickup parameters.
    return VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)
