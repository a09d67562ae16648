"""Deterministic 2D multi-robot foraging simulator with streak-scaled
self-organized task allocation."""

__version__ = "0.1.0"

from .allocation import (
    AllocationState,
    Mode,
    ObjectType,
    VdrParams,
    VdrState,
    assign_task,
    initial_allocation,
    leave_nest_decision,
    record_leave_outcome,
    record_pickup_event,
    vdr_failure,
    vdr_success,
)
from .arena import ArenaConfig, World, WorldObject
from .engine import Robot, RobotPhase, SimClock, Simulation
from .experiment import (
    ExperimentConfig,
    PRESETS,
    RunResult,
    run_experiment,
    set1_config,
    set2_config,
)
from .analysis import (
    BinomialComparison,
    PreferenceLabel,
    Summary,
    bimodality_score,
    binomial_comparison,
    classify_foragers,
    classify_preferences,
    expected_label,
    histogram,
    summarize,
)
