"""Streak-scaled probability state machines for leave-nest and pickup decisions.

Each robot carries one clamped probability per decision (leave the nest,
pick up object type 1, pick up object type 2). A probability moves up by
``delta`` times the length of the current success streak and down by
``delta`` times the length of the current failure streak, clamped to
``[p_min, p_max]``. Transitions are pure functions of (state, params) so a
brute-force replay from the initial value reproduces them exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple


class ObjectType(enum.IntEnum):
    """The two object kinds; doubles as the task-assignment variant."""

    TYPE1 = 0
    TYPE2 = 1


class Mode(enum.Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


class VdrState(NamedTuple):
    """One clamped probability plus its consecutive success/failure counters."""

    p: float
    succ_streak: int = 0
    fail_streak: int = 0


@dataclass(frozen=True)
class VdrParams:
    p_max: float
    p_min: float
    p_initial: float
    delta: float

    def __post_init__(self) -> None:
        # p_min < p_max: the histograms of final probabilities span [p_min, p_max].
        ordered = 0.0 <= self.p_min <= self.p_initial <= self.p_max <= 1.0
        if not (ordered and self.p_min < self.p_max):
            raise ValueError(
                "require 0 <= p_min <= p_initial <= p_max <= 1 and p_min < p_max, got "
                f"p_min={self.p_min}, p_initial={self.p_initial}, p_max={self.p_max}"
            )
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    def initial_state(self) -> VdrState:
        return VdrState(self.p_initial, 0, 0)


class AllocationState(NamedTuple):
    """Full per-robot allocation state: leave probability plus per-type pickup
    probabilities. In both modes a trip's outcome moves only the leave state. In
    MODIFIED mode each pickup attempt moves the state of the type it tried; in
    ORIGINAL mode the obj states exist but are never touched."""

    leave: VdrState
    obj: tuple[VdrState, VdrState]


def initial_allocation(
    leave_params: VdrParams, obj_params: tuple[VdrParams, VdrParams]
) -> AllocationState:
    return AllocationState(
        leave=leave_params.initial_state(),
        obj=(obj_params[0].initial_state(), obj_params[1].initial_state()),
    )


def vdr_success(state: VdrState, params: VdrParams) -> VdrState:
    """Grow the success streak, reset the failure streak, raise p (clamped)."""
    streak = state.succ_streak + 1
    p = state.p + streak * params.delta
    # The clamp gives the value of min(p_max, p), without the call.
    return VdrState(p if p < params.p_max else params.p_max, streak, 0)


def vdr_failure(state: VdrState, params: VdrParams) -> VdrState:
    """Grow the failure streak, reset the success streak, lower p (clamped)."""
    streak = state.fail_streak + 1
    p = state.p - streak * params.delta
    return VdrState(p if p > params.p_min else params.p_min, 0, streak)


def leave_nest_decision(state: AllocationState, u: float) -> bool:
    """True iff the uniform draw u in [0,1) falls strictly below the leave
    probability."""
    return u < state.leave.p


def assign_task(state: AllocationState, u: float) -> ObjectType:
    """Sample a task assignment proportionally to the two pickup probabilities."""
    p1, p2 = state.obj[0].p, state.obj[1].p
    return ObjectType.TYPE1 if u < p1 / (p1 + p2) else ObjectType.TYPE2


def record_leave_outcome(
    state: AllocationState, delivered: bool, params_leave: VdrParams
) -> AllocationState:
    """Apply a trip's outcome to the leave-nest state only."""
    step = vdr_success if delivered else vdr_failure
    return AllocationState(step(state.leave, params_leave), state.obj)


def record_pickup_event(
    state: AllocationState,
    obj_type: ObjectType,
    success: bool,
    params_obj: tuple[VdrParams, VdrParams],
) -> AllocationState:
    """Apply one pickup attempt's outcome to that object type's state only."""
    step = vdr_success if success else vdr_failure
    first, second = state.obj
    if obj_type:
        second = step(second, params_obj[1])
    else:
        first = step(first, params_obj[0])
    return AllocationState(state.leave, (first, second))


# The engine calls this second name in ORIGINAL mode only because perfbench
# counts ORIGINAL's trip updates under it (ROADMAP item 1).
record_trip_outcome = record_leave_outcome
