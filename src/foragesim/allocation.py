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
from typing import NamedTuple, Optional


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
    probabilities. In ORIGINAL mode the obj states exist but are never touched."""

    leave: VdrState
    obj: tuple[VdrState, VdrState]
    mode: Mode


def initial_allocation(
    mode: Mode, leave_params: VdrParams, obj_params: tuple[VdrParams, VdrParams]
) -> AllocationState:
    return AllocationState(
        leave=leave_params.initial_state(),
        obj=(obj_params[0].initial_state(), obj_params[1].initial_state()),
        mode=mode,
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
    """Sample a task assignment proportionally to the two pickup probabilities.

    Only meaningful in MODIFIED mode; ORIGINAL-mode robots never hold an
    assignment and calling this for one is a bug in the caller.
    """
    if state.mode is not Mode.MODIFIED:
        raise ValueError("task assignment is only defined in MODIFIED mode")
    p1, p2 = state.obj[0].p, state.obj[1].p
    return ObjectType.TYPE1 if u < p1 / (p1 + p2) else ObjectType.TYPE2


def record_leave_outcome(
    state: AllocationState, delivered: bool, params_leave: VdrParams
) -> AllocationState:
    """Apply a trip's outcome to the leave-nest state only."""
    step = vdr_success if delivered else vdr_failure
    return state._replace(leave=step(state.leave, params_leave))


def record_pickup_event(
    state: AllocationState,
    obj_type: ObjectType,
    success: bool,
    params_obj: tuple[VdrParams, VdrParams],
) -> AllocationState:
    """Apply one pickup attempt's outcome to that object type's state only."""
    if state.mode is not Mode.MODIFIED:
        raise ValueError("pickup-probability updates only exist in MODIFIED mode")
    step = vdr_success if success else vdr_failure
    obj = list(state.obj)
    obj[obj_type] = step(obj[obj_type], params_obj[obj_type])
    return state._replace(obj=(obj[0], obj[1]))


def record_trip_outcome(
    state: AllocationState,
    assignment: Optional[ObjectType],
    delivered: bool,
    params_leave: VdrParams,
    params_obj: tuple[VdrParams, VdrParams],
) -> AllocationState:
    """Apply one completed trip's outcome to the allocation state.

    ORIGINAL mode updates only the leave state. MODIFIED mode updates the
    assigned object type's state and the leave state, in that order; the
    non-assigned object state is untouched.
    """
    if state.mode is Mode.ORIGINAL:
        if assignment is not None:
            raise ValueError("assignment must be absent in ORIGINAL mode")
        step = vdr_success if delivered else vdr_failure
        return state._replace(leave=step(state.leave, params_leave))

    if assignment is None:
        raise ValueError("assignment is required in MODIFIED mode")
    step = vdr_success if delivered else vdr_failure
    obj = list(state.obj)
    obj[assignment] = step(obj[assignment], params_obj[assignment])
    leave = step(state.leave, params_leave)
    return AllocationState(leave=leave, obj=(obj[0], obj[1]), mode=state.mode)
