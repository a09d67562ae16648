"""Streak-scaled probability state machines for leave-nest and pickup decisions.

Each robot carries one clamped probability per decision (leave the nest,
pick up object type 1, pick up object type 2). A probability moves up by
``delta`` times the length of the current success streak and down by
``delta`` times the length of the current failure streak, clamped to
``[p_min, p_max]``. Transitions are pure functions of (state, params) so a
brute-force replay from the initial value reproduces them exactly.

Each rule takes and returns only the state it reads or moves: a trip's
outcome moves the leave state, in both modes; a pickup attempt moves the
pickup state of the type it tried, in MODIFIED mode only.
"""

from __future__ import annotations

import enum
import reprlib
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple


class ObjectType(enum.IntEnum):
    """The two object kinds; doubles as the task-assignment variant."""

    TYPE1 = 0
    TYPE2 = 1


class Mode(enum.Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


def check_number(name: str, value) -> float:
    """``value`` as a float; ``ValueError`` naming the config key ``name`` unless it is
    a finite int or float (a bool is neither; an int past the float range is not finite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    if not abs(value) <= sys.float_info.max:  # NaN compares false too
        echo = value if isinstance(value, float) else "an int past the float range"
        raise ValueError(f"{name} must be finite, got {echo}")
    return float(value)


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
        for spec in fields(self):  # frozen: each float is set past its __setattr__
            object.__setattr__(self, spec.name, check_number(spec.name, getattr(self, spec.name)))
        # p_min < p_max: the histograms of final probabilities span [p_min, p_max].
        ordered = 0.0 <= self.p_min <= self.p_initial <= self.p_max <= 1.0
        if not (ordered and self.p_min < self.p_max):
            raise ValueError("require 0 <= p_min <= p_initial <= p_max <= 1 and p_min < p_max")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {reprlib.repr(self.delta)}")

    def initial_state(self) -> VdrState:
        return VdrState(self.p_initial, 0, 0)


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


def leave_nest_decision(leave: VdrState, u: float) -> bool:
    """True iff the uniform draw u in [0,1) falls strictly below the leave
    probability."""
    return u < leave.p


def assign_task(pickup: tuple[VdrState, VdrState], u: float) -> ObjectType:
    """Sample a task assignment proportionally to the two pickup probabilities."""
    p1, p2 = pickup[0].p, pickup[1].p
    return ObjectType.TYPE1 if u < p1 / (p1 + p2) else ObjectType.TYPE2


def record_leave_outcome(leave: VdrState, delivered: bool, params_leave: VdrParams) -> VdrState:
    """Apply a trip's outcome to the leave-nest state."""
    return (vdr_success if delivered else vdr_failure)(leave, params_leave)


def record_pickup_event(
    pickup: tuple[VdrState, VdrState],
    obj_type: ObjectType,
    success: bool,
    params_obj: tuple[VdrParams, VdrParams],
) -> tuple[VdrState, VdrState]:
    """Apply one pickup attempt's outcome to that object type's state only."""
    step = vdr_success if success else vdr_failure
    first, second = pickup
    if obj_type:
        return first, step(second, params_obj[1])
    return step(first, params_obj[0]), second
