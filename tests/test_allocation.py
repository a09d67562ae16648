"""Unit and property tests for the streak-scaled probability transitions.

Every derived value is checked against a brute-force replay oracle that
recomputes p from p_initial event by event, with the same operation order,
so equality is exact floating-point equality.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import (
    AllocationState,
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

SET2_LEAVE = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0015)


def replay_oracle(params, events):
    """Line-by-line replay: recompute the state from p_initial."""
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
    for success in events:
        state = vdr_success(state, params) if success else vdr_failure(state, params)
    return state


def alloc(leave=None, obj1=None, obj2=None, params=None):
    params = params or SET2_LEAVE
    base = VdrState(params.p_initial)
    return AllocationState(leave=leave or base, obj=(obj1 or base, obj2 or base))


# -- params validation -------------------------------------------------------


def test_params_reject_bad_ordering():
    with pytest.raises(ValueError):
        VdrParams(p_max=0.08, p_min=0.1, p_initial=0.04, delta=0.0003)
    with pytest.raises(ValueError):
        VdrParams(p_max=0.08, p_min=0.002, p_initial=0.09, delta=0.0003)
    with pytest.raises(ValueError):
        VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0)
    # The histograms of final probabilities span [p_min, p_max].
    with pytest.raises(ValueError, match="p_min < p_max"):
        VdrParams(p_max=0.04, p_min=0.04, p_initial=0.04, delta=0.0003)


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_params_reject_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=delta)


def test_initial_state(table4_params):
    assert table4_params.initial_state() == VdrState(0.04, 0, 0)


# -- single transitions -------------------------------------------------------


def test_success_from_fresh_state(table4_params):
    assert vdr_success(VdrState(0.04, 0, 0), table4_params) == VdrState(
        0.04 + 1 * 0.0003, 1, 0
    )


def test_success_clamps_at_p_max(table4_params):
    assert vdr_success(VdrState(0.0799, 1, 0), table4_params) == VdrState(0.08, 2, 0)


def test_success_resets_failure_streak(table4_params):
    assert vdr_success(VdrState(0.075, 0, 3), table4_params) == VdrState(
        0.075 + 1 * 0.0003, 1, 0
    )


def test_failure_from_fresh_state(table4_params):
    assert vdr_failure(VdrState(0.04, 0, 0), table4_params) == VdrState(
        0.04 - 1 * 0.0003, 0, 1
    )


def test_failure_clamps_at_p_min(table4_params):
    assert vdr_failure(VdrState(0.0021, 0, 5), table4_params) == VdrState(0.002, 0, 6)


def test_failure_resets_success_streak(table9_params):
    assert vdr_failure(VdrState(0.075, 2, 0), table9_params) == VdrState(
        0.075 - 1 * 0.0025, 0, 1
    )


def test_transitions_do_not_mutate_input(table4_params):
    state = VdrState(0.04, 0, 0)
    vdr_success(state, table4_params)
    vdr_failure(state, table4_params)
    assert state == VdrState(0.04, 0, 0)


# -- decisions ----------------------------------------------------------------


def test_leave_decision_strict_threshold():
    state = alloc(leave=VdrState(0.04))
    assert leave_nest_decision(state, 0.0399) is True
    assert leave_nest_decision(state, 0.04) is False
    low = alloc(leave=VdrState(0.002))
    assert leave_nest_decision(low, 0.5) is False


def test_assign_task_symmetric():
    state = alloc(obj1=VdrState(0.075), obj2=VdrState(0.075))
    assert assign_task(state, 0.49) is ObjectType.TYPE1
    assert assign_task(state, 0.51) is ObjectType.TYPE2


def test_assign_task_skewed_thresholds():
    # Normalized threshold 0.15 / 0.152, checked against the raw ratio.
    state = alloc(obj1=VdrState(0.15), obj2=VdrState(0.002))
    assert 0.9 < 0.15 / (0.15 + 0.002)
    assert assign_task(state, 0.9) is ObjectType.TYPE1
    flipped = alloc(obj1=VdrState(0.002), obj2=VdrState(0.15))
    assert assign_task(flipped, 0.5) is ObjectType.TYPE2


# -- trip outcome recording ---------------------------------------------------


def test_trip_outcome_original_delivered(table4_params):
    state = alloc(leave=VdrState(0.04), params=table4_params)
    out = record_leave_outcome(state, True, table4_params)
    assert out.leave == vdr_success(VdrState(0.04), table4_params)
    assert out.obj == state.obj


def test_record_leave_outcome_touches_leave_only(table4_params):
    state = alloc(leave=VdrState(0.04), params=table4_params)
    won = record_leave_outcome(state, True, table4_params)
    lost = record_leave_outcome(state, False, table4_params)
    assert won.leave == vdr_success(state.leave, table4_params)
    assert lost.leave == vdr_failure(state.leave, table4_params)
    assert won.obj == state.obj and lost.obj == state.obj


def test_record_pickup_event_per_type(table9_params):
    obj_params = (table9_params, table9_params)
    state = alloc()
    out = record_pickup_event(state, ObjectType.TYPE2, True, obj_params)
    assert out.obj[1] == vdr_success(state.obj[1], table9_params)
    assert out.obj[0] == state.obj[0]
    assert out.leave == state.leave


def test_initial_allocation(table4_params, table9_params):
    state = initial_allocation(table4_params, (table9_params, table9_params))
    assert state.leave == VdrState(0.04, 0, 0)
    assert state.obj == (VdrState(0.075, 0, 0), VdrState(0.075, 0, 0))


# -- properties ---------------------------------------------------------------

params_strategy = st.sampled_from(
    [
        VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003),
        VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025),
        VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0015),
    ]
)


@settings(max_examples=200)
@given(params=params_strategy, events=st.lists(st.booleans(), max_size=200))
def test_oracle_equivalence_exact(params, events):
    incremental = apply_events(params.initial_state(), params, events)
    assert incremental == replay_oracle(params, events)


@settings(max_examples=200)
@given(params=params_strategy, events=st.lists(st.booleans(), max_size=200))
def test_clamp_closure_and_streak_exclusivity(params, events):
    state = params.initial_state()
    for success in events:
        state = vdr_success(state, params) if success else vdr_failure(state, params)
        assert params.p_min <= state.p <= params.p_max
        assert state.succ_streak * state.fail_streak == 0


@given(params=params_strategy, k=st.integers(min_value=1, max_value=10))
def test_monotone_streak_growth(params, k):
    # k successes from a fresh start add delta * k(k+1)/2 unless clamped.
    state = apply_events(params.initial_state(), params, [True] * k)
    unclamped = params.p_initial + params.delta * (k * (k + 1) // 2)
    if unclamped <= params.p_max:
        assert state.succ_streak == k
        assert state == replay_oracle(params, [True] * k)


@settings(max_examples=100)
@given(events=st.lists(st.booleans(), max_size=100))
def test_mode_isolation_original(events):
    leave = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
    obj = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)
    state = initial_allocation(leave, (obj, obj))
    before = state.obj
    for success in events:
        state = record_leave_outcome(state, success, leave)
    assert state.obj == before
