"""Unit and property tests for the streak-scaled probability transitions.

Every derived value is checked against ``conftest.replay_oracle``, a
brute-force replay that recomputes p from p_initial event by event, with
the same operation order, so equality is exact floating-point equality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.allocation import (
    ObjectType,
    VdrParams,
    VdrState,
    assign_task,
    leave_nest_decision,
    record_leave_outcome,
    record_pickup_event,
    vdr_failure,
    vdr_success,
)

from conftest import TABLE4, TABLE9, apply_events, replay_oracle


def test_initial_state():
    assert TABLE4.initial_state() == VdrState(0.04, 0, 0)


# -- single transitions -------------------------------------------------------


def test_success_from_fresh_state():
    assert vdr_success(VdrState(0.04, 0, 0), TABLE4) == VdrState(
        0.04 + 1 * 0.0003, 1, 0
    )


def test_success_clamps_at_p_max():
    assert vdr_success(VdrState(0.0799, 1, 0), TABLE4) == VdrState(0.08, 2, 0)


def test_success_resets_failure_streak():
    assert vdr_success(VdrState(0.075, 0, 3), TABLE4) == VdrState(
        0.075 + 1 * 0.0003, 1, 0
    )


def test_failure_from_fresh_state():
    assert vdr_failure(VdrState(0.04, 0, 0), TABLE4) == VdrState(
        0.04 - 1 * 0.0003, 0, 1
    )


def test_failure_clamps_at_p_min():
    assert vdr_failure(VdrState(0.0021, 0, 5), TABLE4) == VdrState(0.002, 0, 6)


def test_failure_resets_success_streak():
    assert vdr_failure(VdrState(0.075, 2, 0), TABLE9) == VdrState(
        0.075 - 1 * 0.0025, 0, 1
    )


# -- decisions ----------------------------------------------------------------


def test_leave_decision_strict_threshold():
    leave = VdrState(0.04)
    assert leave_nest_decision(leave, 0.0399) is True
    assert leave_nest_decision(leave, 0.04) is False
    assert leave_nest_decision(VdrState(0.002), 0.5) is False


def test_assign_task_symmetric():
    pickup = (VdrState(0.075), VdrState(0.075))
    assert assign_task(pickup, 0.49) is ObjectType.TYPE1
    assert assign_task(pickup, 0.51) is ObjectType.TYPE2
    # A draw of exactly p1 / (p1 + p2) goes to type 2.
    assert assign_task(pickup, 0.5) is ObjectType.TYPE2


def test_assign_task_skewed_thresholds():
    # Normalized threshold 0.15 / 0.152, checked against the raw ratio.
    pickup = (VdrState(0.15), VdrState(0.002))
    assert 0.9 < 0.15 / (0.15 + 0.002)
    assert assign_task(pickup, 0.9) is ObjectType.TYPE1
    flipped = (VdrState(0.002), VdrState(0.15))
    assert assign_task(flipped, 0.5) is ObjectType.TYPE2


# -- trip outcome recording ---------------------------------------------------


def test_record_leave_outcome_touches_leave_only():
    # The rule takes and returns the leave state alone: no pickup state
    # reaches it.
    leave = VdrState(0.04)
    won = record_leave_outcome(leave, True, TABLE4)
    lost = record_leave_outcome(leave, False, TABLE4)
    assert type(won) is VdrState and type(lost) is VdrState
    assert won == vdr_success(leave, TABLE4)
    assert lost == vdr_failure(leave, TABLE4)


def test_record_pickup_event_per_type():
    obj_params = (TABLE9, TABLE9)
    pickup = (TABLE9.initial_state(), TABLE9.initial_state())
    out = record_pickup_event(pickup, ObjectType.TYPE2, True, obj_params)
    assert out[1] == vdr_success(pickup[1], TABLE9)
    assert out[0] == pickup[0]
    out = record_pickup_event(pickup, ObjectType.TYPE1, False, obj_params)
    assert out == (vdr_failure(pickup[0], TABLE9), pickup[1])


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
