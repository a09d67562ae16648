"""Analysis pipeline tests: classification, expected labels, binomial fit,
histograms, and the bimodality score."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foragesim.analysis import (
    PreferenceLabel,
    bimodality_score,
    binomial_comparison,
    binomial_pmf,
    classify_foragers,
    classify_preferences,
    expected_label,
    histogram,
    midpoint_threshold,
    summarize,
)
from foragesim.experiment import RunResult, set2_config


def make_result(final_p1, final_pobj=None):
    n = len(final_p1)
    return RunResult(
        final_p1=list(final_p1),
        final_pobj=final_pobj,
        retrieved=(0, 0),
        trips=[(0, 0)] * n,
        capabilities=[(0.5, 0.5)] * n,
    )


# -- forager classification -----------------------------------------------------


def test_classify_midpoint_split():
    p1 = [0.002, 0.08, 0.08]
    (cls,) = classify_foragers([make_result(p1)], 0.08)
    assert cls.threshold == pytest.approx(0.041)
    assert cls.forager_ids == [1, 2]
    assert p1[0] <= cls.threshold  # the loafer
    assert not cls.degenerate


def test_classify_degenerate_run():
    # Every robot at the same p1: all forage at p_max, none anywhere else.
    at_max, at_min, between = classify_foragers(
        [make_result([p] * 15) for p in (0.08, 0.002, 0.04)], 0.08
    )
    assert at_max.degenerate and at_min.degenerate and between.degenerate
    assert at_max.forager_ids == list(range(15))
    assert at_min.forager_ids == []
    assert between.forager_ids == []
    assert between.threshold == 0.04


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
def test_classify_partition_property(p1, p_max, p_max_is_largest):
    if p_max_is_largest:
        p_max = max(p1)
    (cls,) = classify_foragers([make_result(p1)], p_max)
    assert cls.forager_ids == sorted(set(cls.forager_ids))
    assert cls.degenerate == (min(p1) == max(p1))
    if cls.degenerate:
        # No midpoint splits the run: all forage at p_max, none otherwise.
        expected = list(range(len(p1))) if p1[0] == p_max else []
        assert cls.forager_ids == expected
        return
    # Foragers are the robots strictly above the threshold, in id order;
    # every other robot is a loafer.
    for i, p in enumerate(p1):
        assert (i in cls.forager_ids) == (p > cls.threshold)


# -- preference labels ------------------------------------------------------------


def test_preferences_yellow_both_low():
    # Other robots stretch the per-run ranges so both midpoints are 0.076.
    pobj = ([0.002, 0.15], [0.002, 0.15])
    labels = classify_preferences(make_result([0.04, 0.04], pobj))
    assert midpoint_threshold(pobj[0]) == pytest.approx(0.076)
    assert labels[0] is PreferenceLabel.YELLOW


def test_preferences_green_and_purple():
    pobj = ([0.15, 0.10, 0.002], [0.002, 0.14, 0.002])
    labels = classify_preferences(make_result([0.04] * 3, pobj))
    assert labels[0] is PreferenceLabel.GREEN  # 0.15 vs 0.002
    assert labels[1] is PreferenceLabel.PURPLE  # both above midpoints, 0.14 wins
    assert labels[2] is PreferenceLabel.YELLOW


def test_preferences_tie_goes_green():
    pobj = ([0.15, 0.002], [0.15, 0.002])
    labels = classify_preferences(make_result([0.04, 0.04], pobj))
    assert labels[0] is PreferenceLabel.GREEN


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.002, max_value=0.15),
            st.floats(min_value=0.002, max_value=0.15),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_label_totality(pairs):
    pobj = ([a for a, _ in pairs], [b for _, b in pairs])
    labels = classify_preferences(make_result([0.04] * len(pairs), pobj))
    assert len(labels) == len(pairs)
    assert all(isinstance(l, PreferenceLabel) for l in labels)


# -- expected labels ---------------------------------------------------------------


def test_expected_label_examples():
    # One point in each capability region: the loafer square and the two
    # forager trapezoids either side of the diagonal.
    assert expected_label((0.3, 0.4)) is PreferenceLabel.YELLOW
    assert expected_label((0.9, 0.2)) is PreferenceLabel.GREEN
    assert expected_label((0.5, 0.5)) is PreferenceLabel.GREEN  # tie-break
    assert expected_label((0.2, 0.9)) is PreferenceLabel.PURPLE


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_region_map_partitions_unit_square(c1, c2):
    label = expected_label((c1, c2))
    assert (label is PreferenceLabel.YELLOW) == (c1 < 0.5 and c2 < 0.5)
    if label is not PreferenceLabel.YELLOW:
        assert (label is PreferenceLabel.GREEN) == (c1 >= c2)


# -- binomial comparison -------------------------------------------------------------


def test_binomial_degenerate_match():
    comp = binomial_comparison([15] * 20, 15)
    assert comp.p_hat == 1.0
    assert comp.tv_distance == pytest.approx(0.0)


def test_binomial_split_counts():
    comp = binomial_comparison([0, 15] * 10, 15)
    assert comp.p_hat == pytest.approx(0.5)
    # Theoretical mass concentrates around k=7,8; observed sits at 0 and 15.
    assert comp.theoretical[7] == max(comp.theoretical)
    assert comp.tv_distance > 0.9


def test_binomial_tv_distance_same_on_every_python():
    # The terms are added left to right. From Python 3.12 on, sum() of
    # these terms reads 0.33862400000000004 instead.
    assert binomial_comparison([0, 2, 4, 3, 3], 6).tv_distance == 0.3386240000000001


def brute_force_pmf(n, k, p):
    # Product-of-terms evaluation, no math.comb.
    coeff = 1.0
    for i in range(k):
        coeff *= (n - i) / (i + 1)
    return coeff * p**k * (1 - p) ** (n - k)


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_binomial_pmf_against_oracle(n, p):
    total = 0.0
    for k in range(n + 1):
        pmf = binomial_pmf(n, k, p)
        assert pmf == pytest.approx(brute_force_pmf(n, k, p), rel=1e-9, abs=1e-15)
        total += pmf
    assert abs(total - 1.0) <= 1e-12


# -- histograms -----------------------------------------------------------------------


def test_histogram_point_mass():
    counts = histogram([0.04] * 15, 0.0, 0.08)
    assert counts == [0, 0, 0, 0, 15, 0, 0, 0]


def test_histogram_bimodal_fixture():
    counts = histogram([0.002] * 7 + [0.08] * 8, 0.002, 0.08)
    assert counts[0] == 7 and counts[-1] == 8
    assert sum(counts[1:-1]) == 0


def test_histogram_uniform_grid():
    low, high = 0.0, 1.0
    values = [low + (i + 0.5) * (high - low) / 16 for i in range(16)]
    assert histogram(values, low, high) == [2] * 8


def test_histogram_clamps_out_of_range():
    counts = histogram([-1.0, 2.0], 0.0, 1.0)
    assert counts == [1, 0, 0, 0, 0, 0, 0, 1]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
def test_histogram_mass_conservation(values):
    assert sum(histogram(values, 0.0, 1.0)) == len(values)


# -- bimodality score -----------------------------------------------------------------


def test_bimodality_extremes():
    assert bimodality_score([7, 0, 0, 0, 0, 0, 0, 8]) == 1.0
    assert bimodality_score([0, 0, 0, 0, 15, 0, 0, 0]) == 0.0


# -- summary ------------------------------------------------------------------------


def test_summarize_without_loafer_region_robots():
    # make_result gives every robot capability (0.5, 0.5): outside the loafer square.
    config = replace(set2_config(), robot_count=1)
    summary = summarize(config, [make_result([0.04], ([0.1], [0.1]))])
    assert summary.loafer_yellow_rate is None
    assert summary.match_rate == 1.0
