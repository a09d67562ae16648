"""Post-run analyses: histograms, forager/loafer classification, preference
labels and the label each capability calls for, and the binomial comparison.
``summarize`` computes all of them for one batch of runs."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .allocation import Mode
from .experiment import ExperimentConfig, RunResult

HISTOGRAM_BINS = 8


class PreferenceLabel(enum.Enum):
    YELLOW = "yellow"  # loafer: both pickup probabilities ended low
    GREEN = "green"  # prefers object type 1
    PURPLE = "purple"  # prefers object type 2


@dataclass
class RunClassification:
    threshold: float
    forager_ids: list  # the others are loafers
    degenerate: bool


@dataclass
class BinomialComparison:
    p_hat: float
    observed: list  # empirical frequency of each forager count k = 0..n
    theoretical: list  # Binomial(n, p_hat) mass at each k
    tv_distance: float


@dataclass
class Summary:
    """The numbers the paper's claims are judged on, for one batch of runs."""

    classification: list  # RunClassification per run
    labels: Optional[list]  # PreferenceLabel list per run; MODIFIED only
    bins: dict  # histogram counts of the final probabilities, by name
    ranges: dict  # (low, high) span of each histogram, by name
    bimodality: dict  # bimodality score of each histogram, by name
    binomial: BinomialComparison
    match_rate: Optional[float]  # share of labels as expected_label; MODIFIED only
    loafer_yellow_rate: Optional[float]  # of loafer-region robots; None when none


def midpoint_threshold(values: Sequence[float]) -> float:
    return (min(values) + max(values)) / 2.0


def classify_foragers(results: Sequence[RunResult], p_max: float) -> list:
    """Split each run's robots at the midpoint of that run's min and max
    final leave probability; strictly-above robots are foragers. A run in
    which every robot ends at the same probability (degenerate) has no
    midpoint to split at: all its robots are foragers if they sit at
    ``p_max``, and none is otherwise. Returns one ``RunClassification`` per
    run."""
    runs = []
    for result in results:
        p1 = result.final_p1
        threshold = midpoint_threshold(p1)
        degenerate = min(p1) == max(p1)
        if degenerate:
            foragers = list(range(len(p1))) if p1[0] == p_max else []
        else:
            foragers = [i for i, p in enumerate(p1) if p > threshold]
        runs.append(RunClassification(threshold, foragers, degenerate))
    return runs


def classify_preferences(result: RunResult) -> list:
    """Label each robot of a modified-mode run by its final pickup
    probabilities: YELLOW when both fall below their per-run midpoints,
    otherwise GREEN/PURPLE by the larger of the two (ties go GREEN)."""
    pobj1, pobj2 = result.final_pobj
    mid1 = midpoint_threshold(pobj1)
    mid2 = midpoint_threshold(pobj2)
    labels = []
    for a, b in zip(pobj1, pobj2):
        if a < mid1 and b < mid2:
            labels.append(PreferenceLabel.YELLOW)
        elif a >= b:
            labels.append(PreferenceLabel.GREEN)
        else:
            labels.append(PreferenceLabel.PURPLE)
    return labels


def expected_label(capability: Sequence[float]) -> PreferenceLabel:
    """The label a robot's capability region calls for: both capabilities
    below 0.5 is the loafer square (YELLOW); otherwise the diagonal splits
    the type-1 (GREEN) and type-2 (PURPLE) trapezoids, ties going GREEN."""
    c1, c2 = capability
    if c1 < 0.5 and c2 < 0.5:
        return PreferenceLabel.YELLOW
    return PreferenceLabel.GREEN if c1 >= c2 else PreferenceLabel.PURPLE


def binomial_pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def binomial_comparison(
    forager_counts: Sequence[int], robot_count: int
) -> BinomialComparison:
    """Compare the observed forager-count distribution against a binomial
    with moment-matched success probability, via total-variation distance."""
    n_runs = len(forager_counts)
    p_hat = sum(forager_counts) / (n_runs * robot_count)
    observed = [0.0] * (robot_count + 1)
    for c in forager_counts:
        observed[c] += 1.0 / n_runs
    theoretical = [binomial_pmf(robot_count, k, p_hat) for k in range(robot_count + 1)]
    # Added left to right: from Python 3.12 on, sum() of floats rounds
    # differently, and the manifest must read the same on every version.
    tv = 0.0
    for o, t in zip(observed, theoretical):
        tv += abs(o - t)
    tv *= 0.5
    return BinomialComparison(p_hat, observed, theoretical, tv)


def histogram(values: Sequence[float], low: float, high: float) -> list:
    """``HISTOGRAM_BINS`` equal-width bin counts over [low, high]; values out
    of range are clamped into the edge bins, so counts sum to len(values)."""
    counts = [0] * HISTOGRAM_BINS
    width = (high - low) / HISTOGRAM_BINS
    for v in values:
        # Clamp before truncating: (v - low) / width can overflow int() for
        # extreme inputs even though the bin index is saturated anyway.
        scaled = min(float(HISTOGRAM_BINS - 1), max(0.0, (v - low) / width))
        counts[int(scaled)] += 1
    return counts


def bimodality_score(bins: Sequence[int]) -> float:
    """Fraction of histogram mass sitting in the two extreme bins; the
    quantitative stand-in for a visual two-peak judgement."""
    return (bins[0] + bins[-1]) / sum(bins)


def summarize(config: ExperimentConfig, results: Sequence[RunResult]) -> Summary:
    """Classify the robots of every run of ``config`` and compute the
    histograms and bimodality scores of the final probabilities (``p1``, plus
    ``pobj1``/``pobj2`` in MODIFIED mode), the binomial fit of the forager
    counts and, in MODIFIED mode, how well preference labels follow
    ``expected_label``."""
    runs = classify_foragers(results, config.leave_params.p_max)
    groups = [("p1", config.leave_params, [p for r in results for p in r.final_p1])]
    labels = match_rate = loafer_yellow_rate = None
    if config.mode is Mode.MODIFIED:
        for i, name in enumerate(("pobj1", "pobj2")):
            values = [p for r in results for p in r.final_pobj[i]]
            groups.append((name, config.obj_params[i], values))
        labels = [classify_preferences(r) for r in results]
        matches = loafers = loafer_yellow = 0
        for result, run_labels in zip(results, labels):
            for capability, label in zip(result.capabilities, run_labels):
                expected = expected_label(capability)
                match = expected is label
                matches += match
                if expected is PreferenceLabel.YELLOW:
                    loafers += 1
                    loafer_yellow += match
        match_rate = matches / sum(map(len, labels))
        loafer_yellow_rate = loafer_yellow / loafers if loafers else None
    bins = {
        name: histogram(values, params.p_min, params.p_max)
        for name, params, values in groups
    }
    return Summary(
        classification=runs,
        labels=labels,
        bins=bins,
        ranges={name: (params.p_min, params.p_max) for name, params, _ in groups},
        bimodality={name: bimodality_score(counts) for name, counts in bins.items()},
        binomial=binomial_comparison(
            [len(run.forager_ids) for run in runs], config.robot_count
        ),
        match_rate=match_rate,
        loafer_yellow_rate=loafer_yellow_rate,
    )
