"""Acceptance suite: the eight release criteria, each reported with one
printed PASS/FAIL line. Criteria 2-5 run the two shipped presets at their
full 20-replication scale: the two fixtures take about 6.8 s in all on a
2-core host, second only to the contact-grid property test."""

import random
import time

import pytest

from foragesim import (
    VdrParams,
    VdrState,
    run_experiment,
    set1_config,
    set2_config,
    summarize,
    vdr_failure,
    vdr_success,
)
from foragesim.cli import run_command

TABLE4 = VdrParams(p_max=0.08, p_min=0.002, p_initial=0.04, delta=0.0003)
TABLE9 = VdrParams(p_max=0.15, p_min=0.002, p_initial=0.075, delta=0.0025)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def run_preset(config):
    runs = []
    for rep in range(config.replications):
        events = []
        result = run_experiment(config, rep, events=events)
        runs.append((result, events))
    return runs


@pytest.fixture(scope="module")
def set1_data():
    config = set1_config()
    return config, run_preset(config)


@pytest.fixture(scope="module")
def set2_data():
    config = set2_config()
    return config, run_preset(config)


@pytest.fixture(scope="module")
def set1_summary(set1_data):
    config, runs = set1_data
    return summarize(config, [result for result, _ in runs])


@pytest.fixture(scope="module")
def set2_summary(set2_data):
    config, runs = set2_data
    return summarize(config, [result for result, _ in runs])


def test_criterion_1_vdr_oracle_equivalence():
    """1,000 random 500-event sequences: incremental state equals a
    line-by-line replay exactly, in under a second."""
    start = time.perf_counter()
    rng = random.Random(20260823)
    for params in (TABLE4, TABLE9):
        for _ in range(500):
            state = params.initial_state()
            p = params.p_initial
            succ = fail = 0
            for _ in range(500):
                if rng.getrandbits(1):
                    state = vdr_success(state, params)
                    succ += 1
                    fail = 0
                    p = min(params.p_max, p + succ * params.delta)
                else:
                    state = vdr_failure(state, params)
                    fail += 1
                    succ = 0
                    p = max(params.p_min, p - fail * params.delta)
            # Exact floating equality: same operation order on both sides.
            assert state == VdrState(p, succ, fail)
    elapsed = time.perf_counter() - start
    report(1, "VDR oracle equivalence, 1000x500 events", elapsed < 1.0,
           f"runtime {elapsed:.2f}s")


def test_criterion_2_set1_bimodality(set1_summary):
    score = set1_summary.bimodality["p1"]
    report(2, "Set I final-P1 bimodality score >= 0.6", score >= 0.6,
           f"score {score:.3f}")


def test_criterion_3_set2_bimodality(set2_summary):
    scores = set2_summary.bimodality
    ok = all(s >= 0.5 for s in scores.values())
    detail = ", ".join(f"{k} {v:.3f}" for k, v in scores.items())
    report(3, "Set II bimodality scores all >= 0.5", ok, detail)


def test_criterion_4_binomial_fit(set1_summary, set2_summary):
    distances = {
        "set1": set1_summary.binomial.tv_distance,
        "set2": set2_summary.binomial.tv_distance,
    }
    ok = all(d <= 0.35 for d in distances.values())
    detail = ", ".join(f"{k} TV {v:.3f}" for k, v in distances.items())
    report(4, "forager counts vs Binomial(15, p-hat), TV <= 0.35", ok, detail)


def test_criterion_5_preference_map(set2_summary):
    match_rate = set2_summary.match_rate
    yellow_rate = set2_summary.loafer_yellow_rate
    # A batch with no robot in the loafer region cannot show loafers go yellow.
    ok = match_rate >= 0.6 and yellow_rate is not None and yellow_rate >= 0.5
    yellow = "none" if yellow_rate is None else f"{yellow_rate:.2f}"
    report(5, "capability-region labels: match >= 60%, loafer-yellow >= 50%",
           ok, f"match {match_rate:.2f}, loafer-yellow {yellow}")


def test_criterion_6_conservation(set1_data, set2_data):
    """The tick loop asserts free+carried totals every tick and aborts the
    run on violation, so completing every acceptance run with nonzero
    retrievals certifies zero violations; re-check the retrieval activity."""
    activity = []
    for config, runs in (set1_data, set2_data):
        retrieved = [sum(result.retrieved) for result, _ in runs]
        activity.append(sum(retrieved))
        assert len(runs) == config.replications
    ok = all(a > 0 for a in activity)
    report(6, "object conservation held at every tick of every run", ok,
           f"retrievals set1 {activity[0]}, set2 {activity[1]}")


def test_criterion_7_determinism(tmp_path):
    from dataclasses import replace

    config = replace(set1_config(), replications=2)
    bundles = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_command(config, str(out), event_log=True)
        bundles.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    ok = bundles[0] == bundles[1] and len(bundles[0]) >= 6
    report(7, "identical config+seed produce byte-identical bundles", ok,
           f"{len(bundles[0])} files compared")


def test_criterion_8_state_machine_soundness(set1_data, set2_data):
    legal = {
        ("stopping", "searching"),
        ("searching", "returning"),
        ("returning", "stopping"),
    }
    audited = 0
    for config, runs in (set1_data, set2_data):
        # Timeout plus one tick of slack, compared in whole ticks to keep
        # the bound exact under float accumulation.
        slack_ticks = round(config.search_timeout / config.tick_duration) + 1
        for _, events in runs:
            entered = {}
            for record in events:
                if record[0] != "phase":
                    continue
                _, tick, rid, old, new = record
                assert (old, new) in legal, f"illegal transition {old}->{new}"
                if new == "searching":
                    entered[rid] = tick
                elif old == "searching":
                    duration = tick - entered.pop(rid)
                    assert duration <= slack_ticks, f"searching for {duration} ticks"
                audited += 1
    report(8, "phase transitions legal, searching bounded by timeout", True,
           f"{audited} transitions audited")
