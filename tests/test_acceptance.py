"""Acceptance suite: the eight release criteria, each reported with one
printed PASS/FAIL line. Criteria 2-5 run the two shipped presets at their
full 20-replication scale, the costliest setup of the suite, so the two
fixtures are module-scoped: each preset runs once for every criterion that
reads it.

Criteria 2-5 judge the numbers ``foragesim.analysis.summarize`` computes
through ``foragesim.analysis.judge``: each bound, and the mode whose runs
must meet it, is a row of ``analysis.CLAIMS``, and the lines print each
bound from its row, reading as they did when the bounds were written here.
The bundle carries criteria 2-4's histograms, bimodality scores and binomial
fit, but not criterion 5's match and loafer-yellow rates, which follow from
``results.csv``'s preference labels and capabilities."""

import json
import random
import time

import pytest

from foragesim.analysis import judge, summarize
from foragesim.bundle import read_bundle
from foragesim.cli import main
from foragesim.experiment import PRESETS, run_experiment, set1_config, set2_config, whole_ticks

from conftest import TABLE4, TABLE9, apply_events, replay, replay_oracle


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def run_preset(config):
    runs = []
    for rep in range(config.replications):
        events = []
        result = run_experiment(config, rep, emit=events.append)
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
def set1_verdicts(set1_data):
    config, runs = set1_data
    return judge(summarize(config, [result for result, _ in runs]), config.mode)


@pytest.fixture(scope="module")
def set2_verdicts(set2_data):
    config, runs = set2_data
    return judge(summarize(config, [result for result, _ in runs]), config.mode)


def judged(verdicts, criterion, spec=""):
    """The verdicts of ``criterion``'s claims, and their bounds as its line
    prints them."""
    chosen = [v for v in verdicts if v.claim.criterion == criterion]
    return chosen, [f"{v.claim.op} {v.claim.bound:{spec}}" for v in chosen]


def test_criterion_1_vdr_oracle_equivalence():
    """1,000 random 500-event sequences: incremental state equals a
    line-by-line replay exactly, in under a second."""
    start = time.perf_counter()
    rng = random.Random(20260823)
    for params in (TABLE4, TABLE9):
        for _ in range(500):
            events = [rng.getrandbits(1) for _ in range(500)]
            # Exact floating equality: same operation order on both sides.
            assert apply_events(params.initial_state(), params, events) == replay_oracle(
                params, events
            )
    elapsed = time.perf_counter() - start
    report(1, "VDR oracle equivalence, 1000x500 events", elapsed < 1.0,
           f"runtime {elapsed:.2f}s")


def test_criterion_2_set1_bimodality(set1_verdicts):
    (score,), (bound,) = judged(set1_verdicts, 2)
    report(2, f"Set I final-P1 bimodality score {bound}", score.passed,
           f"score {score.value:.3f}")


def test_criterion_3_set2_bimodality(set2_verdicts):
    scores, bounds = judged(set2_verdicts, 3)
    (bound,) = set(bounds)  # one bound, so that "all" reads true
    ok = all(v.passed for v in scores)
    detail = ", ".join(f"{v.claim.field.rpartition('.')[2]} {v.value:.3f}" for v in scores)
    report(3, f"Set II bimodality scores all {bound}", ok, detail)


def test_criterion_4_binomial_fit(set1_verdicts, set2_verdicts):
    (set1,), (bound,) = judged(set1_verdicts, 4)
    (set2,), _ = judged(set2_verdicts, 4)
    assert set2.claim is set1.claim  # one claim of both modes
    ok = set1.passed and set2.passed
    detail = f"set1 TV {set1.value:.3f}, set2 TV {set2.value:.3f}"
    report(4, f"forager counts vs Binomial(15, p-hat), TV {bound}", ok, detail)


def test_criterion_5_preference_map(set2_verdicts):
    (match, yellow), bounds = judged(set2_verdicts, 5, ".0%")
    rate = "none" if yellow.value is None else f"{yellow.value:.2f}"
    report(5, f"capability-region labels: match {bounds[0]}, loafer-yellow {bounds[1]}",
           match.passed and yellow.passed, f"match {match.value:.2f}, loafer-yellow {rate}")


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


def test_criterion_7_determinism(tmp_path, preset_bundle):
    # The manifest echoes the whole config that ran: it loads back to the
    # preset's, and a --config rerun from it writes every file of the
    # session's --preset bundle again, the manifest and event logs included.
    same, compared = True, 0
    for preset in ("set1", "set2"):
        written = read_bundle(preset_bundle(preset))
        path, rerun = tmp_path / f"{preset}.json", tmp_path / preset
        path.write_text(json.dumps(written.manifest["config"]))
        same &= written.config == PRESETS[preset](replications=2)
        assert main(["--config", str(path), "--output", str(rerun), "--event-log"]) == 0
        same &= written.files == read_bundle(rerun).files and len(written.files) >= 6
        compared += len(written.files)
    report(7, "each manifest echoes its preset's config and reruns its bundle byte for byte",
           same, f"set1 and set2, {compared} files compared")


def test_criterion_8_state_machine_soundness(set1_data, set2_data):
    legal = {("stopping", "searching"), ("searching", "returning"), ("returning", "stopping")}
    illegal, too_long, searches = set(), 0, 0
    for config, runs in (set1_data, set2_data):
        # Timeout plus one tick of slack, compared in whole ticks to keep the
        # bound exact under float accumulation. A search still open at the
        # horizon is bounded by its age there.
        timeout = whole_ticks("search_timeout_seconds", config.search_timeout, config.tick_duration)
        for _, events in runs:
            folded = replay(events, config)
            illegal |= folded.transitions - legal
            too_long += sum(ticks > timeout + 1 for ticks in folded.searches)
            searches += len(folded.searches)
    report(8, "phase transitions legal, searching bounded by timeout",
           not illegal and not too_long,
           f"{searches} searches audited: {len(illegal)} illegal transitions, "
           f"{too_long} over the timeout")
