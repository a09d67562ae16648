"""Golden bytes: the preset bundles must stay the same to the byte.

The benchmark's record, ``perfbench/expected.json``, holds for each
workload and seed the SHA-256 of every bundle file but ``manifest.json``
(which echoes the package version), the manifest's ``retrieved_totals`` and
the exact per-layer counts of a traced bundle. Tier-1 runs the benchmark's
own check on two of its pairs, one per mode, in
``test_cli.py::test_benchmark_tracer_counts_each_mode_under_its_name``:
``set1`` seed 1, the Set I preset at 4 replications, and ``set2-events``
seed 2, the Set II preset at 2 replications with the event log. Their
``engine.ticks`` counts pin where ``Simulation.run`` stops. CI's Linux
benchmark step checks the rest that it runs: seed 1 of every workload,
``crowd`` among them, and the hold-out seed 1001, traced and untraced.

The session's ``preset_bundle`` (``foragesim --preset NAME --replications 2
--event-log``) for ``set2`` is the config of the record's ``set2-events``
seed 2, written through ``--preset``; acceptance criterion 7 ties each
session bundle to a ``--config`` rerun from its manifest, byte for byte.
The record holds no ORIGINAL-mode event log, so ``GOLDEN`` keeps the
digests of the session's ``set1`` bundle's two event logs by hand. A change
that alters the record or a digest changes simulation results and must say
why. The digests assume this platform's libm. The event log, folded by
``conftest.replay``, must also agree with ``results.csv`` and the manifest.
"""

import hashlib

import pytest

from foragesim.bundle import read_bundle

from conftest import replay

GOLDEN = {
    "events_run000.jsonl": "be67e0e5f04493a63fa8e9657794e76aed30d808cfbc7478619d9a80f6cc7b6d",
    "events_run001.jsonl": "04242b9cdd10148a38e06de9bcee40072d6033014764c1ad8127baefe0858f01",
}


# set2's bytes are the record's, checked by the tracer test.
@pytest.mark.parametrize("preset", ["set1"])
def test_preset_bundle_digests(preset, preset_bundle):
    files = read_bundle(preset_bundle(preset)).files
    assert {name: hashlib.sha256(files[name]).hexdigest() for name in GOLDEN} == GOLDEN


@pytest.mark.parametrize("preset", ["set1", "set2"])
def test_event_log_agrees_with_results_and_manifest(preset, preset_bundle):
    # A sink that drops or reorders a record fails here, not only a digest.
    bundle = read_bundle(preset_bundle(preset))
    runs = [replay(records, bundle.config) for records in bundle.events]
    # The bundle holds no event log but those of its replications.
    assert sum(name.endswith(".jsonl") for name in bundle.files) == len(runs)
    for row in bundle.rows:
        run, rid = runs[int(row["run"])], int(row["robot"])
        assert row["final_p1"] == repr(run.p1[rid])
        assert [int(row["trip_successes"]), int(row["trip_failures"])] == run.trips[rid]
        # Every trip began with a departure, and at most one is still out.
        assert run.departures[rid] - sum(run.trips[rid]) in (0, 1)
    delivered = [sum(counts) for counts in zip(*(run.delivered for run in runs))]
    assert delivered == bundle.manifest["retrieved_totals"]
