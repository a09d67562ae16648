"""Golden digests: the preset bundles must stay the same to the byte.

Each digest is the SHA-256 of one bundle file written by
``foragesim --preset NAME --replications 2 --event-log``, the session's
``preset_bundle``; ``manifest.json`` is left out because it echoes the
package version. A change that alters any digest changes simulation
results and must say why. The digests assume this platform's libm.
The event log must also agree with ``results.csv`` and the manifest.
"""

import csv
import hashlib
import json
from collections import defaultdict

import pytest

from conftest import bundle_files

GOLDEN = {
    "set1": {
        "binomial.csv": "4412b29b575c59d4c68c16afdf35814db8c52f93a28e99df3d2afd6dc0268ba9",
        "classification.csv": "e84632532dc77ec5d5a9c44f3685586c60f30d8b831c65432d568d7ac6c80e04",
        "events_run000.jsonl": "be67e0e5f04493a63fa8e9657794e76aed30d808cfbc7478619d9a80f6cc7b6d",
        "events_run001.jsonl": "04242b9cdd10148a38e06de9bcee40072d6033014764c1ad8127baefe0858f01",
        "p1_histogram.csv": "102e1a4ecb2ff997fa92cb4a1e0bea142a4c408cc2db0a7da1f56e339dc3418c",
        "results.csv": "7f989d767bcc6f5aa03b617978b37234ba35d178c98a1bc2607a79f26567e391",
    },
    "set2": {
        "binomial.csv": "0363613607e9577093616b6c3fd52696015524c9ca06df4c4af7a05024ed43fc",
        "classification.csv": "d8d4793a3aa2aaf57ca13bd5566cd30e1f806e48baffc00658319efb21b9e48d",
        "events_run000.jsonl": "002fb92f885db5221610c08452e74a35c961e3b3ff82e90c0dca60876547932b",
        "events_run001.jsonl": "28e72bb39566eef01ecda1bf05168c01bd17347f043fff2704080f3b092f9f64",
        "p1_histogram.csv": "17f9896fb0bef37282fe92d50aaf18c4f98f52217e3a17181435f22290e69695",
        "pobj1_histogram.csv": "dc442792e864d6a16cd52d8c2cc2b4c558ccd2d844faed1c42b2e0432b9cd9ae",
        "pobj2_histogram.csv": "c517463587f3fcca64750d080ab6f2f3dca95c1f75b9cdbdcc3dcdef3f4745be",
        "results.csv": "2f043cf6e856178c961a75a4e736686bedfe766418445a1ccf2c7fa9ab6c7f46",
    },
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_bundle_digests(preset, preset_bundle):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in bundle_files(preset_bundle(preset)).items()
        if name != "manifest.json"
    }
    assert digests == GOLDEN[preset]


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_event_log_agrees_with_results_and_manifest(preset, preset_bundle):
    # A sink that drops or reorders a record fails here, not only a digest.
    out = preset_bundle(preset)
    manifest = json.loads((out / "manifest.json").read_text())
    # Each robot's last leave probability and its trips by outcome, by
    # (run, robot), and the deliveries by object type.
    p1, trips, delivered = {}, defaultdict(lambda: [0, 0]), [0, 0]
    for path in sorted(out.glob("events_run*.jsonl")):
        run = int(path.stem.removeprefix("events_run"))
        for kind, _, rid, *rest in map(json.loads, path.read_text().splitlines()):
            assert kind in {"phase", "leave", "pickup", "deliver", "trip"}
            if kind == "trip":
                success, p1[run, rid] = rest
                trips[run, rid][not success] += 1
            elif kind == "deliver":
                delivered[rest[0]] += 1
    initial = manifest["config"]["leave_p_initial"]
    with open(out / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            robot = int(row["run"]), int(row["robot"])
            assert row["final_p1"] == repr(p1.get(robot, initial))
            assert [int(row["trip_successes"]), int(row["trip_failures"])] == trips[robot]
    assert delivered == manifest["retrieved_totals"]
