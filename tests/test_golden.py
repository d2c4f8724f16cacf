"""Golden outputs of a seeded tiny pipeline.

The SHA-256 digests below pin the exact bytes of the nine split files and
``summary.json`` written by ``preprocess``, and of the recommendation CSV
and both evaluation reports for ``ridge`` and ``ease``. Any change to
parsing, filtering, id order, the split, split-file formatting, ranking
order, tie-breaking, score formatting, CSV quoting or metric arithmetic
shows up here. Digests assume IEEE float64 with the bundled
LAPACK; a new digest must come with a reason.
"""

import csv
import hashlib

import numpy as np
import pytest

from whiterec.cli import EXIT_OK, main

GOLDEN_SPLIT = {
    "train.txt":
        "44976da1e63d5620fa407bb686f5f03db25dd59c185bb04e32ff991f0372c5ae",
    "validation_foldin.txt":
        "0a6c7b52ec29c86963cee4c11fe663c8fea62b9fa238d6b0c8f0ee7df4cbc41f",
    "validation_targets.txt":
        "755ab0f6b2d0bf19eefc41c50ed58e06af1187dd0670343b245713958a4b4b6c",
    "test_foldin.txt":
        "fe6114f7d659ad2206224406ba025e02782a1486a0f58d7729f04a7570b25ae9",
    "test_targets.txt":
        "918272123a2e1b3884b3902bacd15d2702c9f3bb9944c050cc9c0f0db8ced1e1",
    "items.txt":
        "4f8344a558d19166ccd18db41531696227a9a87bc57989bec497127d11f03514",
    "train_users.txt":
        "3445095699a2190c51c9c3dc91927d7e2dcf468b343b0de443a6b2c77c56ed84",
    "validation_users.txt":
        "adb2667c06d40b07f8ac2e14949b7fc031b2865a02db6d8378f3a88c835326aa",
    "test_users.txt":
        "62e1c43ec4e205f02eb8d43d3f87558552da3232af359a0eec1f8071341bd449",
    "summary.json":
        "1f09bd125e03f6c12c5a7badecd894e56f9f2ee8bc21b5cae6b0e4df51073992",
}

GOLDEN = {
    "ridge": {
        "recommendations.csv":
            "8c98185b97f6111de3bf8aba820d8dd5afb3df65ce490d2907582fd62efcab8e",
        "eval_test_ridge.json":
            "e445f55b3097a8db04753ce9e51cf5d13f238bf29046206349f9aee0beb44686",
        "eval_test_ridge_per_user.csv":
            "36cfa30595a4bc74ed904c4e843a71dcf18e95d2fd5cd6871dc0d0f84c5ca165",
    },
    "ease": {
        "recommendations.csv":
            "0bba2a3c4977d01cf1c942e9b8c24b0523f622916eb38ab3070ea980f50431aa",
        "eval_test_ease.json":
            "225920e80175431906d1a7bcaffd3a2c3c23a3138dfc13cc36d23b025e21b7b9",
        "eval_test_ease_per_user.csv":
            "200ed95716fe38d8288bca8b68c1efed28a11bc000f5bdbbee9ae7a053504597",
    },
}


def _user(u):
    # Some ids need CSV quoting: commas, quotes and spaces.
    return {4: "user 4", 8: 'user,"8"', 12: "user, 12"}.get(u, f"u{u}")


def _item(j):
    return {2: "item,2", 5: 'item "5"'}.get(j, f"i{j}")


def write_inputs(tmp_path, n_users=200, n_items=30, seed=7):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        pref = u % 3
        for j in range(n_items):
            p = 0.45 if j % 3 == pref else 0.1
            if rng.random() < p:
                rows.append((_user(u), _item(j), int(rng.integers(3, 6))))
        rows.append((_user(u), _item(u % n_items), 5))
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with open(tmp_path / "users.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for u in range(0, n_users, 4):
            for j in range(u % 5, n_items, 6):
                writer.writerow((_user(u), _item(j)))
        writer.writerow(("stranger", "unknown item"))


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_outputs(tmp_path, kind):
    write_inputs(tmp_path)
    out = tmp_path / "out"
    common = ["--output", str(out), "--seed", "3", "--lambda", "4.0", "--kind", kind,
              "--cutoffs", "3,5,10"]
    assert main(["preprocess", "--data", str(tmp_path / "data.csv"), *common]) == EXIT_OK
    assert main(["train", *common]) == EXIT_OK
    model = str(out / f"model_{kind}.bin")
    assert main(["evaluate", "--model", model, *common]) == EXIT_OK
    assert main(["recommend", "--model", model, "--users", str(tmp_path / "users.csv"),
                 "-N", "7", *common]) == EXIT_OK
    got = {name: _digest(out / name) for name in GOLDEN[kind]}
    assert got == GOLDEN[kind]


def test_golden_split(tmp_path):
    write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["preprocess", "--data", str(tmp_path / "data.csv"), "--output", str(out),
                 "--seed", "3"]) == EXIT_OK
    got = {name: _digest(out / name) for name in GOLDEN_SPLIT}
    assert got == GOLDEN_SPLIT
