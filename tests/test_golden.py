"""Golden outputs of a seeded tiny pipeline.

The SHA-256 digests below pin the exact bytes of the recommendation CSV and
of both evaluation reports for ``ridge`` and ``ease``. Any change to
ranking order, tie-breaking, score formatting, CSV quoting or metric
arithmetic shows up here. Digests assume IEEE float64 with the bundled
LAPACK; a new digest must come with a reason.
"""

import csv
import hashlib

import numpy as np
import pytest

from whiterec.cli import EXIT_OK, main

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
