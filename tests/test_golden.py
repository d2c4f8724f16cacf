"""Golden outputs of a seeded tiny pipeline.

The SHA-256 digests below pin the exact bytes of the nine split files and
``summary.json`` written by ``preprocess``, and, for every model kind, of
the model file, the recommendation CSV and both evaluation reports (plus
``embeddings.bin`` for the embedding kinds). Any change to the solvers,
parsing, filtering, id order, the split, split-file formatting, ranking
order, tie-breaking, score formatting, CSV quoting or metric arithmetic
shows up here. Digests assume IEEE float64 with the bundled
LAPACK; a new digest must come with a reason.

"Byte-identical" holds for a fixed BLAS thread count and OpenBLAS core
(the kernel OpenBLAS picks for the CPU): the Cholesky and eigen routines
split their work by thread, so the last bits of a model can differ
between counts. So the pipeline's ``train`` step, the only one that calls
LAPACK, runs in a child process at ``OPENBLAS_NUM_THREADS=1``, and the
digests hold whatever the host's core count.
test_models_agree_across_blas_thread_counts keeps that dependence
bounded: train at one and at two threads agrees to 1e-12.
"""

import csv
import hashlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from whiterec.cli import EXIT_OK, load_model, main

from conftest import child_env

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

# All embedding kinds share one SVD of the same train split (D = 8).
# Re-pinned (ease, embed_*): LAPACK evr subset and potri round differently in the last bits.
EMBEDDINGS = "da45549afcbbf0fd066a737464054cd9c7e23ed908c83593ad359510555c2d30"

GOLDEN = {
    "ridge": {
        "recommendations.csv":
            "8c98185b97f6111de3bf8aba820d8dd5afb3df65ce490d2907582fd62efcab8e",
        "eval_test_ridge.json":
            "e445f55b3097a8db04753ce9e51cf5d13f238bf29046206349f9aee0beb44686",
        "eval_test_ridge_per_user.csv":
            "36cfa30595a4bc74ed904c4e843a71dcf18e95d2fd5cd6871dc0d0f84c5ca165",
        "model_ridge.bin":
            "2f8767443efc087f45e1df3f09f692609821fdfe88520782df3922876f840ac9",
    },
    # Re-pinned (model and recommendations): train now runs at one BLAS
    # thread, and potrf/potri split their work by thread; 120 of 350 scores
    # move by at most 3.9e-16 relative, and no ranked item moves.
    "ease": {
        "recommendations.csv":
            "0d68013a4db8c12c8014bb995849e05a271a0b52204a0d7941633fa50b491d96",
        "eval_test_ease.json":
            "225920e80175431906d1a7bcaffd3a2c3c23a3138dfc13cc36d23b025e21b7b9",
        "eval_test_ease_per_user.csv":
            "200ed95716fe38d8288bca8b68c1efed28a11bc000f5bdbbee9ae7a053504597",
        "model_ease.bin":
            "2d6ec12c22f528790f00b21c67e9bb1480e73b95d5e9abe4064fb159694737a0",
    },
    # Re-pinned (model and recommendations): zca is the Gram of X's whitened
    # eigenbasis rows, not of a dense W = P X, which rounds 897 of the 900
    # entries differently (at most 2.5e-15 relative to max |B|); ranks unchanged.
    "zca": {
        "recommendations.csv":
            "3a7723e9e3307a635f24d4664f8815e0cf8323621a360af6ecd4961d9439a047",
        "eval_test_zca.json":
            "e445f55b3097a8db04753ce9e51cf5d13f238bf29046206349f9aee0beb44686",
        "eval_test_zca_per_user.csv":
            "36cfa30595a4bc74ed904c4e843a71dcf18e95d2fd5cd6871dc0d0f84c5ca165",
        "model_zca.bin":
            "99400906eb408cacd8b8a0cac9fe6e74408cba2f7a94575ea507efd055cd1a5c",
    },
    "embed_dot": {
        "recommendations.csv":
            "c2f16ed3bbd3e0fb9596918c0b79f658a28931eb1d29eb0f96d61dfe7b772805",
        "eval_test_embed_dot.json":
            "2d13d6f6da7ff736a575f4e18c5b43d4751e66a8b94278df0c59fb8d1ec25832",
        "eval_test_embed_dot_per_user.csv":
            "1e0d0048b916281340ae9fac1a26af2bc3c07e6906ccd59f66ac80d3c62f8c13",
        "model_embed_dot.bin":
            "3d911c07d84fa34fdc45cc091b94107372f3ce3bdb86308f1ad5c7e541b47acc",
        "embeddings.bin": EMBEDDINGS,
    },
    "embed_ridge": {
        "recommendations.csv":
            "5852fa956ce796442a160119e28657d6be6d047427937cddb423411c79f203c6",
        "eval_test_embed_ridge.json":
            "52938cbc760be69990cece00f17b0fa636da218d50972ff5708d23a69bbd1fe5",
        "eval_test_embed_ridge_per_user.csv":
            "284aaafee8185834940a045346e8d5bff3179e0f12c050af34a57b3f45206fee",
        "model_embed_ridge.bin":
            "9a32954ade4d9d52f63402035d2e14de8237571370a1c943c6d7011d7b6ad39e",
        "embeddings.bin": EMBEDDINGS,
    },
    # Re-pinned (model and recommendations): wide E takes the Woodbury route,
    # which rounds the last bits differently (4.8e-16 relative); ranks unchanged.
    "embed_ease": {
        "recommendations.csv":
            "605193caf9ffa7a353b2080a939ae02fad85c588e96938650f6929e79c1d3a73",
        "eval_test_embed_ease.json":
            "0b3928f5dc1f43bfa9fb21b667c838cc11d7eeee95b3aef243b6bd6399c7c1cb",
        "eval_test_embed_ease_per_user.csv":
            "c154df9085d10ae51812e70d13ea637198c3ea4c8e560c73bddda56de2981152",
        "model_embed_ease.bin":
            "8e938ae9bfe92be1453171b426bc48a01b81ad05a3feb9b46871a48beffcbf8a",
        "embeddings.bin": EMBEDDINGS,
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


def _moved(out, golden):
    """The names of the pinned files whose bytes differ from their digest."""
    return [name for name, digest in golden.items()
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_outputs(tmp_path, kind):
    write_inputs(tmp_path)
    out = tmp_path / "out"
    common = ["--output", str(out), "--seed", "3", "--lambda", "4.0", "--kind", kind,
              "--cutoffs", "3,5,10"]
    if kind.startswith("embed_"):
        common += ["--embedding-dim", "8"]
    assert main(["preprocess", "--data", str(tmp_path / "data.csv"), *common]) == EXIT_OK
    # train is the only step that calls LAPACK, whose last bits depend on the
    # BLAS thread count; one thread makes the digests the same on any host.
    proc = subprocess.run([sys.executable, "-m", "whiterec.cli", "train", *common],
                          env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    model = str(out / f"model_{kind}.bin")
    assert main(["evaluate", "--model", model, *common]) == EXIT_OK
    assert main(["recommend", "--model", model, "--users", str(tmp_path / "users.csv"),
                 "-N", "7", *common]) == EXIT_OK
    assert _moved(out, GOLDEN[kind]) == []


def test_golden_split(tmp_path):
    write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["preprocess", "--data", str(tmp_path / "data.csv"), "--output", str(out),
                 "--seed", "3"]) == EXIT_OK
    assert _moved(out, GOLDEN_SPLIT) == []


TRAIN_BOTH = """
import sys
from whiterec.cli import main
for kind in ("ridge", "ease"):
    assert main(["train", "--output", sys.argv[1], "--lambda", "4.0", "--kind", kind]) == 0
"""


def test_models_agree_across_blas_thread_counts(tmp_path):
    write_inputs(tmp_path)
    split = tmp_path / "split"
    assert main(["preprocess", "--data", str(tmp_path / "data.csv"), "--output", str(split),
                 "--seed", "3"]) == EXIT_OK
    models = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        shutil.copytree(split, out)
        proc = subprocess.run([sys.executable, "-c", TRAIN_BOTH, str(out)], env=child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        models[threads] = {kind: load_model(out / f"model_{kind}.bin")[0].values
                           for kind in ("ridge", "ease")}
    for kind in ("ridge", "ease"):
        one, two = models["1"][kind], models["2"][kind]
        assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(two), kind
