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
# Re-pinned (embeddings, and each embed_* model and recommendations): the
# top-D eigenpairs come from dsytrd, dstemr (MRRR) and dormqr rather than
# evr's bisection and inverse iteration; 235 of 240 embedding entries move,
# by at most 9.3e-14 relative to max |E|, the models by at most 7.0e-15
# relative to max |B|, and no ranked item moves.
EMBEDDINGS = "0963e993cf8729ad6499767c357368260c581fcf9739295b4862347b9ac81889"

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
            "49cb75b90cd6d3d9089e5cf8bec683a742512a6e6c38c4cb152fdc9c8972564e",
        "eval_test_embed_dot.json":
            "2d13d6f6da7ff736a575f4e18c5b43d4751e66a8b94278df0c59fb8d1ec25832",
        "eval_test_embed_dot_per_user.csv":
            "1e0d0048b916281340ae9fac1a26af2bc3c07e6906ccd59f66ac80d3c62f8c13",
        "model_embed_dot.bin":
            "b9068dd32c72e60e40bf80a290794dd62627f8939222990a39d3a768c0647210",
        "embeddings.bin": EMBEDDINGS,
    },
    "embed_ridge": {
        "recommendations.csv":
            "1d1a91912497ff0947faf58ee9106b213712984b0ef7b8824f94c8b26ecf13e9",
        "eval_test_embed_ridge.json":
            "52938cbc760be69990cece00f17b0fa636da218d50972ff5708d23a69bbd1fe5",
        "eval_test_embed_ridge_per_user.csv":
            "284aaafee8185834940a045346e8d5bff3179e0f12c050af34a57b3f45206fee",
        "model_embed_ridge.bin":
            "ff15265f5fdc150b00a08192176cb68c337d9db0b6a735cdec20893752a933df",
        "embeddings.bin": EMBEDDINGS,
    },
    # Re-pinned (model and recommendations): wide E takes the Woodbury route,
    # which rounds the last bits differently (4.8e-16 relative); ranks unchanged.
    # Re-pinned again with EMBEDDINGS above.
    "embed_ease": {
        "recommendations.csv":
            "5f3a1be37eea4fc9e9d440e6b089a56a31527dcff32fa89737020259361dbc35",
        "eval_test_embed_ease.json":
            "0b3928f5dc1f43bfa9fb21b667c838cc11d7eeee95b3aef243b6bd6399c7c1cb",
        "eval_test_embed_ease_per_user.csv":
            "c154df9085d10ae51812e70d13ea637198c3ea4c8e560c73bddda56de2981152",
        "model_embed_ease.bin":
            "c20b55dcd0eb775709f8ff67e19c9b15abfd47bde9eb9c31af986da9a8c3c4aa",
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


# embed_ridge's eigen step ends in dormqr, a BLAS-3 back-transform.
THREADED_KINDS = ("ridge", "ease", "embed_ridge")

TRAIN_ALL = """
import sys
from whiterec.cli import main
for kind in sys.argv[2:]:
    dim = ["--embedding-dim", "8"] if kind.startswith("embed_") else []
    assert main(["train", "--output", sys.argv[1], "--lambda", "4.0", "--kind", kind, *dim]) == 0
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
        proc = subprocess.run([sys.executable, "-c", TRAIN_ALL, str(out), *THREADED_KINDS],
                              env=child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        models[threads] = {kind: load_model(out / f"model_{kind}.bin")[0].values
                           for kind in THREADED_KINDS}
    for kind in THREADED_KINDS:
        one, two = models["1"][kind], models["2"][kind]
        assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(two), kind
