"""Which commands load scipy, and which parts of it.

whiterec uses scipy for LAPACK only, and binds scipy's f2py extension
``scipy.linalg._flapack`` directly, found through scipy's import spec
without executing the ``scipy`` package or the ``scipy.linalg`` package
around it: every product with the interaction matrix X runs on its numpy
CSR arrays. So ``train`` loads that one extension and no other scipy
module, not even ``scipy`` itself; every kind that factors with LAPACK is
probed (potrs, potri, and sytrd, stemr and ormqr for the top-D
eigenpairs). ``train --kind zca``, which factors with numpy alone,
loads no scipy module. ``preprocess`` sorts and counts integers, and
``evaluate`` and ``recommend`` score fold-in rows with the same CSR
kernel, so those three must run without any scipy module. Each check
runs in a fresh interpreter, because this test process has scipy loaded
already (pytest's ``filterwarnings`` imports ``scipy.sparse``).

``evaluate`` and ``recommend`` load no ``numpy.ma`` either: numpy
imports it on the first ``np.unique`` call without ``return_index``, and
no command needs it.

``preprocess`` parses its log, and ``recommend`` writes its rows, over
workers made with a bare ``os.fork``; forced to fork, neither may pull in
``multiprocessing``, ``concurrent`` or ``subprocess``, whose imports would
add to every command's startup, nor any scipy module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_MODULES = """sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))"""

SCRIPT = f"""
import json, sys
from whiterec.cli import main
loaded = {SCIPY_MODULES}
code = main(sys.argv[1:])
print(json.dumps([code, loaded, {SCIPY_MODULES}]))
"""

LAPACK_EXTENSION = "scipy.linalg._flapack"


def run_fresh(script: str, *argv: str) -> list:
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules(*argv: str) -> tuple[list[str], list[str]]:
    """scipy modules loaded after ``import whiterec.cli`` and after ``main(argv)``."""
    code, after_import, after_main = run_fresh(SCRIPT, *argv)
    assert code == 0, argv
    return after_import, after_main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    lines = [f"u{u},i{j},5" for u in range(30) for j in range(8) if (u + j) % 3]
    (tmp / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp / "users.csv").write_text("alice,i1\nalice,i2\nbob,i3\n")
    (tmp / "run.cfg").write_text(f"data_path = {tmp / 'data.csv'}\noutput = {tmp / 'out'}\n"
                                 "min_user_interactions = 2\nheldout_user_fraction = 0.2\n"
                                 "lambda = 5\ncutoffs = 2,5\n")
    return tmp


@pytest.fixture(scope="module")
def config(workdir):
    """The config file, with the split written."""
    cfg = str(workdir / "run.cfg")
    if not (workdir / "out" / "train.txt").exists():
        scipy_modules("preprocess", "--config", cfg)
    return cfg


def test_import_and_preprocess_load_no_scipy(workdir):
    after_import, after_main = scipy_modules(
        "preprocess", "--config", str(workdir / "run.cfg"))
    assert after_import == []
    assert after_main == []
    assert (workdir / "out" / "train.txt").exists()


@pytest.mark.parametrize("kind", ["ridge", "ease", "embed_dot", "embed_ridge", "embed_ease"])
def test_training_loads_only_the_lapack_extension(workdir, config, kind):
    dim = ["--embedding-dim", "2"] if kind.startswith("embed") else []
    _, after_train = scipy_modules("train", "--config", config, "--kind", kind, *dim)
    assert after_train == [LAPACK_EXTENSION]
    assert (workdir / "out" / f"model_{kind}.bin").exists()


def test_evaluate_and_recommend_load_no_scipy(workdir, config):
    if not (workdir / "out" / "model_ridge.bin").exists():
        scipy_modules("train", "--config", config)
    model = str(workdir / "out" / "model_ridge.bin")
    for argv in (["evaluate", "--config", config, "--model", model],
                 ["recommend", "--config", config, "--model", model,
                  "--users", str(workdir / "users.csv")]):
        _, after_main = scipy_modules(*argv)
        assert after_main == [], argv[0]


def test_zca_training_loads_no_scipy(workdir, config):
    _, after_train = scipy_modules("train", "--config", config, "--kind", "zca")
    assert after_train == []
    assert (workdir / "out" / "model_zca.bin").exists()


PROCESS_MODULES = ("multiprocessing", "concurrent", "subprocess")

FORKING_SCRIPT = f"""
import json, os, sys
import whiterec.ingest, whiterec.recommend
from whiterec.cli import main
os.sched_getaffinity = lambda pid: {{0, 1}}
whiterec.ingest.PARSE_MIN_BYTES = 1
whiterec.recommend.FORK_MIN_ROWS = 1
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                              if m.split(".")[0] in {PROCESS_MODULES!r}), {SCIPY_MODULES}]))
"""


def test_forking_preprocess_loads_no_process_pool_or_scipy(workdir):
    code, process_modules, scipy_loaded = run_fresh(
        FORKING_SCRIPT, "preprocess", "--config", str(workdir / "run.cfg"),
        "--output", str(workdir / "out_forked"))
    assert code == 0
    assert process_modules == []
    assert scipy_loaded == []
    assert (workdir / "out_forked" / "train.txt").exists()


def test_forking_recommend_loads_no_process_pool_or_scipy(workdir, config):
    if not (workdir / "out" / "model_ridge.bin").exists():
        scipy_modules("train", "--config", config)
    code, process_modules, scipy_loaded = run_fresh(
        FORKING_SCRIPT, "recommend", "--config", config, "--model",
        str(workdir / "out" / "model_ridge.bin"), "--users", str(workdir / "users.csv"))
    assert code == 0
    assert process_modules == []
    assert scipy_loaded == []


NUMPY_MA_SCRIPT = """
import json, sys
from whiterec.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


def test_evaluate_and_recommend_load_no_numpy_ma(workdir, config):
    if not (workdir / "out" / "model_ridge.bin").exists():
        scipy_modules("train", "--config", config)
    model = str(workdir / "out" / "model_ridge.bin")
    for argv in (["evaluate", "--config", config, "--model", model],
                 ["recommend", "--config", config, "--model", model,
                  "--users", str(workdir / "users.csv")]):
        assert run_fresh(NUMPY_MA_SCRIPT, *argv) == [0, False], argv[0]
