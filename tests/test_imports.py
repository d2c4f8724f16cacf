"""Which commands load scipy, and which parts of it.

whiterec uses scipy for LAPACK only, through ``scipy.linalg``: every
product with the interaction matrix X runs on its numpy CSR arrays. So
``train`` may load ``scipy.linalg`` but never ``scipy.sparse``, and
``train --kind zca``, which factors with numpy alone, loads no scipy
module. ``preprocess`` sorts and counts integers, and ``evaluate`` and
``recommend`` score fold-in rows with the same CSR kernel, so those three
must run without any scipy module. Each check runs in a fresh
interpreter, because this test process has scipy loaded already
(pytest's ``filterwarnings`` imports ``scipy.sparse``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
from whiterec.cli import main
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
code = main(sys.argv[1:])
print(json.dumps([code, loaded,
                  sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def scipy_modules(*argv: str) -> tuple[list[str], list[str]]:
    """scipy modules loaded after ``import whiterec.cli`` and after ``main(argv)``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_main = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
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


def test_import_and_preprocess_load_no_scipy(workdir):
    after_import, after_main = scipy_modules(
        "preprocess", "--config", str(workdir / "run.cfg"))
    assert after_import == []
    assert after_main == []
    assert (workdir / "out" / "train.txt").exists()


def test_evaluate_and_recommend_load_no_scipy(workdir):
    cfg = str(workdir / "run.cfg")
    if not (workdir / "out" / "train.txt").exists():
        scipy_modules("preprocess", "--config", cfg)
    _, after_train = scipy_modules("train", "--config", cfg)
    assert "scipy.linalg" in after_train
    assert [m for m in after_train if m.startswith("scipy.sparse")] == []
    model = str(workdir / "out" / "model_ridge.bin")
    for argv in (["evaluate", "--config", cfg, "--model", model],
                 ["recommend", "--config", cfg, "--model", model,
                  "--users", str(workdir / "users.csv")]):
        _, after_main = scipy_modules(*argv)
        assert after_main == [], argv[0]


def test_zca_training_loads_no_scipy(workdir):
    cfg = str(workdir / "run.cfg")
    if not (workdir / "out" / "train.txt").exists():
        scipy_modules("preprocess", "--config", cfg)
    _, after_train = scipy_modules("train", "--config", cfg, "--kind", "zca")
    assert after_train == []
    assert (workdir / "out" / "model_zca.bin").exists()
