import math
import os
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from whiterec import linalg
from whiterec.ingest import InteractionLog, InteractionMatrix
from whiterec.linalg import EigenDecomposition, symmetrize


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL line per acceptance criterion."""
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {status} {report.nodeid.split('::')[-1]}")


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**variables):
    """This process's environment plus ``variables``, with whiterec importable,
    for a fresh Python child process."""
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


# The regularization weights the identity checks sweep.
LAMBDAS = (0.1, 1.0, 10.0, 200.0)


def random_interactions(rng, n_users, n_items, density=0.35) -> InteractionMatrix:
    """Random binary matrix with every row and column non-empty."""
    dense = (rng.random((n_users, n_items)) < density).astype(np.float64)
    for u in range(n_users):
        if dense[u].sum() == 0:
            dense[u, rng.integers(n_items)] = 1.0
    for j in range(n_items):
        if dense[:, j].sum() == 0:
            dense[rng.integers(n_users), j] = 1.0
    return InteractionMatrix.from_dense(dense)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def byte_cap():
    """Call with a byte count to cap linalg's dense arrays for the rest of the test."""
    tokens = []
    yield lambda cap: tokens.append(linalg.GRAM_BYTE_CAP.set(cap))
    for token in reversed(tokens):
        linalg.GRAM_BYTE_CAP.reset(token)


@pytest.fixture
def counted(monkeypatch):
    """The bytes every linalg.check_capacity call counts for the rest of the
    test, in call order; the checks still run."""
    needed = []
    check = linalg.check_capacity

    def spy(entries, what, entry_bytes=8):
        needed.append(entries * entry_bytes)
        check(entries, what, entry_bytes)

    monkeypatch.setattr(linalg, "check_capacity", spy)
    return needed


# Magnitudes far apart make a sum depend on its order; signed zeros make
# +0.0 + -0.0 show. Every partial sum stays finite.
KERNEL_VALUES = np.array([1e16, -1e16, 1.0, 0.1, -0.3, 0.0, -0.0, -0.0])


def bitwise_equal(a, b):
    """Equal arrays with equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def scipy_csr(X: InteractionMatrix):
    """X as a scipy.sparse.csr_matrix built from its CSR arrays: the oracle
    for the numpy kernels (scipy.sparse is a test dependency only)."""
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(X.nnz), X.indices, X.indptr), shape=X.shape)


@dataclass(frozen=True)
class RawInteraction:
    """One raw event: user did something with item, optionally rated/timestamped."""

    user_id: str
    item_id: str
    rating: float | None = None
    timestamp: int | None = None

    def __post_init__(self):
        if not self.user_id or not self.item_id:
            raise ValueError("user_id and item_id must be non-empty")


def log_from_records(records) -> InteractionLog:
    """Build a log from RawInteraction records; a rating of None becomes NaN."""
    return InteractionLog._from_strings(
        [r.user_id for r in records], [r.item_id for r in records],
        [math.nan if r.rating is None else r.rating for r in records],
    )


def reconstruction_objective(X: InteractionMatrix, b: np.ndarray, lam: float) -> float:
    """||X - X B||_F^2 + lam ||B||_F^2, the quantity both solvers minimize."""
    xb = scipy_csr(X) @ b
    resid = xb - X.toarray()
    return float(np.sum(resid * resid) + lam * np.sum(b * b))


def traced_peak(fn, *args):
    """fn(*args) and the bytes its traced allocations peaked at, beyond what
    was allocated before the call."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def reconstruct(eig: EigenDecomposition) -> np.ndarray:
    """Return U diag(w) U^T."""
    u = eig.eigenvectors
    return symmetrize((u * eig.eigenvalues) @ u.T)
