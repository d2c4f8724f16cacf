import math
from dataclasses import dataclass

import numpy as np
import pytest

from whiterec.ingest import InteractionLog, InteractionMatrix
from whiterec.linalg import EigenDecomposition, symmetrize


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL line per acceptance criterion."""
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {status} {report.nodeid.split('::')[-1]}")


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
    xb = X.matrix @ b
    resid = xb - X.toarray()
    return float(np.sum(resid * resid) + lam * np.sum(b * b))


def reconstruct(eig: EigenDecomposition) -> np.ndarray:
    """Return U diag(w) U^T."""
    u = eig.eigenvectors
    return symmetrize((u * eig.eigenvalues) @ u.T)
