"""Explicit zero-phase (ZCA) whitening and its item-similarity form.

A whitening transform maps a D x N data matrix M to W = P M such that the
raw covariance W W^T becomes the identity. The ZCA choice of P is the
symmetric inverse square root of M M^T, which stays as close as possible
to the original coordinate axes. Applying it to an interaction matrix
(users as feature dimensions, items as samples) and taking W^T W yields
exactly the ridge autoencoder's similarity matrix with eps playing the
role of the regularization weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .autoencoder import SimilarityMatrix
from .ingest import InteractionMatrix


@dataclass(frozen=True)
class CovarianceMatrix:
    """Feature covariance M M^T, optionally divided by the sample count."""

    values: np.ndarray
    normalization: str  # "mean" (1/N factor) or "raw"

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass
class WhiteningTransform:
    """Symmetric whitening matrix plus the eigendecomposition it came from."""

    P: np.ndarray
    eps: float
    source_dim: int
    eig: linalg.EigenDecomposition


def covariance(m: np.ndarray, normalization: str = "raw") -> CovarianceMatrix:
    """Covariance of the rows of m across its columns (samples)."""
    if normalization not in ("mean", "raw"):
        raise ValueError(f"normalization must be 'mean' or 'raw', got {normalization!r}")
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise ValueError("input matrix is empty")
    c = linalg.symmetrize(m @ m.T)
    if normalization == "mean":
        c = c / m.shape[1]
    return CovarianceMatrix(c, normalization)


def fit_zca(m: np.ndarray, eps: float) -> WhiteningTransform:
    """Fit P = U (S + eps I)^{-1/2} U^T from the eigensystem of m m^T.

    The covariance here is raw (no 1/N factor), which is what makes the
    whitened Gram coincide exactly with the ridge closed forms. With eps=0
    the rows of m must be linearly independent.
    """
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    m = np.asarray(m, dtype=np.float64)
    eig = linalg.eigh(covariance(m, "raw").values)
    p = linalg.inv_sqrt_from_eig(eig, eps)
    return WhiteningTransform(P=p, eps=eps, source_dim=m.shape[0], eig=eig)


def whiten(t: WhiteningTransform, m: np.ndarray) -> np.ndarray:
    """Apply the transform: returns P @ m."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != t.source_dim:
        raise ValueError(
            f"matrix has {m.shape[0]} rows but the transform was fit on "
            f"{t.source_dim} feature dimensions"
        )
    return t.P @ m


def zca_similarity(X: InteractionMatrix, eps: float) -> SimilarityMatrix:
    """Item similarity from explicitly whitened interactions: W^T W.

    Treats users as feature dimensions and items as samples, whitens the
    densified interaction matrix, and returns the Gram of the whitened
    columns. Numerically identical to the ridge solution at lam = eps.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0 for interaction data, got {eps}")
    linalg.check_capacity(X.n_users, X.n_users, "user-side covariance")
    linalg.check_capacity(X.n_users, X.n_items, "dense (and whitened) interaction matrix")
    linalg.check_capacity(X.n_items, X.n_items, "item similarity matrix")
    dense = X.toarray()
    t = fit_zca(dense, eps)
    w = whiten(t, dense)
    b = linalg.symmetrize(w.T @ w)
    return SimilarityMatrix(b, "zca", {"lambda": eps})
