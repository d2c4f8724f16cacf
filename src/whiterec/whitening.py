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

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .autoencoder import SimilarityMatrix
from .ingest import InteractionMatrix


@dataclass
class WhiteningTransform:
    """Symmetric whitening matrix P fitted on source_dim feature dimensions."""

    P: np.ndarray
    eps: float
    source_dim: int


def fit_zca(m: np.ndarray, eps: float) -> WhiteningTransform:
    """Fit P = U (S + eps I)^{-1/2} U^T from the eigensystem of m m^T.

    The covariance here is raw (no 1/N factor), which is what makes the
    whitened Gram coincide exactly with the ridge closed forms. With eps=0
    the rows of m must be linearly independent.
    """
    p = linalg.inv_sqrt(linalg.gram(m, side="users"), eps)
    return WhiteningTransform(P=p, eps=eps, source_dim=p.shape[0])


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
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be > 0 and finite for interaction data, got {eps}")
    linalg.check_capacity(X.n_users, X.n_users, "user-side covariance")
    linalg.check_capacity(X.n_users, X.n_items, "dense (and whitened) interaction matrix")
    linalg.check_capacity(X.n_items, X.n_items, "item similarity matrix")
    dense = X.toarray()
    t = fit_zca(dense, eps)
    b = linalg.gram(whiten(t, dense), side="items")
    return SimilarityMatrix(b, "zca", {"lambda": eps})
