"""Zero-phase (ZCA) whitening and its item-similarity form.

A whitening transform maps a D x N data matrix M to W = P M such that the
raw covariance W W^T becomes the identity. The ZCA choice of P is the
symmetric inverse square root of M M^T, which stays as close as possible
to the original coordinate axes. Applying it to an interaction matrix
(users as feature dimensions, items as samples) and taking W^T W yields
exactly the ridge autoencoder's similarity matrix with eps playing the
role of the regularization weight.

fit_zca and whiten form P and W as the paper writes them; zca_similarity,
the zca kind, takes W^T W = V diag(sigma^2 / (sigma^2 + eps)) V^T, which
every whitening of X shares, from X's right singular vectors (linalg.spectrum).
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
    """Fit P = U (S + eps I)^{-1/2} U^T from the eigensystem of m m^T, gram(m.T).

    The covariance here is raw (no 1/N factor), which is what makes the
    whitened Gram coincide exactly with the ridge closed forms. With eps=0
    the rows of m must be linearly independent.
    """
    p = linalg.inv_sqrt(linalg.gram(m.T), eps)
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
    """Item similarity of the ZCA-whitened interactions, W^T W for W = P X.

    At full rank U^T W = diag(sigma / sqrt(sigma^2 + eps)) V^T, V^T being
    linalg.spectrum's rows, and W^T W is its Gram. Numerically identical
    to the ridge solution at lam = eps. Its rows and result are checked first.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be > 0 and finite for interaction data, got {eps}")
    k = min(X.shape)
    linalg.check_capacity((X.n_items + k) * X.n_items, f"zca (|U|={X.n_users}, |I|={X.n_items})")
    sq, rows = linalg.spectrum(X, k)
    # In this order, not sqrt(sq) / sqrt(sq + eps), s keeps the bits the
    # golden zca model was pinned with.
    s = 1.0 / np.sqrt(sq + eps) * np.sqrt(sq)
    rows *= s[:, np.newaxis]
    b = linalg.gram(rows)
    return SimilarityMatrix(b, "zca", {"lambda": eps})
