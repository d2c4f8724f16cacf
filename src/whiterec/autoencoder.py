"""Closed-form linear autoencoder solvers for item-item similarity.

Both solvers reconstruct a feature matrix whose columns are items (the
interactions X, or item embeddings E) as M @ B under a squared Frobenius
penalty on B. The ridge solver leaves the diagonal free (seen items are
suppressed later, at ranking time); EASE constrains diag(B) = 0 via
Lagrange multipliers and stays closed form. The dual ridge form
M^T (M M^T + lam I)^{-1} M is the item Gram of the ZCA-whitened features,
so one function (:func:`whitened_gram`) serves interactions and
embeddings alike. Every lam I shift, and so every lam > 0 check, is in
:func:`_shifted`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalError
from .ingest import InteractionMatrix


@dataclass
class SimilarityMatrix:
    """Dense item-item similarity matrix with provenance metadata."""

    values: np.ndarray
    kind: str
    config: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass
class EaseSolution:
    """EASE output: the similarity matrix, multipliers, and the inverse Gram.

    ``alpha`` holds the per-item Lagrange multipliers enforcing the zero
    diagonal; ``p_hat`` is (M^T M + lam I)^{-1}.
    """

    B: SimilarityMatrix
    alpha: np.ndarray
    p_hat: np.ndarray


def ridge_primal(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """B = (X^T X + lam I)^{-1} X^T X via the item-side Gram."""
    g = linalg.gram(X, side="items")
    b = linalg.spd_solve(_shifted(g, lam), g)
    return SimilarityMatrix(linalg.symmetrize(b), "ridge", {"lambda": lam, "form": "primal"})


def ridge_dual(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """B = X^T (X X^T + lam I)^{-1} X via the user-side Gram."""
    b = whitened_gram(X, lam)
    return SimilarityMatrix(linalg.symmetrize(b), "ridge", {"lambda": lam, "form": "dual"})


def ridge(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """The ridge closed form that inverts the smaller Gram matrix."""
    return ridge_primal(X, lam) if X.n_items <= X.n_users else ridge_dual(X, lam)


def whitened_gram(M, lam: float) -> np.ndarray:
    """M^T (M M^T + lam I)^{-1} M for a feature matrix M (see linalg.gram).

    This is the item Gram of the ZCA-whitened features and the dual ridge
    closed form, for interactions X as for D x |I| embeddings E. Only the
    row-side Gram is inverted; the one |I| x |I| array created is the
    result, which is not symmetrized. For X the final product X^T z is
    linalg.csr_matmul on X's transposed CSR.
    """
    m = M if isinstance(M, InteractionMatrix) else np.asarray(M, dtype=np.float64)
    rows, items = m.shape
    linalg.check_capacity(rows, items, "dense feature matrix")
    linalg.check_capacity(items, items, "item similarity matrix")
    shifted = _shifted(linalg.gram(m, side="users"), lam)
    if not isinstance(m, InteractionMatrix):
        return m.T @ linalg.spd_solve(shifted, m)
    t = m.transpose()
    return linalg.csr_matmul(t.indptr, t.indices, linalg.spd_solve(shifted, m.toarray()))


def ease(M, lam: float) -> EaseSolution:
    """Zero-diagonal closed form B = I - P_hat diagMat(1 / diag(P_hat)).

    M is any feature matrix (see linalg.gram): interactions X, or
    embeddings E with E^T E in place of X^T X.
    """
    # G is dropped once shifted, so at most two |I| x |I| arrays are live.
    p_hat = linalg.spd_inverse(_shifted(linalg.gram(M, side="items"), lam))
    d = np.diag(p_hat).copy()
    if not np.all(d > 0.0):
        raise NumericalError(
            "diag of the inverse Gram has non-positive or NaN entries; "
            "the upstream solve must have failed"
        )
    alpha = 1.0 / d - lam
    # 0 - P_hat / d is I - P_hat / d off the diagonal, bit for bit (signed
    # zeros included), without an identity matrix.
    b = p_hat / d[np.newaxis, :]
    np.subtract(0.0, b, out=b)
    np.fill_diagonal(b, 0.0)
    sim = SimilarityMatrix(b, "ease", {"lambda": lam})
    return EaseSolution(sim, alpha, p_hat)


def ease_decompose(sol: EaseSolution) -> tuple[SimilarityMatrix, np.ndarray]:
    """Split an EASE solution into its regularization and diagonal parts.

    Both come from sol.p_hat: whitening_term = I - lam P_hat, which is the
    plain ridge solution (X^T X + lam I)^{-1} X^T X, and diagonal_term =
    P_hat diagMat(alpha), so that sol.B = whitening_term - diagonal_term.
    """
    lam = sol.B.config["lambda"]
    w = np.eye(sol.p_hat.shape[0]) - lam * sol.p_hat
    whitening_term = SimilarityMatrix(w, "zca", {"lambda": lam, "source": "ease_decompose"})
    diagonal_term = sol.p_hat * sol.alpha[np.newaxis, :]
    return whitening_term, diagonal_term


def _shifted(g: np.ndarray, lam: float) -> np.ndarray:
    """g + lam I; every ridge and EASE solve goes through here."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be > 0 and finite, got {lam}")
    out = g.copy()
    out[np.diag_indices_from(out)] += lam
    return out
