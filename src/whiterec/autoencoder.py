"""Closed-form linear autoencoder solvers for item-item similarity.

Both solvers reconstruct the interaction matrix as X @ B under a squared
Frobenius penalty on B. The ridge solver leaves the diagonal free (seen
items are suppressed later, at ranking time); EASE constrains diag(B) = 0
via Lagrange multipliers and stays closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalError
from .ingest import InteractionMatrix


@dataclass(frozen=True)
class RidgeConfig:
    """Ridge solver settings.

    ``lam`` is the L2 regularization weight (also reused as the whitening
    shift elsewhere). ``form`` selects the closed form: "primal" inverts
    the |I| x |I| item Gram, "dual" the |U| x |U| user Gram, and "auto"
    picks whichever is smaller.
    """

    lam: float
    form: str = "auto"

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.form not in ("primal", "dual", "auto"):
            raise ValueError(f"form must be primal, dual, or auto, got {self.form!r}")


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
    diagonal; ``p_hat`` is (X^T X + lam I)^{-1}.
    """

    B: SimilarityMatrix
    alpha: np.ndarray
    p_hat: np.ndarray


def ridge_primal(X: InteractionMatrix, cfg: RidgeConfig) -> SimilarityMatrix:
    """B = (X^T X + lam I)^{-1} X^T X via the item-side Gram."""
    g = linalg.gram(X, side="items")
    b = linalg.spd_solve(_shifted(g, cfg.lam), g)
    return SimilarityMatrix(linalg.symmetrize(b), "ridge",
                            {"lambda": cfg.lam, "form": "primal"})


def ridge_dual(X: InteractionMatrix, cfg: RidgeConfig) -> SimilarityMatrix:
    """B = X^T (X X^T + lam I)^{-1} X via the user-side Gram."""
    linalg.check_capacity(X.n_users, X.n_items, "dense interaction matrix")
    linalg.check_capacity(X.n_items, X.n_items, "item similarity matrix")
    k = linalg.gram(X, side="users")
    m = linalg.spd_solve(_shifted(k, cfg.lam), X.toarray())
    b = X.matrix.T @ m
    return SimilarityMatrix(linalg.symmetrize(b), "ridge",
                            {"lambda": cfg.lam, "form": "dual"})


def ridge(X: InteractionMatrix, cfg: RidgeConfig) -> SimilarityMatrix:
    """Dispatch on cfg.form; "auto" inverts the smaller Gram matrix."""
    form = cfg.form
    if form == "auto":
        form = "primal" if X.n_items <= X.n_users else "dual"
    if form == "primal":
        return ridge_primal(X, RidgeConfig(cfg.lam, "primal"))
    return ridge_dual(X, RidgeConfig(cfg.lam, "dual"))


def ease(X: InteractionMatrix, lam: float) -> EaseSolution:
    """Zero-diagonal closed form B = I - P_hat diagMat(1 / diag(P_hat))."""
    if lam <= 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    g = linalg.gram(X, side="items")
    return _ease_from_gram(g, lam)


def _ease_from_gram(g: np.ndarray, lam: float) -> EaseSolution:
    p_hat = linalg.spd_inverse(_shifted(g, lam))
    d = np.diag(p_hat).copy()
    if np.any(d <= 0.0):
        raise NumericalError(
            "diag of the inverse Gram has non-positive entries; "
            "the upstream solve must have failed"
        )
    alpha = 1.0 / d - lam
    b = np.eye(g.shape[0]) - p_hat / d[np.newaxis, :]
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


def reconstruction_objective(X: InteractionMatrix, b: np.ndarray, lam: float) -> float:
    """||X - X B||_F^2 + lam ||B||_F^2, the quantity both solvers minimize."""
    xb = X.matrix @ b
    resid = xb - X.toarray()
    return float(np.sum(resid * resid) + lam * np.sum(b * b))


def _shifted(g: np.ndarray, lam: float) -> np.ndarray:
    out = g.copy()
    out[np.diag_indices_from(out)] += lam
    return out
