"""Closed-form linear autoencoder solvers for item-item similarity.

Both solvers reconstruct a feature matrix whose columns are items (the
interactions X, or item embeddings E) as M @ B under a squared Frobenius
penalty on B. The ridge solver leaves the diagonal free (seen items are
suppressed later, at ranking time); EASE constrains diag(B) = 0 via
Lagrange multipliers and stays closed form. The dual ridge form
M^T (M M^T + lam I)^{-1} M is the item Gram of the ZCA-whitened features,
so one function (:func:`whitened_gram`) serves interactions and
embeddings alike, for ridge and for EASE on wide M. Every lam I shift, and
so every lam > 0 check, is in :func:`_shifted`. Each solver works in the
Gram it counts: EASE turns it into P_hat and then into B in place, as in
Steck's Algorithm 1, and the primal ridge solve writes B over it."""

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
    """EASE output: the similarity matrix, multipliers, and diag of the inverse Gram.

    ``alpha`` holds the per-item Lagrange multipliers enforcing the zero
    diagonal, and ``d`` is diag(P_hat), P_hat = (M^T M + lam I)^{-1}.
    B = I - P_hat diagMat(1 / d) holds the rest of P_hat, so ``p_hat``
    rebuilds it from the two, within an ulp or so of the P_hat B came
    from, rather than keeping a second |I| x |I| array.
    """

    B: SimilarityMatrix
    alpha: np.ndarray
    d: np.ndarray

    @property
    def p_hat(self) -> np.ndarray:
        """P_hat: d on the diagonal and -B[i, j] d[j] off it."""
        p = self.B.values * -self.d[np.newaxis, :]
        np.fill_diagonal(p, self.d)
        return p


def ridge_primal(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """B = (X^T X + lam I)^{-1} X^T X via the item-side Gram.

    A shifted copy of the Gram is factored in place, and the solve writes
    the result over the Gram (its transpose is the same matrix, in the
    Fortran order potrs works in), so the two are the only |I| x |I|
    arrays, checked against the cap before the Gram is counted.
    """
    linalg.check_capacity(2 * X.n_items ** 2, f"primal ridge (|U|={X.n_users}, |I|={X.n_items})")
    g = linalg.gram(X)
    b = linalg.spd_solve(_shifted(g.copy(), lam), g.T).T
    linalg.symmetrize_in_place(b)
    return SimilarityMatrix(b, "ridge", {"lambda": lam, "form": "primal"})


def ridge_dual(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """B = X^T (X X^T + lam I)^{-1} X via the user-side Gram."""
    b = whitened_gram(X, lam)
    linalg.symmetrize_in_place(b)
    return SimilarityMatrix(b, "ridge", {"lambda": lam, "form": "dual"})


def ridge(X: InteractionMatrix, lam: float) -> SimilarityMatrix:
    """The ridge closed form that inverts the smaller Gram matrix."""
    return ridge_primal(X, lam) if X.n_items <= X.n_users else ridge_dual(X, lam)


def whitened_gram(M, lam: float) -> np.ndarray:
    """M^T (M M^T + lam I)^{-1} M for a feature matrix M (see linalg.gram).

    This is the item Gram of the ZCA-whitened features and the dual ridge
    closed form, for interactions X as for D x |I| embeddings E. Only the
    Gram of M.T, M M^T, is inverted, in place, against M in Fortran order;
    the one |I| x |I| array created is the result, which is not
    symmetrized. For X the final product X^T z is linalg.csr_matmul on
    X.T, the CSR the Gram was counted with. The result, M in Fortran order
    and the factor are checked against the cap before the Gram is.
    """
    interactions = isinstance(M, InteractionMatrix)
    m = M if interactions else np.asarray(M, dtype=np.float64)
    rows, items = m.shape
    linalg.check_capacity((items + rows) * items + rows * rows,
                          f"whitened Gram ({'|U|' if interactions else 'D'}={rows}, |I|={items})")
    shifted = _shifted(linalg.gram(m.T), lam)
    if not interactions:
        return m.T @ linalg.spd_solve(shifted, np.array(m, order="F"))
    return linalg.csr_matmul(m.T.indptr, m.T.indices, linalg.spd_solve(shifted, m.T.toarray().T))


def ease(M, lam: float) -> EaseSolution:
    """Zero-diagonal closed form B = I - P_hat diagMat(1 / diag(P_hat)).

    M is any feature matrix (see linalg.gram): interactions X, or
    embeddings E with E^T E in place of X^T X. As in ridge, the smaller Gram
    is inverted: wide M (more items than rows) takes P_hat by the Woodbury
    identity, (I - whitened_gram(M, lam)) / lam, the more accurate route there.
    """
    rows, items = M.shape
    if items <= rows:
        # The Gram is shifted, factored and inverted in place: the one
        # |I| x |I| array, which then becomes B.
        who = "|U|" if isinstance(M, InteractionMatrix) else "D"
        linalg.check_capacity(items * items, f"ease ({who}={rows}, |I|={items})")
        p_hat = linalg.spd_inverse(_shifted(linalg.gram(M), lam))
    else:
        # (I - W) / lam in W's own array: 0 - W, then + 1 on the diagonal, are
        # the bits of I - W.
        p_hat = whitened_gram(M, lam)
        np.subtract(0.0, p_hat, out=p_hat)
        p_hat[np.diag_indices(items)] += 1.0
        p_hat /= lam
    d = np.diag(p_hat).copy()
    if not np.all(d > 0.0):
        raise NumericalError(
            "diag of the inverse Gram has non-positive or NaN entries; "
            "the upstream solve must have failed"
        )
    alpha = 1.0 / d - lam
    # 0 - P_hat / d is I - P_hat / d off the diagonal, bit for bit (signed
    # zeros included), without an identity matrix; it is formed in P_hat's
    # own array.
    b = p_hat
    b /= d[np.newaxis, :]
    np.subtract(0.0, b, out=b)
    np.fill_diagonal(b, 0.0)
    sim = SimilarityMatrix(b, "ease", {"lambda": lam})
    return EaseSolution(sim, alpha, d)


def ease_decompose(sol: EaseSolution) -> tuple[SimilarityMatrix, np.ndarray]:
    """Split an EASE solution into its regularization and diagonal parts.

    Both come from sol.p_hat: whitening_term = I - lam P_hat, which is the
    plain ridge solution (X^T X + lam I)^{-1} X^T X, and diagonal_term =
    P_hat diagMat(alpha), so that sol.B = whitening_term - diagonal_term.
    """
    lam = sol.B.config["lambda"]
    p_hat = sol.p_hat
    w = np.eye(p_hat.shape[0]) - lam * p_hat
    whitening_term = SimilarityMatrix(w, "zca", {"lambda": lam, "source": "ease_decompose"})
    diagonal_term = p_hat * sol.alpha[np.newaxis, :]
    return whitening_term, diagonal_term


def _shifted(g: np.ndarray, lam: float) -> np.ndarray:
    """g + lam I, in g's own array; every ridge and EASE solve goes through here."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be > 0 and finite, got {lam}")
    g[np.diag_indices_from(g)] += lam
    return g
