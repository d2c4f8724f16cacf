"""SVD item embeddings and similarity models computed on top of them.

Embeddings are the D x |I| matrix E = S^{1/2} V^T taken from the top-D
singular triplets of the interaction matrix, which linalg.spectrum reads
from the smaller Gram (the zca kind reads it at full rank), not from a
general SVD. Both autoencoders on embeddings invert only the D x D Gram,
so their cost follows D rather than |I|: ridge is the whitened embedding
Gram, and EASE (for D < |I|) its zero-diagonal normalization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifact, linalg
from .autoencoder import SimilarityMatrix, ease, whitened_gram
from .ingest import InteractionMatrix


@dataclass
class EmbeddingMatrix:
    """Dense D x |I| item embeddings; rows are latent dimensions.

    ``singular_values`` keeps the length-D singular spectrum from the
    factorization when available (it is not part of the on-disk format).
    """

    values: np.ndarray
    singular_values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def n_items(self) -> int:
        return self.values.shape[1]


def svd_embed(X: InteractionMatrix, d: int) -> EmbeddingMatrix:
    """Top-d singular triplets of X folded into E = S_d^{1/2} V_d^T.

    linalg.spectrum gives sigma_d^2 and V_d^T, scaled here in place. If d
    exceeds the numerical rank (judged against the top squared singular
    value) the trailing rows of E are zeroed and a warning is emitted.
    """
    if not 1 <= d <= min(X.n_users, X.n_items):
        raise ValueError(
            f"embedding dim must be in [1, min(|U|, |I|)] = "
            f"[1, {min(X.n_users, X.n_items)}], got {d}"
        )
    sq, rows = linalg.spectrum(X, d)
    deficient = sq <= linalg.RANK_RTOL * sq[0]
    if np.any(deficient):
        warnings.warn(
            f"requested {d} embedding dimensions but numerical rank is "
            f"{int(np.sum(~deficient))}; trailing rows are zero",
            stacklevel=2,
        )
    sigma = np.sqrt(sq)
    rows *= np.sqrt(sigma)[:, np.newaxis]
    rows[deficient, :] = 0.0
    return EmbeddingMatrix(values=rows, singular_values=sigma)


def embed_dot(e: EmbeddingMatrix) -> SimilarityMatrix:
    """Plain inner-product similarity E^T E, the no-whitening baseline."""
    b = linalg.gram(e.values)
    return SimilarityMatrix(b, "embed_dot", {"embedding_dim": e.dim})


def embed_ridge(e: EmbeddingMatrix, lam: float) -> SimilarityMatrix:
    """Ridge autoencoder on embeddings via the dual form E^T (E E^T + lam I)^{-1} E.

    Only the D x D Gram is ever inverted; the single |I| x |I| array this
    function creates is the returned similarity matrix itself.
    """
    b = whitened_gram(e.values, lam)
    return SimilarityMatrix(b, "embed_ridge", {"lambda": lam, "embedding_dim": e.dim})


def embed_ease(e: EmbeddingMatrix, lam: float) -> SimilarityMatrix:
    """EASE on embeddings: the usual closed form with Gram E^T E.

    For D < |I|, ease takes (E^T E + lam I)^{-1} from the D x D Gram by the
    Woodbury identity, as (I - whitened_gram(E, lam)) / lam: the same solve
    as embed_ridge, then the zero-diagonal step.
    """
    b = ease(e.values, lam).B.values
    return SimilarityMatrix(b, "embed_ease", {"lambda": lam, "embedding_dim": e.dim})


# ---------------------------------------------------------------------------
# Persistence: header (D, |I|), D x |I| values, item vocabulary.
# ---------------------------------------------------------------------------

EMBEDDING_FILE = artifact.Layout(b"WREC-EMB", 1, "II", lambda header: header)


def save_embeddings(e: EmbeddingMatrix, item_ids: list[str], path: str | Path) -> None:
    """Write an embedding file (see artifact for the shared layout)."""
    EMBEDDING_FILE.write(path, (e.dim, e.n_items), e.values, item_ids)


def load_embeddings(path: str | Path) -> tuple[EmbeddingMatrix, list[str]]:
    """Read a file written by save_embeddings; singular values are not stored."""
    _, values, item_ids = EMBEDDING_FILE.read(path)
    return EmbeddingMatrix(values=values, singular_values=None), item_ids
