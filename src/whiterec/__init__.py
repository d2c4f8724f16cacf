"""Closed-form linear autoencoders for item-based collaborative filtering.

The package learns dense item-item similarity matrices from binary
interaction data (ridge autoencoder, EASE, and an explicit ZCA-whitening
construction that coincides with ridge), builds SVD item embeddings and
the same models on top of them, and evaluates top-N ranking quality with
Recall@R and NDCG@R under a strong-generalization split.
"""

from .autoencoder import (
    EaseSolution,
    SimilarityMatrix,
    ease,
    ease_decompose,
    ridge,
    ridge_dual,
    ridge_primal,
    whitened_gram,
)
from .embedding import (
    EmbeddingMatrix,
    embed_dot,
    embed_ease,
    embed_ridge,
    load_embeddings,
    save_embeddings,
    svd_embed,
)
from .evalmetrics import EvalReport, evaluate
from .ingest import (
    HeldOutSet,
    InteractionLog,
    InteractionMatrix,
    SplitSpec,
    load_interactions,
    load_split,
    preprocess,
    save_split,
    split_strong_generalization,
)
from .whitening import (
    WhiteningTransform,
    fit_zca,
    whiten,
    zca_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "EaseSolution",
    "EmbeddingMatrix",
    "EvalReport",
    "HeldOutSet",
    "InteractionLog",
    "InteractionMatrix",
    "SimilarityMatrix",
    "SplitSpec",
    "WhiteningTransform",
    "ease",
    "ease_decompose",
    "embed_dot",
    "embed_ease",
    "embed_ridge",
    "evaluate",
    "fit_zca",
    "load_embeddings",
    "load_interactions",
    "load_split",
    "preprocess",
    "ridge",
    "ridge_dual",
    "ridge_primal",
    "save_embeddings",
    "save_split",
    "split_strong_generalization",
    "svd_embed",
    "whiten",
    "whitened_gram",
    "zca_similarity",
]
