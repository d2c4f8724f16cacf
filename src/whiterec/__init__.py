"""Closed-form linear autoencoders for item-based collaborative filtering.

The package learns dense item-item similarity matrices from binary
interaction data (ridge autoencoder, EASE, and an explicit ZCA-whitening
construction that coincides with ridge), builds SVD item embeddings and
the same models on top of them, and evaluates top-N ranking quality with
Recall@R and NDCG@R under a strong-generalization split.
"""

from .autoencoder import (
    EaseSolution,
    RidgeConfig,
    SimilarityMatrix,
    ease,
    ease_decompose,
    ridge,
    ridge_dual,
    ridge_primal,
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
from .evalmetrics import EvalReport, evaluate, ndcg_at_r, recall_at_r
from .ingest import (
    HeldOutSet,
    InteractionLog,
    InteractionMatrix,
    RawInteraction,
    SplitSpec,
    load_interactions,
    load_split,
    preprocess,
    save_split,
    split_strong_generalization,
)
from .recommend import RankedList, batch_recommend, score_user, top_n
from .whitening import (
    CovarianceMatrix,
    WhiteningTransform,
    covariance,
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
    "RankedList",
    "RawInteraction",
    "RidgeConfig",
    "SimilarityMatrix",
    "SplitSpec",
    "WhiteningTransform",
    "CovarianceMatrix",
    "batch_recommend",
    "covariance",
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
    "ndcg_at_r",
    "preprocess",
    "recall_at_r",
    "ridge",
    "ridge_dual",
    "ridge_primal",
    "save_embeddings",
    "save_split",
    "score_user",
    "split_strong_generalization",
    "svd_embed",
    "top_n",
    "whiten",
    "zca_similarity",
]
