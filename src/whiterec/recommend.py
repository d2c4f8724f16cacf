"""Score items against a user's history and produce ranked top-N lists."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autoencoder import SimilarityMatrix
from .ingest import InteractionMatrix


@dataclass
class RankedList:
    """Top-N recommendations for one user.

    ``entries`` is ordered by score descending with ties broken by
    ascending item index, and never contains a fold-in (seen) item.
    """

    user: int
    entries: list[tuple[int, float]]

    def items(self) -> list[int]:
        return [i for i, _ in self.entries]


def score_user(y: np.ndarray, B: SimilarityMatrix) -> np.ndarray:
    """Preference scores s_i = sum over the user's items j of B[j, i].

    ``y`` is the sparse history as an array of item indices; the dense
    binary vector is never materialized, only the selected rows of B.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= B.dim):
        raise ValueError(
            f"history indices out of range for a {B.dim}-item similarity matrix"
        )
    if y.size == 0:
        return np.zeros(B.dim)
    return B.values[y, :].sum(axis=0)


def top_n(scores: np.ndarray, seen: np.ndarray, n: int) -> list[tuple[int, float]]:
    """First n unseen items by (score desc, item index asc)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Stable argsort of -scores orders equal scores by ascending index.
    order = np.argsort(-scores, kind="stable")
    seen_mask = np.zeros(scores.shape[0], dtype=bool)
    seen_mask[np.asarray(seen, dtype=np.int64)] = True
    picked = order[~seen_mask[order]][:n]
    return [(int(i), float(scores[i])) for i in picked]


def batch_recommend(foldin: InteractionMatrix, B: SimilarityMatrix,
                    n: int) -> list[RankedList]:
    """Ranked lists for every fold-in user, in the matrix's row order."""
    if foldin.n_items != B.dim:
        raise ValueError(
            f"fold-in matrix has {foldin.n_items} items but the model covers {B.dim}"
        )
    ranked = []
    for u in range(foldin.n_users):
        seen = foldin.row_items(u)
        ranked.append(RankedList(user=u, entries=top_n(score_user(seen, B), seen, n)))
    return ranked


def export_ranked_csv(ranked: list[RankedList], user_ids: list[str],
                      item_ids: list[str], path: str | Path) -> None:
    """Write ranked lists as (user_id, rank, item_id, score) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "rank", "item_id", "score"])
        for rl in ranked:
            for rank, (item, score) in enumerate(rl.entries, start=1):
                writer.writerow([user_ids[rl.user], rank, item_ids[item], repr(score)])
