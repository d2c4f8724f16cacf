"""Score items against users' histories and produce ranked top-N lists.

One blocked kernel serves every caller: fold-in rows are taken a block at a
time, scored with one sparse x dense product ``S = X_block @ B``, their seen
items masked, and the top ``min(n, |I|)`` entries of each row picked with
exact ties (score descending, then item index ascending). ``evaluate``
consumes the blocks directly; ``batch_recommend``, ``score_user`` and
``top_n`` wrap them as Python lists.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from . import linalg
from .artifact import atomic_open
from .autoencoder import SimilarityMatrix
from .ingest import InteractionMatrix

# Bytes of float64 scores held at once; a block has this many bytes' worth
# of fold-in rows. Larger blocks are no faster and raise peak memory.
SCORE_BLOCK_BYTES = 1 << 20


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
    return (_row(y, B.dim) @ B.values)[0]


def top_n(scores: np.ndarray, seen: np.ndarray, n: int) -> list[tuple[int, float]]:
    """First n unseen items by (score desc, item index asc)."""
    scores = np.array(scores, dtype=np.float64, ndmin=2)
    seen = _row(np.unique(np.asarray(seen, dtype=np.int64)), scores.shape[1])
    items, values, lengths = _top_rows(scores, seen, n)
    return list(zip(items[0, :lengths[0]].tolist(), values[0, :lengths[0]].tolist()))


def ranked_blocks(foldin: InteractionMatrix, B: SimilarityMatrix,
                  n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Top-n unseen items of every fold-in row, one block of rows at a time.

    Yields ``(first_row, items, scores, lengths)``: ``items`` and ``scores``
    are (rows, min(n, |I|)) arrays in ranked order, and row r's list is
    its first ``lengths[r]`` entries (the rest are seen items).
    """
    if foldin.n_items != B.dim:
        raise ValueError(
            f"fold-in matrix has {foldin.n_items} items but the model covers {B.dim}"
        )
    if not np.isfinite(B.values).all():
        raise ValueError(f"{B.kind} similarity matrix has non-finite entries")
    rows = max(1, SCORE_BLOCK_BYTES // (8 * max(B.dim, 1)))
    linalg.check_capacity(rows, B.dim, "score block")
    for start in range(0, foldin.n_users, rows):
        block = foldin.matrix[start:start + rows]
        yield (start, *_top_rows(block @ B.values, block, n))


def _row(items: np.ndarray, dim: int) -> sp.csr_matrix:
    """One-row binary CSR matrix with the given column indices, in order."""
    return sp.csr_matrix((np.ones(items.size), items, [0, items.size]), shape=(1, dim))


def _top_rows(scores: np.ndarray, seen: sp.csr_matrix,
              n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked top-min(n, |I|) of each score row after masking ``seen`` (in place).

    The k-th largest value splits each row: every entry above it is kept,
    plus the lowest-index entries equal to it, so a tie straddling the
    cut resolves exactly as a stable sort of the whole row would.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    rows, dim = scores.shape
    k = min(n, dim)
    n_seen = np.diff(seen.indptr)
    scores[np.repeat(np.arange(rows), n_seen), seen.indices] = -np.inf
    kth = np.partition(scores, dim - k, axis=1)[:, dim - k, None]
    above = scores > kth
    tied = scores == kth
    keep = above | (tied & (np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)))
    items = np.nonzero(keep)[1].reshape(rows, k)
    values = np.take_along_axis(scores, items, axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    return (np.take_along_axis(items, order, axis=1),
            np.take_along_axis(values, order, axis=1),
            np.minimum(k, dim - n_seen))


def batch_recommend(foldin: InteractionMatrix, B: SimilarityMatrix,
                    n: int) -> list[RankedList]:
    """Ranked lists for every fold-in user, in the matrix's row order."""
    ranked = []
    for start, items, scores, lengths in ranked_blocks(foldin, B, n):
        for u, (row_items, row_scores, length) in enumerate(
                zip(items.tolist(), scores.tolist(), lengths.tolist()), start):
            ranked.append(RankedList(u, list(zip(row_items[:length], row_scores[:length]))))
    return ranked


def _csv_fields(values: list[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-3])  # drop the "," and "\r\n"
    return fields


def export_ranked_csv(ranked: list[RankedList], user_ids: list[str],
                      item_ids: list[str], path: str | Path) -> None:
    """Write ranked lists as (user_id, rank, item_id, score) rows.

    The bytes are those of ``csv.writer``: minimal quoting, ``\\r\\n`` line
    ends, scores as ``repr``. Ids are quoted once; rows stream per user.
    """
    users, items = _csv_fields(user_ids), _csv_fields(item_ids)
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("user_id,rank,item_id,score\r\n")
        for rl in ranked:
            user = users[rl.user]
            fh.write("".join(f"{user},{rank},{items[item]},{score!r}\r\n"
                             for rank, (item, score) in enumerate(rl.entries, start=1)))
