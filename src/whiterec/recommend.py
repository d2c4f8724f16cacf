"""Score items against users' histories and produce ranked top-N lists.

Every model kind ends as one dense item-item matrix B, and a user's scores
are the row ``x @ B`` of their binary fold-in vector x. One blocked kernel
serves every caller: fold-in rows are taken a block at a time, scored
straight from their CSR arrays (:func:`whiterec.linalg.csr_matmul`, the
kernel that also forms X^T products for the solvers; it is bitwise equal
to scipy's CSR x dense product, and loads no scipy module), their seen
items masked, and the top ``min(n, |I|)`` entries of each row picked with
exact ties (score descending, then item index ascending): every entry at
or above a row's k-th value is kept, and only the rows where a tie at that
value straddles the cut are counted to drop its surplus. A pass makes its
block-sized arrays once, at its first block, and every block reuses them
(:class:`_Workspace`), so it faults in no fresh pages per block.
``evaluate`` consumes the blocks directly; ``batch_recommend``,
``score_user`` and ``top_n`` wrap them as Python lists.

``write_recommendations`` turns the blocks straight into CSV rows: each
block's rows are interleaved columns of strings, joined once, with one
``repr`` per score. It cuts the fold-in rows into contiguous shards, one
per worker: as many workers as usable cores, but at most one per
``FORK_MIN_ROWS`` output rows, and one where ``os.fork`` is missing. Each
shard after the first is ranked and formatted in a forked child, which
returns its rows as one bytes value; written in shard order, the file has
the bytes one process writes.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import linalg, workers
from .artifact import atomic_open
from .autoencoder import SimilarityMatrix
from .ingest import InteractionMatrix

# Output rows each worker of write_recommendations must have: a worker
# with fewer costs more to fork and collect than it saves. Fresh
# ``recommend`` processes on a 2-core VM, one process against two, medians
# of 30 alternating runs on the tall-log fold-in (2,000 users x 1,000
# items, N = 5, 10, 20, 30): 10k rows 0.32 against 0.34 s, 20k rows 0.37
# against 0.35 s, 40k rows 0.34 against 0.33 s, 60k rows 0.52 against
# 0.46 s. The break-even lies between 10k and 20k rows; a constant that
# forked at 20k rows would also fork at 10k, so it stays here.
FORK_MIN_ROWS = 20_000

CSV_HEADER = b"user_id,rank,item_id,score\r\n"


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
    return linalg.csr_matmul(np.array([0, y.size]), y, B.values)[0]


def top_n(scores: np.ndarray, seen: np.ndarray, n: int) -> list[tuple[int, float]]:
    """First n unseen items by (score desc, item index asc)."""
    scores = np.array(scores, dtype=np.float64, ndmin=2)
    seen = np.unique(np.asarray(seen, dtype=np.int64))
    if seen.size and (seen[0] < 0 or seen[-1] >= scores.shape[1]):
        raise ValueError(f"seen indices out of range for {scores.shape[1]} items")
    items, values, lengths = _top_rows(scores, np.array([0, seen.size]), seen, n,
                                       _Workspace(*scores.shape))
    return list(zip(items[0, :lengths[0]].tolist(), values[0, :lengths[0]].tolist()))


def ranked_blocks(foldin: InteractionMatrix, B: SimilarityMatrix, n: int,
                  ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Top-n unseen items of every fold-in row, a block at a time.

    Yields ``(first_row, items, scores, lengths)``: ``items`` and ``scores``
    are (rows, min(n, |I|)) arrays in ranked order, and row r's list is
    its first ``lengths[r]`` entries (the rest are seen items). The model,
    and the capacity of the whole ranking workspace, are checked when this
    is called, before any block is scored; the workspace itself is
    allocated at the first block and reused by every later one.
    """
    _check_model(foldin, B)
    return _shard(foldin, B, n, 0, foldin.n_users)


def _check_model(foldin: InteractionMatrix, B: SimilarityMatrix) -> None:
    """ValueError unless B covers the fold-in items and is finite: once per
    ranking call, however many shards it ranks."""
    if foldin.n_items != B.dim:
        raise ValueError(
            f"fold-in matrix has {foldin.n_items} items but the model covers {B.dim}"
        )
    if not linalg.all_finite(B.values):
        raise ValueError(f"{B.kind} similarity matrix has non-finite entries")


def _shard(foldin: InteractionMatrix, B: SimilarityMatrix, n: int, start: int,
           stop: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """ranked_blocks of a checked model: the workspace capacity is checked now."""
    # A score block is exactly the output block csr_matmul forms.
    rows = max(1, min(linalg.product_rows(B.dim), stop - start))
    linalg.check_capacity(rows * B.dim, f"ranking workspace ({rows} x {B.dim})",
                          _Workspace.ENTRY_BYTES)
    return _ranked_blocks(foldin, B, n, start, stop, rows)


def _ranked_blocks(foldin: InteractionMatrix, B: SimilarityMatrix, n: int, start: int,
                   stop: int, rows: int,
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    # A generator: the workspace exists only once a block is asked for, so
    # write_recommendations' parent holds none for the shards its children rank.
    work = _Workspace(rows, B.dim)
    for first in range(start, stop, rows):
        indptr = foldin.indptr[first:min(first + rows, stop) + 1]
        indices = foldin.indices[indptr[0]:indptr[-1]]
        indptr = indptr - indptr[0]
        scores = linalg.csr_matmul(indptr, indices, B.values, out=work.scores[:len(indptr) - 1],
                                   work=work.product)
        yield (first, *_top_rows(scores, indptr, indices, n, work))


class _Workspace:
    """The block-sized arrays of one ranking pass, made once and reused by every block.

    Reusing them keeps a pass from faulting in fresh pages for each block,
    so its speed does not depend on what earlier frees left in the
    allocator.
    """

    # Bytes per score entry: three 8-byte arrays and three masks.
    ENTRY_BYTES = 3 * 8 + 3

    def __init__(self, rows: int, dim: int):
        self.scores = np.empty((rows, dim))
        # csr_matmul's accumulator and gather target. Scoring is done with
        # them when _top_rows starts, so they then hold its partition copy,
        # and then the scores and running tie counts of the rows whose tie
        # straddles the cut (_cut_ties).
        self.product = np.empty((2, rows, dim))
        self.partition = self.product[0]
        self.counts = self.product[1].view(np.int64)
        # The block's kept entries; the straddling rows' tied and dropped entries.
        self.masks = np.empty((3, rows, dim), dtype=bool)


def _top_rows(scores: np.ndarray, indptr: np.ndarray, indices: np.ndarray, n: int,
              work: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked top-min(n, |I|) of each score row after masking seen items (in place).

    Row r's seen items are ``indices[indptr[r]:indptr[r + 1]]``. Every
    block-sized intermediate lives in ``work``, which has at least as many
    rows as ``scores``.

    The k-th largest value splits each row: every entry at or above it is
    kept. A row that keeps more than k entries has a tie straddling the
    cut, and on those rows alone :func:`_cut_ties` drops all but the
    lowest-index tied entries, so the tie resolves exactly as a stable sort
    of the whole row would. The k kept entries, in index order, are ranked
    by the default argsort, and by a stable one where their values repeat.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rows, dim = scores.shape
    keep = work.masks[0, :rows]
    if not np.isfinite(scores, out=keep).all():
        raise ValueError("scores must be finite")
    k = min(n, dim)
    n_seen = np.diff(indptr)
    scores[np.repeat(np.arange(rows), n_seen), indices] = -np.inf
    part = work.partition[:rows]
    np.copyto(part, scores)
    part.partition(dim - k, axis=1)
    kth = part[:, dim - k, None].copy()  # _cut_ties reuses the partition copy
    np.greater_equal(scores, kth, out=keep)
    n_keep = np.count_nonzero(keep, axis=1)
    straddling = np.flatnonzero(n_keep > k)
    if straddling.size:
        _cut_ties(scores, kth, keep, n_keep, straddling, k, work)
    flat = np.flatnonzero(keep)
    values = scores.reshape(-1)[flat].reshape(rows, k)
    items = flat.reshape(rows, k)
    items -= np.arange(0, rows * dim, dim)[:, None]
    order = np.argsort(-values, axis=1)
    ranked = np.take_along_axis(values, order, axis=1)
    repeats = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if repeats.size:
        repeated = values[repeats]
        order[repeats] = np.argsort(-repeated, axis=1, kind="stable")
        ranked[repeats] = np.take_along_axis(repeated, order[repeats], axis=1)
    return np.take_along_axis(items, order, axis=1), ranked, np.minimum(k, dim - n_seen)


def _cut_ties(scores: np.ndarray, kth: np.ndarray, keep: np.ndarray, n_keep: np.ndarray,
              straddling: np.ndarray, k: int, work: _Workspace) -> None:
    """Unmark in ``keep`` the tied entries past the cut of each straddling row.

    Of a row's entries equal to its k-th value, the first k - (entries
    above it) by index make the cut. Only these rows are counted, in the
    workspace's partition copy, counts and spare masks.
    """
    m = len(straddling)
    # mode="clip" takes straight into out; the indices are all in range.
    sub = np.take(scores, straddling, axis=0, out=work.partition[:m], mode="clip")
    tied = np.equal(sub, kth[straddling], out=work.masks[1, :m])
    counts = work.counts[:m]
    # Cast first: a cumsum of the bool mask itself converts it in a fresh array.
    np.copyto(counts, tied)
    np.cumsum(counts, axis=1, out=counts)
    # Kept entries above the k-th value are n_keep - n_tied; the rest of k are tied.
    room = k - n_keep[straddling] + counts[:, -1]
    drop = np.greater(counts, room[:, None], out=work.masks[2, :m])
    drop &= tied
    keep[straddling] ^= drop


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


def _user_rows(user: str, items: list[str], entries: Iterable[tuple[int, float]]) -> str:
    """One user's CSV rows; ``user`` and ``items`` are quoted fields."""
    return "".join(f"{user},{rank},{items[item]},{score!r}\r\n"
                   for rank, (item, score) in enumerate(entries, start=1))


def export_ranked_csv(ranked: list[RankedList], user_ids: list[str],
                      item_ids: list[str], path: str | Path) -> None:
    """Write ranked lists as (user_id, rank, item_id, score) rows.

    The bytes are those of ``csv.writer``: minimal quoting, ``\\r\\n`` line
    ends, scores as ``repr``. Ids are quoted once; rows stream per user.
    """
    users, items = _csv_fields(user_ids), _csv_fields(item_ids)
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_HEADER.decode())
        for rl in ranked:
            fh.write(_user_rows(users[rl.user], items, rl.entries))


def write_recommendations(foldin: InteractionMatrix, B: SimilarityMatrix, n: int,
                          item_ids: list[str], path: str | Path) -> np.ndarray:
    """Rank every fold-in row into CSV rows at ``path``; returns each row's list length.

    The bytes are those of ``export_ranked_csv(batch_recommend(foldin, B,
    n), foldin.user_ids, item_ids, path)``, but ranked blocks turn into CSV
    text as they come, and no ``RankedList`` is built. The rows are cut
    into contiguous shards, one per worker (see :func:`_worker_count`).
    Each shard after the first is ranked and formatted by a forked child
    (:func:`whiterec.workers.forked`), which returns its rows joined into
    one bytes value; this process streams the first shard meanwhile, then
    appends the others in order. A row's list does not depend on the rows
    ranked with it, so the file is the same whatever the number of
    workers. A failed worker is a ``WhiterecError``; every child is reaped
    before this returns, and killed first if anything failed.
    """
    # Checked here, once, so a bad model raises in this process before any fork.
    _check_model(foldin, B)
    lengths = np.minimum(n, B.dim - np.diff(foldin.indptr))
    n_workers = _worker_count(int(lengths.sum()), foldin.n_users)
    bounds = [foldin.n_users * k // n_workers for k in range(n_workers + 1)]
    shards = [_shard(foldin, B, n, start, stop) for start, stop in zip(bounds, bounds[1:])]
    users, items = _csv_fields(foldin.user_ids), _csv_fields(item_ids)
    # Each job joins its shard's rows; the generator runs only in the child.
    jobs = [(f"ranking worker for fold-in rows {start}-{stop - 1}",
             functools.partial(b"".join, _format_shard(shard, users, items)))
            for start, stop, shard in zip(bounds[1:], bounds[2:], shards[1:])]
    with workers.forked(jobs) as shard_bytes, atomic_open(path, "wb") as fh:
        fh.write(CSV_HEADER)
        fh.writelines(_format_shard(shards[0], users, items))
        fh.writelines(shard_bytes)
    return lengths


def _worker_count(rows: int, users: int) -> int:
    """Usable cores, at most one per FORK_MIN_ROWS output rows and one per user.

    Without ``os.fork`` there is one worker, this process.
    """
    return max(1, min(workers.worker_count(rows, FORK_MIN_ROWS), users))


def _format_shard(blocks: Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
                  users: list[str], items: list[str]) -> Iterator[bytes]:
    """The CSV rows of ranked blocks, one UTF-8 chunk per block.

    A listed entry is five strings: the quoted user, ``",{rank},"``, the
    quoted item and its comma, the score's ``repr`` and ``"\r\n"``. The
    first three are taken from object arrays made once per shard, by the
    block's list lengths, ranks and ranked items. A block's strings are
    interleaved in one list, 5 pointers per listed entry, and joined once;
    each column takes at most two more pointers per entry while it is
    filled in.
    """
    users = np.array(users, dtype=object)
    items = np.array([f"{item}," for item in items], dtype=object)
    ranks = np.array([f",{rank}," for rank in range(1, len(items) + 1)], dtype=object)
    for first, ranked, scores, lengths in blocks:
        rows, k = ranked.shape
        listed = np.arange(k) < lengths[:, None]
        parts = ["\r\n"] * (5 * int(lengths.sum()))
        parts[0::5] = np.repeat(users[first:first + rows], lengths).tolist()
        parts[1::5] = np.broadcast_to(ranks[:k], (rows, k))[listed].tolist()
        parts[2::5] = items[ranked[listed]].tolist()
        parts[3::5] = map(float.__repr__, scores[listed].tolist())
        yield "".join(parts).encode("utf-8")
