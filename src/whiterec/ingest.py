"""Load raw interaction logs, filter them, and build held-out user splits.

The pipeline implemented here is the usual implicit-feedback protocol:
optional rating thresholding, binarization and deduplication, iterative
minimum-count filtering of users and items, and a strong-generalization
split in which whole users are held out and each held-out user's items are
divided into a fold-in part (given to the model) and a target part (what
the model is scored against).

A raw log is parsed into an :class:`InteractionLog`: integer user and item
codes plus ratings, one array element per event. Filtering works on those
arrays only; id strings are looked at again just to sort the survivors.

Split artifacts are persisted in a sparse-triplet text format: a one-line
header ``n_users n_items nnz`` followed by one ``user_index item_index``
pair per line. A held-out set is stored as two such files (fold-in and
targets) sharing the same local user order, plus sidecar vocabulary files
so models and splits can be checked for compatibility later.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .artifact import atomic_open
from .errors import EmptyDatasetError, ParseError, SplitError

_HEADER_NAMES = {
    "user", "item", "rating", "timestamp", "time", "ts",
    "user_id", "item_id", "userid", "itemid", "uid", "iid",
}


@dataclass(frozen=True)
class RawInteraction:
    """One raw event: user did something with item, optionally rated/timestamped."""

    user_id: str
    item_id: str
    rating: float | None = None
    timestamp: int | None = None

    def __post_init__(self):
        if not self.user_id or not self.item_id:
            raise ValueError("user_id and item_id must be non-empty")


@dataclass(frozen=True, eq=False)
class InteractionLog:
    """A raw interaction log as columns, one element per event.

    Event ``k`` is user ``user_ids[users[k]]`` with item
    ``item_ids[items[k]]``; ``ratings[k]`` is its rating, NaN when the event
    has none. Codes are int64, assigned in order of first appearance.
    Timestamps are validated by :func:`load_interactions` but not kept,
    because nothing downstream reads them.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    def __post_init__(self):
        if not len(self.users) == len(self.items) == len(self.ratings):
            raise ValueError("users, items and ratings must have one entry per event")

    def __len__(self) -> int:
        return len(self.users)

    def positives(self, threshold: float | None) -> np.ndarray:
        """Mask of the events that count as positive interactions.

        An event is positive when it has no rating or is rated at least
        ``threshold``; every event is when ``threshold`` is None.
        """
        if threshold is None:
            return np.ones(len(self), dtype=bool)
        # NaN compares False, so events without a rating pass.
        return ~(self.ratings < threshold)

    @classmethod
    def from_records(cls, records) -> "InteractionLog":
        """Build a log from RawInteraction records; a rating of None becomes NaN."""
        return cls._from_strings(
            [r.user_id for r in records], [r.item_id for r in records],
            [math.nan if r.rating is None else r.rating for r in records],
        )

    @classmethod
    def _from_strings(cls, users: list[str], items: list[str],
                      ratings: list[float]) -> "InteractionLog":
        user_codes, user_ids = _encode(users)
        item_codes, item_ids = _encode(items)
        return cls(user_codes, item_codes, np.array(ratings, dtype=np.float64),
                   user_ids, item_ids)


def _encode(ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Codes of ``ids`` in order of first appearance, and the vocabulary."""
    index = dict(zip(dict.fromkeys(ids), itertools.count()))
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)), list(index)


@dataclass(frozen=True)
class SplitSpec:
    """Preprocessing and split parameters.

    Defaults follow the common implicit-feedback protocol: ratings of 4+
    count as positive interactions, users need at least 5 of them, and 10%
    of users go to each of validation and test with an 80/20 fold-in /
    target division of their items.
    """

    heldout_user_fraction: float = 0.1
    foldin_fraction: float = 0.8
    rng_seed: int = 0
    min_user_interactions: int = 5
    min_item_interactions: int = 1
    rating_threshold: float | None = 4.0

    def __post_init__(self):
        if not 0.0 < self.heldout_user_fraction < 1.0:
            raise ValueError("heldout_user_fraction must be in (0, 1)")
        if not 0.0 < self.foldin_fraction < 1.0:
            raise ValueError("foldin_fraction must be in (0, 1)")
        if self.min_user_interactions < 1 or self.min_item_interactions < 1:
            raise ValueError("minimum interaction counts must be >= 1")


class InteractionMatrix:
    """Sparse binary user-item matrix with id vocabularies.

    Rows are users, columns are items; stored entries are implicitly 1.
    Row item indices are kept sorted and unique.
    """

    def __init__(self, matrix: sp.csr_matrix, user_ids: list[str], item_ids: list[str]):
        matrix = matrix.tocsr()
        matrix.sort_indices()
        if matrix.shape != (len(user_ids), len(item_ids)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match vocab sizes "
                f"({len(user_ids)}, {len(item_ids)})"
            )
        if matrix.nnz and not np.all(matrix.data == 1.0):
            raise ValueError("interaction matrix entries must all be 1")
        self.matrix = matrix
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.user_ids)}

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {it: i for i, it in enumerate(self.item_ids)}

    def row_items(self, u: int) -> np.ndarray:
        """Sorted item indices of user row u."""
        m = self.matrix
        return m.indices[m.indptr[u]:m.indptr[u + 1]]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray().astype(np.float64)

    @classmethod
    def from_pairs(cls, user_idx, item_idx, n_users: int, n_items: int,
                   user_ids=None, item_ids=None) -> "InteractionMatrix":
        """Build from parallel index arrays; duplicate pairs collapse to 1."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        data = np.ones(len(user_idx), dtype=np.float64)
        m = sp.coo_matrix((data, (user_idx, item_idx)), shape=(n_users, n_items)).tocsr()
        m.sum_duplicates()
        m.data[:] = 1.0
        if user_ids is None:
            user_ids = [f"u{i}" for i in range(n_users)]
        if item_ids is None:
            item_ids = [f"i{j}" for j in range(n_items)]
        return cls(m, user_ids, item_ids)

    @classmethod
    def from_dense(cls, arr, user_ids=None, item_ids=None) -> "InteractionMatrix":
        arr = np.asarray(arr)
        rows, cols = np.nonzero(arr)
        return cls.from_pairs(rows, cols, arr.shape[0], arr.shape[1], user_ids, item_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and self.item_ids == other.item_ids
            and self.matrix.shape == other.matrix.shape
            and (self.matrix != other.matrix).nnz == 0
        )


@dataclass
class HeldOutSet:
    """Held-out users: fold-in interactions plus disjoint target item sets.

    ``foldin`` and ``targets`` share the same local user order and the same
    (global) item vocabulary. ``n_excluded_users`` counts users dropped at
    split time because their fold-in or target part came out empty.
    """

    foldin: InteractionMatrix
    targets: InteractionMatrix
    n_excluded_users: int = 0

    def __post_init__(self):
        if self.foldin.matrix.shape != self.targets.matrix.shape:
            raise ValueError("fold-in and target matrices must have identical shape")
        if self.foldin.item_ids != self.targets.item_ids:
            raise ValueError("fold-in and target item vocabularies differ")
        overlap = self.foldin.matrix.multiply(self.targets.matrix)
        if overlap.nnz:
            raise ValueError("fold-in and target sets overlap for some user")

    @property
    def n_users(self) -> int:
        return self.foldin.n_users

    @property
    def n_items(self) -> int:
        return self.foldin.n_items

    def target_items(self, u: int) -> np.ndarray:
        return self.targets.row_items(u)


def load_interactions(path: str | Path, fmt: str = "csv") -> InteractionLog:
    """Parse a CSV/TSV interaction log into an InteractionLog.

    Expected columns: user, item[, rating[, timestamp]]. A header line is
    optional and detected by name. Fields are stripped; an empty rating
    means no rating. Raises ParseError with the offending physical line
    number on a wrong column count, an empty id, a rating that is not a
    finite float or a timestamp that is not an integer, and
    EmptyDatasetError on empty input.
    """
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    delimiter = "," if fmt == "csv" else "\t"
    path = Path(path)
    users: list[str] = []
    items: list[str] = []
    ratings: list[float] = []
    nan, isfinite, strip = math.nan, math.isfinite, str.strip
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for n, row in enumerate(reader):
            fields = list(map(strip, row))
            if not fields or fields == [""]:
                continue
            if n == 0 and _looks_like_header(fields):
                continue
            if len(fields) < 2 or len(fields) > 4:
                raise ParseError(f"{path}: line {reader.line_num}: "
                                 f"expected 2-4 columns, got {len(fields)}")
            user, item, rating, timestamp = fields + [""] * (4 - len(fields))
            if not user or not item:
                raise ParseError(f"{path}: line {reader.line_num}: empty user or item id")
            try:
                if rating:
                    value = float(rating)
                    if not isfinite(value):
                        raise ValueError(f"rating {rating!r} is not finite")
                else:
                    value = nan
                if timestamp:
                    int(timestamp)
            except ValueError as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
            users.append(user)
            items.append(item)
            ratings.append(value)
    if not users:
        raise EmptyDatasetError(f"{path}: no interaction records found")
    return InteractionLog._from_strings(users, items, ratings)


def _looks_like_header(fields: list[str]) -> bool:
    return all(f.lower() in _HEADER_NAMES for f in fields) and len(fields) >= 2


def preprocess(log: InteractionLog, spec: SplitSpec) -> InteractionMatrix:
    """Threshold, binarize, deduplicate, and min-count filter a raw log.

    Events rated below ``spec.rating_threshold`` are dropped; unrated
    events are kept. Filtering drops users with too few items and items
    with too few users until a fixed point, because each drop can
    invalidate counts on the other side; the result is the largest
    sub-log meeting both minimums, whatever the order of drops. Surviving
    ids are indexed densely in sorted order.
    """
    if not len(log):
        raise EmptyDatasetError("no raw interactions given")
    keep = log.positives(spec.rating_threshold)
    users, items = log.users[keep], log.items[keep]
    n_items = len(log.item_ids)
    users, items = np.divmod(np.unique(users * n_items + items), n_items)
    if not len(users):
        raise EmptyDatasetError("all interactions removed by the rating threshold")

    while True:
        keep = ((np.bincount(users)[users] >= spec.min_user_interactions)
                & (np.bincount(items)[items] >= spec.min_item_interactions))
        if keep.all():
            break
        users, items = users[keep], items[keep]
    if not len(users):
        raise EmptyDatasetError("no users or items survive the minimum-count filters")

    rows, user_ids = _reindex_sorted(users, log.user_ids)
    cols, item_ids = _reindex_sorted(items, log.item_ids)
    return InteractionMatrix.from_pairs(rows, cols, len(user_ids), len(item_ids),
                                        user_ids, item_ids)


def _reindex_sorted(codes: np.ndarray, vocab: list[str]) -> tuple[np.ndarray, list[str]]:
    """Dense indices of ``codes`` in sorted order of their ids, and those ids."""
    present = np.unique(codes)
    ids = [vocab[c] for c in present.tolist()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    dense = np.empty(int(present[-1]) + 1, dtype=np.int64)
    dense[present[order]] = np.arange(len(order))
    return dense[codes], [ids[k] for k in order]


def split_strong_generalization(
    X: InteractionMatrix, spec: SplitSpec
) -> tuple[InteractionMatrix, HeldOutSet, HeldOutSet]:
    """Partition users into train/validation/test and split held-out items.

    A ``heldout_user_fraction`` share of users goes to each of validation
    and test; the rest train. Each held-out user's items are divided
    ``foldin_fraction : rest`` uniformly at random under the spec seed.
    Items that end up with no training interactions are dropped globally
    (the remaining items are re-indexed densely), and held-out users whose
    fold-in or target part becomes empty are excluded with a warning.
    """
    n_users = X.n_users
    row_sizes = np.diff(X.matrix.indptr)
    if np.any(row_sizes < 2):
        bad = int(np.argmax(row_sizes < 2))
        raise SplitError(
            f"user {X.user_ids[bad]!r} has fewer than 2 interactions; "
            "the split needs at least one fold-in and one target item per user"
        )
    n_heldout = int(n_users * spec.heldout_user_fraction + 1e-9)
    if n_heldout < 1:
        raise SplitError(
            f"heldout_user_fraction={spec.heldout_user_fraction} yields zero "
            f"held-out users for {n_users} users"
        )
    if n_users - 2 * n_heldout < 1:
        raise SplitError("no users left for training after holding out validation and test")

    rng = np.random.default_rng(spec.rng_seed)
    perm = rng.permutation(n_users)
    val_rows = np.sort(perm[:n_heldout])
    test_rows = np.sort(perm[n_heldout:2 * n_heldout])
    train_rows = np.sort(perm[2 * n_heldout:])

    def divide(rows):
        foldins, targets = [], []
        for u in rows:
            items = X.row_items(u)
            k = int(len(items) * spec.foldin_fraction + 1e-9)
            shuffled = rng.permutation(items)
            foldins.append(np.sort(shuffled[:k]))
            targets.append(np.sort(shuffled[k:]))
        return foldins, targets

    val_fold, val_targ = divide(val_rows)
    test_fold, test_targ = divide(test_rows)

    # Items must keep at least one training interaction; dropping items can
    # in turn empty a training row, so iterate to a fixed point.
    train_sub = X.matrix[train_rows]
    keep_rows = np.ones(train_sub.shape[0], dtype=bool)
    while True:
        col_counts = np.asarray(train_sub[keep_rows].sum(axis=0)).ravel()
        keep_items = col_counts > 0
        new_keep_rows = np.asarray(train_sub[:, keep_items].sum(axis=1)).ravel() > 0
        if np.array_equal(new_keep_rows, keep_rows):
            break
        keep_rows = new_keep_rows
    kept_train_rows = train_rows[keep_rows]
    n_dropped_items = X.n_items - int(keep_items.sum())
    n_dropped_train_users = len(train_rows) - len(kept_train_rows)
    if len(kept_train_rows) == 0:
        raise SplitError("all training users lost their interactions")
    if n_dropped_items or n_dropped_train_users:
        warnings.warn(
            f"split dropped {n_dropped_items} items without training interactions "
            f"and {n_dropped_train_users} training users left empty by that",
            stacklevel=2,
        )

    old_to_new = -np.ones(X.n_items, dtype=np.int64)
    old_to_new[keep_items] = np.arange(int(keep_items.sum()))
    new_item_ids = [X.item_ids[j] for j in np.flatnonzero(keep_items)]

    train_matrix = X.matrix[kept_train_rows][:, keep_items].tocsr()
    train = InteractionMatrix(
        train_matrix,
        [X.user_ids[u] for u in kept_train_rows],
        new_item_ids,
    )

    def build_heldout(rows, foldins, targets, name):
        kept_users, kept_fold, kept_targ = [], [], []
        n_excluded = 0
        for u, f, t in zip(rows, foldins, targets):
            f = old_to_new[f[old_to_new[f] >= 0]]
            t = old_to_new[t[old_to_new[t] >= 0]]
            if len(f) == 0 or len(t) == 0:
                n_excluded += 1
                continue
            kept_users.append(X.user_ids[u])
            kept_fold.append(np.sort(f))
            kept_targ.append(np.sort(t))
        if n_excluded:
            warnings.warn(
                f"{name} split excluded {n_excluded} users with empty fold-in or targets",
                stacklevel=3,
            )
        if not kept_users:
            raise SplitError(f"all {name} users were excluded from the split")
        n_items = len(new_item_ids)

        def matrix_of(rows_items):
            ui = np.concatenate([np.full(len(r), i) for i, r in enumerate(rows_items)])
            ii = np.concatenate(rows_items)
            return InteractionMatrix.from_pairs(
                ui, ii, len(rows_items), n_items, kept_users, new_item_ids
            )

        return HeldOutSet(matrix_of(kept_fold), matrix_of(kept_targ), n_excluded)

    validation = build_heldout(val_rows, val_fold, val_targ, "validation")
    test = build_heldout(test_rows, test_fold, test_targ, "test")
    return train, validation, test


# ---------------------------------------------------------------------------
# Split persistence: sparse-triplet text files plus vocabulary sidecars.
# ---------------------------------------------------------------------------

def write_triplets(m: InteractionMatrix, path: str | Path) -> None:
    """Write a matrix as 'n_users n_items nnz' header plus index pairs.

    Pairs come in row-major order (user, then item ascending).
    """
    rows = np.repeat(np.arange(m.n_users), np.diff(m.matrix.indptr))
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(f"{m.n_users} {m.n_items} {m.nnz}\n")
        fh.write("".join(map("{} {}\n".format, rows.tolist(), m.matrix.indices.tolist())))


def read_triplets(path: str | Path, user_ids=None, item_ids=None) -> InteractionMatrix:
    """Read a sparse-triplet text file back into an InteractionMatrix.

    Raises ParseError naming the file, and the line where there is one,
    on a bad header, a pair count that differs from the header, a line
    that is not two integers, an index outside the matrix, or a pair
    given twice.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty triplet file")
    try:
        n_users, n_items, nnz = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"{path}: bad header line {lines[0]!r}") from exc
    if min(n_users, n_items, nnz) < 0:
        raise ParseError(f"{path}: bad header line {lines[0]!r}")
    if len(lines) - 1 != nnz:
        raise ParseError(f"{path}: header promises {nnz} pairs, found {len(lines) - 1}")
    pairs = np.empty((0, 2), dtype=np.int64)
    if nnz:
        try:
            pairs = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pairs = None
    if pairs is None or pairs.shape != (nnz, 2):
        raise _bad_pair(path, lines)
    rows, cols = pairs[:, 0], pairs[:, 1]
    outside = (rows < 0) | (rows >= n_users) | (cols < 0) | (cols >= n_items)
    if outside.any():
        k = int(np.argmax(outside))
        raise ParseError(f"{path}: line {k + 2}: pair {lines[k + 1]!r} is outside "
                         f"the {n_users} x {n_items} matrix")
    keys = rows * n_items + cols
    order = np.argsort(keys, kind="stable")
    repeated = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if len(repeated):
        k = int(repeated.min())
        raise ParseError(f"{path}: line {k + 2}: pair {lines[k + 1]!r} is given twice")
    return InteractionMatrix.from_pairs(rows, cols, n_users, n_items, user_ids, item_ids)


def _bad_pair(path: Path, lines: list[str]) -> ParseError:
    """The error for the first body line that is not two integers."""
    for k, line in enumerate(lines[1:], start=2):
        try:
            _, _ = map(int, line.split())
        except ValueError:
            return ParseError(f"{path}: line {k}: bad pair {line!r}")
    return ParseError(f"{path}: pairs are not two int64 columns")


def _write_lines(path: Path, lines) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write("".join(f"{x}\n" for x in lines))


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def save_split(outdir: str | Path, train: InteractionMatrix,
               validation: HeldOutSet, test: HeldOutSet) -> None:
    """Persist a split as triplet files plus item/user vocabulary sidecars."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_triplets(train, outdir / "train.txt")
    write_triplets(validation.foldin, outdir / "validation_foldin.txt")
    write_triplets(validation.targets, outdir / "validation_targets.txt")
    write_triplets(test.foldin, outdir / "test_foldin.txt")
    write_triplets(test.targets, outdir / "test_targets.txt")
    _write_lines(outdir / "items.txt", train.item_ids)
    _write_lines(outdir / "train_users.txt", train.user_ids)
    _write_lines(outdir / "validation_users.txt", validation.foldin.user_ids)
    _write_lines(outdir / "test_users.txt", test.foldin.user_ids)


def load_split(outdir: str | Path) -> tuple[InteractionMatrix, HeldOutSet, HeldOutSet]:
    """Load a split previously written by save_split."""
    outdir = Path(outdir)
    item_ids = _read_lines(outdir / "items.txt")
    train = read_triplets(outdir / "train.txt",
                          _read_lines(outdir / "train_users.txt"), item_ids)

    def heldout(name):
        users = _read_lines(outdir / f"{name}_users.txt")
        fold = read_triplets(outdir / f"{name}_foldin.txt", users, item_ids)
        targ = read_triplets(outdir / f"{name}_targets.txt", users, item_ids)
        return HeldOutSet(fold, targ)

    return train, heldout("validation"), heldout("test")
