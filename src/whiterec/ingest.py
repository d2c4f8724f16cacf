"""Load raw interaction logs, filter them, and build held-out user splits.

The pipeline implemented here is the usual implicit-feedback protocol:
optional rating thresholding, binarization and deduplication, iterative
minimum-count filtering of users and items, and a strong-generalization
split in which whole users are held out and each held-out user's items are
divided into a fold-in part (given to the model) and a target part (what
the model is scored against).

A raw log is parsed into an :class:`InteractionLog`: integer user and item
codes plus ratings, one array element per event; given a rating
threshold, only the events that count as positive are kept, dropped
before their ids are encoded. A plain log (printable ASCII, no quotes,
one column count, no empty field) is split in blocks of bytes, in
newline-aligned byte ranges over forked workers; any other log, and any
log with an error, is read by a ``csv.reader`` row loop, the only source
of parse errors. Filtering works on those arrays only; id strings are
looked at again just to sort the survivors.

The split draws the validation and test users from one seeded
permutation, then each held-out user's fold-in items, user by user, into
one boolean mask over the matrix's entries; train, fold-in and targets
are row and column slices of the matrix under that mask. Items without
training interactions are dropped from all three, and a held-out user
left with no fold-in or no target item is excluded with a warning.

Split artifacts are persisted in a sparse-triplet text format: a one-line
header ``n_users n_items nnz`` followed by one ``user_index item_index``
pair per line. A held-out set is stored as two such files (fold-in and
targets) sharing the same local user order, plus sidecar vocabulary files
so models and splits can be checked for compatibility later.
"""

from __future__ import annotations

import codecs
import csv
import functools
import itertools
import math
import os
import stat
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import workers
from .artifact import atomic_open, reject_repeated_ids
from .errors import EmptyDatasetError, ParseError, SplitError

_HEADER_NAMES = {
    "user", "item", "rating", "timestamp", "time", "ts",
    "user_id", "item_id", "userid", "itemid", "uid", "iid",
}

# Bytes of a log that load_interactions tokenizes at once; each block is
# cut after its last newline. A block's field lists are the working set,
# so blocks stay small: on a 220k-row log the peak RSS of preprocess was
# 70 MiB with 64 KiB blocks and 95 MiB with 4 MiB blocks.
PARSE_BLOCK_BYTES = 1 << 16

# Bytes of a plain log that each worker of load_interactions must have:
# a worker with fewer costs more to fork and collect than it saves.
# load_interactions with a threshold on leading parts of a benchmark log,
# one worker against two on a 2-core VM (in-process medians of 15, two
# runs each): 256 KiB 10 against 18 ms, 512 KiB 19 against 26-29 ms,
# 1 MiB 38-41 against 31-33 ms, 2 MiB 77-81 against 52-57 ms.
PARSE_MIN_BYTES = 1 << 19

# Bytes a plain log may hold besides the delimiter and "\n": printable
# ASCII other than the quote character, which the csv module reads as
# itself and str.strip leaves alone.
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[0x21:0x80] = True
_PLAIN_BYTES[ord('"')] = False
_NL, _0, _9 = ord("\n"), ord("0"), ord("9")


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
    def _from_strings(cls, users: list[str], items: list[str],
                      ratings: list[float] | np.ndarray) -> "InteractionLog":
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        # A NaN threshold would keep every rating: ~(r < nan) is all True.
        if self.rating_threshold is not None and not math.isfinite(self.rating_threshold):
            raise ValueError(
                f"rating_threshold must be finite or none, got {self.rating_threshold}")

    def n_heldout_users(self, n_users: int) -> int:
        """Users drawn for each of validation and test out of ``n_users``."""
        return int(n_users * self.heldout_user_fraction + 1e-9)


class InteractionMatrix:
    """Sparse binary user-item matrix with id vocabularies.

    Rows are users, columns are items; stored entries are implicitly 1.
    The matrix is kept as canonical CSR arrays: row ``u``'s item indices
    are ``indices[indptr[u]:indptr[u + 1]]``, sorted and unique, int64.

    ``csr`` is the arrays ``(indptr, indices, shape)``. They are copied,
    and a row whose columns are not strictly ascending is rejected. A
    matrix is not modified after it is built, so its transpose ``T`` is
    made once and kept, as dense arrays spell it.
    """

    def __init__(self, csr, user_ids: list[str], item_ids: list[str]):
        indptr, indices, shape = csr
        shape = tuple(map(int, shape))
        if shape != (len(user_ids), len(item_ids)):
            raise ValueError(
                f"matrix shape {shape} does not match vocab sizes "
                f"({len(user_ids)}, {len(item_ids)})"
            )
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        n_users, n_items = shape
        if (indptr.shape != (n_users + 1,) or indptr[0] != 0
                or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0)):
            raise ValueError("CSR row pointers do not match the matrix")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_items):
            raise ValueError(f"column index outside the {n_users} x {n_items} matrix")
        self.indptr = indptr.astype(np.int64)
        self.indices = indices.astype(np.int64)
        self.shape = shape
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        keys = self._keys()
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if len(bad):
            u, j = divmod(int(keys[bad[0] + 1]), n_items)
            if keys[bad[0] + 1] == keys[bad[0]]:
                raise ValueError(f"row {u} holds column {j} more than once")
            raise ValueError(f"row {u} has its columns out of order at column {j}")

    @property
    def n_users(self) -> int:
        return self.shape[0]

    @property
    def n_items(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @functools.cached_property
    def T(self) -> "InteractionMatrix":
        """The items x users matrix, made on first use and kept; its own T is self."""
        # A stable sort by item keeps each item's users ascending: canonical.
        order = np.argsort(self.indices, kind="stable")
        t = InteractionMatrix(
            _csr(self.indices[order], self._entry_rows()[order], self.n_items, self.n_users),
            self.item_ids, self.user_ids)
        t.T = self
        return t

    def _entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(self.n_users), np.diff(self.indptr))

    def _keys(self) -> np.ndarray:
        """``user * n_items + item`` of every entry; ascending when canonical."""
        return self._entry_rows() * self.n_items + self.indices

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._entry_rows(), self.indices] = 1.0
        return out

    @classmethod
    def from_pairs(cls, user_idx, item_idx, n_users: int, n_items: int,
                   user_ids=None, item_ids=None) -> "InteractionMatrix":
        """Build from parallel index arrays; duplicate pairs collapse to 1."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        if user_idx.shape != item_idx.shape:
            raise ValueError("user and item index arrays differ in length")
        if len(user_idx) and (min(user_idx.min(), item_idx.min()) < 0
                              or user_idx.max() >= n_users or item_idx.max() >= n_items):
            raise ValueError(f"pair index outside the {n_users} x {n_items} matrix")
        return cls._from_keys(_unique(user_idx * n_items + item_idx), n_users, n_items,
                              user_ids, item_ids)

    @classmethod
    def _from_keys(cls, keys, n_users: int, n_items: int,
                   user_ids=None, item_ids=None) -> "InteractionMatrix":
        """Build from ascending, distinct ``user * n_items + item`` keys."""
        if user_ids is None:
            user_ids = [f"u{i}" for i in range(n_users)]
        if item_ids is None:
            item_ids = [f"i{j}" for j in range(n_items)]
        rows, cols = np.divmod(keys, max(n_items, 1))
        return cls(_csr(rows, cols, n_users, n_items), user_ids, item_ids)

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
            and self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, as np.unique gives them.

    np.unique first tries a hash table, which on numpy 2.4 takes about
    90 ms for 220k int64 keys; sorting and comparing neighbours takes
    about 2.5 ms.
    """
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int):
    """CSR arrays ``(indptr, indices, shape)`` of entries in row-major order."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return indptr, cols, (n_rows, n_cols)


@dataclass
class HeldOutSet:
    """Held-out users: fold-in interactions plus disjoint target item sets.

    ``foldin`` and ``targets`` share the same local user order and the same
    (global) item vocabulary.
    """

    foldin: InteractionMatrix
    targets: InteractionMatrix

    def __post_init__(self):
        if self.foldin.shape != self.targets.shape:
            raise ValueError("fold-in and target matrices must have identical shape")
        if self.foldin.item_ids != self.targets.item_ids:
            raise ValueError("fold-in and target item vocabularies differ")
        if np.isin(self.foldin._keys(), self.targets._keys(), assume_unique=True).any():
            raise ValueError("fold-in and target sets overlap for some user")

    @property
    def n_users(self) -> int:
        return self.foldin.n_users

    @property
    def n_items(self) -> int:
        return self.foldin.n_items


def load_interactions(path: str | Path, fmt: str = "csv",
                      rating_threshold: float | None = None) -> InteractionLog:
    """Parse a CSV/TSV interaction log into an InteractionLog.

    Expected columns: user, item[, rating[, timestamp]]. A header line is
    optional and detected by name on the first non-blank line; a leading
    UTF-8 byte order mark is dropped. Fields are stripped; an empty rating
    means no rating. Raises ParseError with the physical line number of
    the file's first error: a wrong column count, an empty id, a rating
    that is not a finite float, a timestamp that is not an integer, a
    field longer than ``csv.field_size_limit()`` or bytes that are not
    UTF-8, and EmptyDatasetError on empty input.

    With a ``rating_threshold``, each event rated below it is dropped once
    its row is checked and before its ids are encoded, so the log holds
    only positive events (see :meth:`InteractionLog.positives`), and a log
    left with none is an EmptyDatasetError. The result is the log read
    without a threshold, filtered by ``positives`` and encoded again.

    A plain log is tokenized in blocks, on every usable core (see
    :func:`_read_plain`): printable ASCII without quotes or whitespace,
    one delimiter-separated column count on every line, no empty field,
    ratings finite and timestamps digits. Any other file, and any file
    with an error, is read by the ``csv.reader`` loop of
    :func:`_read_rows`, which is the only source of error messages; both
    readers give the same InteractionLog.
    """
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    delimiter = "," if fmt == "csv" else "\t"
    path = Path(path)
    log = _read_plain(path, delimiter, rating_threshold)
    return log if log is not None else _read_rows(path, delimiter, rating_threshold)


def _read_plain(path: Path, delimiter: str,
                threshold: float | None = None) -> InteractionLog | None:
    """The log of a plain regular file, or None if any part of it is not
    plain, no event is kept, or the file is not a regular file.

    The first line is read as the header rule says, and the column count
    k is that of the first data line; a blank one gives k = 1, which is
    left to the row reader. The data lines are cut into newline-aligned
    byte ranges, one per worker (usable cores, at most one per
    PARSE_MIN_BYTES). This process parses the first range, and a forked
    child each other one (:func:`_parse_range`); each range's ids are
    encoded on their own, and their codes are mapped onto the ids of the
    ranges before it, so the log is the one a single pass would give.
    """
    # A stream (a pipe, or a FIFO) can be neither cut into byte ranges nor
    # read twice, so the row reader takes it, unopened, from its first byte.
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    d = delimiter.encode()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        fh.seek(start)
        first = fh.readline()
        header = first.removesuffix(b"\n")
        if header.isascii() and _looks_like_header(header.decode().split(delimiter)):
            start += len(first)
            first = fh.readline()
        k = first.count(d) + 1
        if not first or not 2 <= k <= 4:
            return None
        n_workers = workers.worker_count(size - start, PARSE_MIN_BYTES)
        bounds = [start]
        for cut in range(1, n_workers):
            # Each range ends at the first line start at or after its cut.
            fh.seek(start + (size - start) * cut // n_workers - 1)
            bounds.append(fh.tell() + len(fh.readline()))
        bounds.append(size)
    ranges = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    jobs = [(f"parsing worker for bytes {a}-{b - 1} of {path}",
             functools.partial(_parse_range, path, a, b, k, delimiter, threshold))
            for a, b in ranges[1:]]
    with workers.forked(jobs) as results:
        parts = [_parse_range(path, *ranges[0], k, delimiter, threshold)]
        while parts[-1] is not None and len(parts) < len(ranges):
            parts.append(next(results))
    # An empty log is left to the row reader too, for its error message.
    if parts[-1] is None or not sum(map(len, parts)):
        return None
    return _join(parts)


def _parse_range(path: Path, start: int, stop: int, k: int, delimiter: str,
                 threshold: float | None) -> InteractionLog | None:
    """The positive events of bytes ``start:stop`` of a log of k-field
    lines, ids encoded in order of first appearance in the range; None if
    the range is not plain.

    A block is plain when one numpy pass over its bytes finds only
    printable ASCII other than ``"``, the delimiter and ``\\n``, every line
    made of k fields, no empty field and none longer than
    ``csv.field_size_limit()``. Then ``csv.reader`` would split it at the
    same places and stripping would change no field. The separators give
    each byte's column: the ratings are split out of the block for
    ``float``, the timestamps must be ASCII digits, and only the kept rows'
    user and item bytes become strings. Every row is checked before the
    threshold drops any.
    """
    d = ord(delimiter)
    allowed = _PLAIN_BYTES.copy()
    allowed[[_NL, d]] = True
    limit = csv.field_size_limit()
    # int() refuses longer digit strings (no such limit before Python 3.10.7).
    digits = getattr(sys, "get_int_max_str_digits", int)()
    users: list[str] = []
    items: list[str] = []
    ratings: list[np.ndarray] = []
    with open(path, "rb") as fh:
        fh.seek(start)
        for block in _blocks(fh, stop - start):
            a = np.frombuffer(block, np.uint8)
            if not allowed[a].all():
                return None
            pos = np.flatnonzero((a == _NL) | (a == d))
            if len(pos) % k:
                return None
            seps = a[pos].reshape(-1, k)
            width = np.diff(pos, prepend=-1).reshape(-1, k) - 1
            if ((seps[:, -1] != _NL).any() or (seps[:, :-1] != d).any()
                    or width.min() < 1 or width.max() > limit
                    or (k == 4 and digits and width[:, 3].max() > digits)):
                return None
            rows = len(seps)
            # The column of every byte; a separator counts with the field it ends.
            col = np.repeat(np.tile(np.arange(k, dtype=np.int8), rows), width.ravel() + 1)
            keep = np.ones(rows, dtype=bool)
            if k == 2:
                values = np.full(rows, math.nan)
            else:
                try:
                    values = np.fromiter(map(float, _text(a[col == 2], delimiter)),
                                         np.float64, rows)
                except ValueError:
                    return None
                stamps = a[col == 3]
                if not (np.isfinite(values).all()
                        and ((stamps == _NL) | ((stamps >= _0) & (stamps <= _9))).all()):
                    return None
                if threshold is not None:
                    keep = ~(values < threshold)
            # Only the kept rows' ids are made into strings.
            ids = a[(col < 2) & np.repeat(keep, width.sum(axis=1) + k)]
            fields = _text(ids, delimiter)
            users += fields[0:-1:2]
            items += fields[1::2]
            ratings.append(values[keep])
    return InteractionLog._from_strings(users, items, np.concatenate(ratings))


def _text(a: np.ndarray, delimiter: str) -> list[str]:
    """The fields of plain bytes ``a``, each ended by the delimiter or a
    newline, and then an empty string."""
    return a.tobytes().decode("ascii").replace("\n", delimiter).split(delimiter)


def _join(parts: list[InteractionLog]) -> InteractionLog:
    """The logs of consecutive ranges as one log."""
    users, user_ids = _join_codes([(part.users, part.user_ids) for part in parts])
    items, item_ids = _join_codes([(part.items, part.item_ids) for part in parts])
    return InteractionLog(users, items, np.concatenate([part.ratings for part in parts]),
                          user_ids, item_ids)


def _join_codes(columns: list[tuple[np.ndarray, list[str]]]) -> tuple[np.ndarray, list[str]]:
    """One column of codes and its vocabulary from ``(codes, ids)`` per range:
    each range's new ids are appended in range order, and its codes mapped
    through one int array, as if the ranges had been encoded as one."""
    index: dict[str, int] = {}
    joined = [np.fromiter((index.setdefault(x, len(index)) for x in ids), np.int64,
                          len(ids))[codes] for codes, ids in columns]
    return np.concatenate(joined), list(index)


def _blocks(fh, size: int):
    """The next ``size`` bytes of ``fh`` in blocks of about PARSE_BLOCK_BYTES,
    each cut after its last newline; a last line without one is given one."""
    rest = b""
    while chunk := fh.read(min(PARSE_BLOCK_BYTES, size)):
        size -= len(chunk)
        rest += chunk
        cut = rest.rfind(b"\n") + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest + b"\n"


def _read_rows(path: Path, delimiter: str, threshold: float | None = None,
               escaped: bool = False) -> InteractionLog:
    """load_interactions by one ``csv.reader`` row at a time: the reader of
    every log that is not plain, and the source of every parse error.

    With ``escaped``, bytes that are not UTF-8 are read as escapes, and the
    first row holding one raises the not-UTF-8 ParseError.
    """
    users: list[str] = []
    items: list[str] = []
    ratings: list[float] = []
    nan, isfinite, strip = math.nan, math.isfinite, str.strip
    first = True
    below = 0  # events rated below the threshold
    # utf-8-sig drops a leading byte order mark, so it cannot stick to the
    # first field. The file is streamed: held whole as text it would cost
    # about four bytes a character.
    try:
        with open(path, newline="", encoding="utf-8-sig",
                  errors="surrogateescape" if escaped else "strict") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            for row in _utf8_rows(reader, path) if escaped else reader:
                fields = list(map(strip, row))
                if not fields or fields == [""]:
                    continue
                if first:
                    first = False
                    if _looks_like_header(fields):
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
                if threshold is not None and value < threshold:  # NaN is kept
                    below += 1
                    continue
                users.append(user)
                items.append(item)
                ratings.append(value)
    except UnicodeDecodeError:
        # The text layer decodes ahead of the reader, so a row before the
        # bad byte may hold the log's first error: check the rows again
        # with bad bytes escaped, up to the first row that holds one.
        _read_rows(path, delimiter, escaped=True)
        raise
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not users:
        raise EmptyDatasetError(f"{path}: all interactions removed by the rating threshold"
                                if below else f"{path}: no interaction records found")
    return InteractionLog._from_strings(users, items, ratings)


def _utf8_rows(reader, path: Path):
    """The rows of a reader over surrogate-escaped text, up to the first
    that holds an escaped byte, which is the file's first bad byte."""
    for row in reader:
        try:
            "".join(row).encode("utf-8")
        except UnicodeEncodeError:
            # raises a ParseError naming the line as reader.line_num counts it
            _decode(path.read_bytes(), path, csv_lines=True)
        yield row


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
    users, items = np.divmod(_unique(users * n_items + items), n_items)
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
    present = _unique(codes)
    ids = [vocab[c] for c in present.tolist()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    dense = np.empty(int(present[-1]) + 1, dtype=np.int64)
    dense[present[order]] = np.arange(len(order))
    return dense[codes], [ids[k] for k in order]


def split_strong_generalization(
    X: InteractionMatrix, spec: SplitSpec
) -> tuple[InteractionMatrix, HeldOutSet, HeldOutSet]:
    """Partition users into train/validation/test and split held-out items.

    ``spec.n_heldout_users(n_users)`` users go to each of validation and
    test; the rest train. Each held-out user's items are divided
    ``foldin_fraction : rest`` uniformly at random under the spec seed.
    Items without training interactions are dropped everywhere (the rest
    keep their order), and held-out users whose fold-in or target part is
    left empty by that are excluded with a warning. All three parts are
    row and column slices of ``X`` under one fold-in mask over its entries.
    """
    n_users = X.n_users
    row_sizes = np.diff(X.indptr)
    if np.any(row_sizes < 2):
        bad = int(np.argmax(row_sizes < 2))
        raise SplitError(
            f"user {X.user_ids[bad]!r} has fewer than 2 interactions; "
            "the split needs at least one fold-in and one target item per user"
        )
    n_heldout = spec.n_heldout_users(n_users)
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

    # One draw per held-out user, validation then test, picks the entries
    # of X that go to fold-in; the user's other entries are targets.
    foldin = np.zeros(X.nnz, dtype=bool)
    for u in np.concatenate([val_rows, test_rows]).tolist():
        size = int(row_sizes[u])
        k = int(size * spec.foldin_fraction + 1e-9)
        foldin[X.indptr[u] + rng.permutation(size)[:k]] = True

    # An item is dropped only when no training row has it, so every
    # training row keeps all its items.
    entry_rows = X._entry_rows()
    in_train = np.zeros(n_users, dtype=bool)
    in_train[train_rows] = True
    train_entries = in_train[entry_rows]
    keep_items = np.bincount(X.indices[train_entries], minlength=X.n_items) > 0
    n_dropped = X.n_items - int(keep_items.sum())
    if n_dropped:
        warnings.warn(f"split dropped {n_dropped} items without training interactions",
                      stacklevel=2)
    train = _submatrix(X, entry_rows, train_rows, train_entries, keep_items)

    kept_item = keep_items[X.indices]
    fold, targ = foldin & kept_item, ~foldin & kept_item
    fold_sizes, targ_sizes = (np.bincount(entry_rows[e], minlength=n_users) for e in (fold, targ))
    heldout = []
    for rows, name in ((val_rows, "validation"), (test_rows, "test")):
        kept = rows[(fold_sizes[rows] > 0) & (targ_sizes[rows] > 0)]
        if len(kept) < len(rows):
            warnings.warn(f"{name} split excluded {len(rows) - len(kept)} users "
                          "with empty fold-in or targets", stacklevel=2)
        if not len(kept):
            raise SplitError(f"all {name} users were excluded from the split")
        heldout.append(HeldOutSet(_submatrix(X, entry_rows, kept, fold, keep_items),
                                  _submatrix(X, entry_rows, kept, targ, keep_items)))
    validation, test = heldout
    return train, validation, test


def _submatrix(X: InteractionMatrix, entry_rows: np.ndarray, rows: np.ndarray,
               entries: np.ndarray, items: np.ndarray) -> InteractionMatrix:
    """The entries of ``X`` where ``entries`` is True, in ascending ``rows``
    and the columns where ``items`` is True; no kept entry may be in a
    dropped column. ``entry_rows`` is ``X._entry_rows()``; ``X`` is never
    written.
    """
    new_row = np.full(X.n_users, -1, dtype=np.int64)
    new_row[rows] = np.arange(len(rows))
    entry_rows = new_row[entry_rows]
    take = entries & (entry_rows >= 0)
    new_col = np.cumsum(items) - 1
    item_ids = [X.item_ids[j] for j in np.flatnonzero(items).tolist()]
    return InteractionMatrix(
        _csr(entry_rows[take], new_col[X.indices[take]], len(rows), len(item_ids)),
        [X.user_ids[u] for u in rows.tolist()], item_ids)


# ---------------------------------------------------------------------------
# Split persistence: sparse-triplet text files plus vocabulary sidecars.
# ---------------------------------------------------------------------------

def write_triplets(m: InteractionMatrix, path: str | Path) -> None:
    """Write a matrix as 'n_users n_items nnz' header plus index pairs.

    Pairs come in row-major order (user, then item ascending).
    """
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(f"{m.n_users} {m.n_items} {m.nnz}\n")
        fh.write("".join(map("{} {}\n".format, m._entry_rows().tolist(), m.indices.tolist())))


def _parse_triplets(path: Path) -> tuple[np.ndarray, int, int]:
    """Ascending ``user * n_items + item`` keys of a triplet file, and its shape.

    Raises ParseError naming the file, and the line where there is one,
    on a bad header, a pair count that differs from the header, a line
    that is not two integers, an index outside the matrix, or a pair
    given twice.
    """
    lines = read_lines(path)
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
    keys = keys[order]
    repeated = order[1:][keys[1:] == keys[:-1]]
    if len(repeated):
        k = int(repeated.min())
        raise ParseError(f"{path}: line {k + 2}: pair {lines[k + 1]!r} is given twice")
    return keys, n_users, n_items


def _bad_pair(path: Path, lines: list[str]) -> ParseError:
    """The error for the first body line np.loadtxt, which rejected the body, rejects alone."""
    for k, line in enumerate(lines[1:], start=2):
        try:
            # A blank line reads as no data, with a warning, so it is not parsed.
            if line.split() and np.loadtxt([line], dtype=np.int64, comments=None).shape == (2,):
                continue
        except ValueError:
            pass
        return ParseError(f"{path}: line {k}: bad pair {line!r}")


def _write_lines(path: Path, lines) -> None:
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        fh.write("".join(f"{x}\n" for x in lines))


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; only "\\n" ends a line.

    Bytes that are not UTF-8 are a ParseError naming the file and line.
    Form feeds, U+2028 and the other characters str.splitlines breaks at
    stay inside their line, and "\\r" is not translated. Every text file
    whiterec reads back line by line (split files, vocabularies, config
    files) goes through here, so line numbers are counted one way.
    """
    text = _decode(Path(path).read_bytes(), path)
    return text.removesuffix("\n").split("\n") if text else []


def _decode(data: bytes, path, csv_lines: bool = False) -> str:
    """``data`` as UTF-8 text; a ParseError names the line of the first bad byte.

    Lines end at "\\n" only, as in read_lines; with ``csv_lines`` a lone
    "\\r" and "\\r\\n" end one too, as ``csv.reader.line_num`` counts them.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + 1
        if csv_lines:
            line += head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc


def save_split(outdir: str | Path, train: InteractionMatrix,
               validation: HeldOutSet, test: HeldOutSet) -> None:
    """Persist a split as triplet files plus item/user vocabulary sidecars.

    The sidecars hold one id per line, so an id with a line break in it
    is a ParseError, raised before anything is written.
    """
    vocabularies = {
        "items.txt": train.item_ids,
        "train_users.txt": train.user_ids,
        "validation_users.txt": validation.foldin.user_ids,
        "test_users.txt": test.foldin.user_ids,
    }
    for ids in vocabularies.values():
        for x in ids:
            if "\n" in x or "\r" in x:
                raise ParseError(f"id {x!r} contains a line break; split vocabulary "
                                 "files hold one id per line")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_triplets(train, outdir / "train.txt")
    write_triplets(validation.foldin, outdir / "validation_foldin.txt")
    write_triplets(validation.targets, outdir / "validation_targets.txt")
    write_triplets(test.foldin, outdir / "test_foldin.txt")
    write_triplets(test.targets, outdir / "test_targets.txt")
    for name, ids in vocabularies.items():
        _write_lines(outdir / name, ids)


def load_split(outdir: str | Path) -> tuple[InteractionMatrix, HeldOutSet, HeldOutSet]:
    """Load a split previously written by save_split.

    A vocabulary sidecar with a repeated id, or with a different number of
    ids than its triplet files have rows or columns, is a ParseError
    naming the sidecar.
    """
    outdir = Path(outdir)
    items_path = outdir / "items.txt"
    item_ids = _read_vocabulary(items_path)

    def matrix(name: str, users_path: Path, user_ids: list[str]) -> InteractionMatrix:
        path = outdir / f"{name}.txt"
        keys, n_users, n_items = _parse_triplets(path)
        for vocab_path, ids, size, what in ((users_path, user_ids, n_users, "users"),
                                            (items_path, item_ids, n_items, "items")):
            if len(ids) != size:
                raise ParseError(f"{vocab_path}: {len(ids)} ids, but {path} has "
                                 f"{size} {what}")
        return InteractionMatrix._from_keys(keys, n_users, n_items, user_ids, item_ids)

    def heldout(name: str) -> HeldOutSet:
        users_path = outdir / f"{name}_users.txt"
        users = _read_vocabulary(users_path)
        return HeldOutSet(matrix(f"{name}_foldin", users_path, users),
                          matrix(f"{name}_targets", users_path, users))

    train_users = outdir / "train_users.txt"
    train = matrix("train", train_users, _read_vocabulary(train_users))
    return train, heldout("validation"), heldout("test")


def _read_vocabulary(path: Path) -> list[str]:
    """The ids of a split sidecar; a repeated id is a ParseError naming its line."""
    ids = read_lines(path)
    reject_repeated_ids(ids, path, "line")
    return ids
