import csv
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from whiterec import ingest
from whiterec.errors import EmptyDatasetError, ParseError, SplitError
from whiterec.ingest import (
    HeldOutSet,
    InteractionMatrix,
    SplitSpec,
    load_interactions,
    load_split,
    preprocess,
    save_split,
    split_strong_generalization,
    write_triplets,
    _parse_triplets,
)

from conftest import RawInteraction, log_from_records, scipy_csr


def spec(**kwargs):
    defaults = dict(heldout_user_fraction=0.2, foldin_fraction=0.5, rng_seed=7,
                    min_user_interactions=1, min_item_interactions=1,
                    rating_threshold=None)
    defaults.update(kwargs)
    return SplitSpec(**defaults)


def row_items(m: InteractionMatrix, u: int) -> np.ndarray:
    """Sorted item indices of user row u."""
    return m.indices[m.indptr[u]:m.indptr[u + 1]]


def all_pairs(n_users, n_items):
    raw = []
    for u in range(n_users):
        for i in range(n_items):
            raw.append(RawInteraction(f"u{u}", f"i{i}"))
    return raw


def naive_preprocess(raw: list[RawInteraction], spec: SplitSpec) -> InteractionMatrix:
    """The reference filter on records, with sets: threshold, dedupe, then
    drop weak users, weak items and emptied users until nothing changes."""
    if not raw:
        raise EmptyDatasetError("no raw interactions given")
    pairs = set()
    for r in raw:
        if spec.rating_threshold is not None and r.rating is not None:
            if r.rating < spec.rating_threshold:
                continue
        pairs.add((r.user_id, r.item_id))
    if not pairs:
        raise EmptyDatasetError("all interactions removed by the rating threshold")
    user_items: dict[str, set[str]] = {}
    item_users: dict[str, set[str]] = {}
    for u, it in pairs:
        user_items.setdefault(u, set()).add(it)
        item_users.setdefault(it, set()).add(u)
    changed = True
    while changed:
        changed = False
        for u in [u for u, its in user_items.items() if len(its) < spec.min_user_interactions]:
            for it in user_items.pop(u):
                item_users[it].discard(u)
            changed = True
        for it in [it for it, us in item_users.items() if len(us) < spec.min_item_interactions]:
            for u in item_users.pop(it):
                user_items[u].discard(it)
            changed = True
        for u in [u for u, its in user_items.items() if not its]:
            del user_items[u]
            changed = True
    if not user_items:
        raise EmptyDatasetError("no users or items survive the minimum-count filters")
    user_ids, item_ids = sorted(user_items), sorted(item_users)
    uidx = {u: i for i, u in enumerate(user_ids)}
    iidx = {it: j for j, it in enumerate(item_ids)}
    rows = [uidx[u] for u, its in user_items.items() for _ in its]
    cols = [iidx[it] for its in user_items.values() for it in its]
    return InteractionMatrix.from_pairs(rows, cols, len(user_ids), len(item_ids),
                                        user_ids, item_ids)


def naive_split(X: InteractionMatrix, spec: SplitSpec):
    """The reference split, user by user: returns train, validation, test
    and the number of validation and test users excluded.

    Each held-out user's items are shuffled and cut, items are dropped
    until every item and every training row has an interaction, and each
    held-out user is rebuilt from their surviving items.
    """
    n_users = X.n_users
    row_sizes = np.diff(X.indptr)
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
            items = row_items(X, u)
            k = int(len(items) * spec.foldin_fraction + 1e-9)
            shuffled = rng.permutation(items)
            foldins.append(np.sort(shuffled[:k]))
            targets.append(np.sort(shuffled[k:]))
        return foldins, targets

    val_fold, val_targ = divide(val_rows)
    test_fold, test_targ = divide(test_rows)

    # Items must keep at least one training interaction; dropping items can
    # in turn empty a training row, so iterate to a fixed point.
    train_sub = scipy_csr(X)[train_rows]
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
    # The loop never empties a training row: each has 2+ items, all kept.
    assert n_dropped_train_users == 0
    if n_dropped_items:
        warnings.warn(
            f"split dropped {n_dropped_items} items without training interactions",
            stacklevel=2,
        )

    old_to_new = -np.ones(X.n_items, dtype=np.int64)
    old_to_new[keep_items] = np.arange(int(keep_items.sum()))
    new_item_ids = [X.item_ids[j] for j in np.flatnonzero(keep_items)]

    train_matrix = scipy_csr(X)[kept_train_rows][:, keep_items].tocsr()
    train = InteractionMatrix(
        (train_matrix.indptr, train_matrix.indices, train_matrix.shape),
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

        return HeldOutSet(matrix_of(kept_fold), matrix_of(kept_targ)), n_excluded

    validation, n_val_excluded = build_heldout(val_rows, val_fold, val_targ, "validation")
    test, n_test_excluded = build_heldout(test_rows, test_fold, test_targ, "test")
    return train, validation, test, (n_val_excluded, n_test_excluded)


# Ids whose string order differs from first appearance ("u10" < "u9").
_USERS = st.sampled_from(["u9", "u10", "u1", "u100", "U2", "a b"])
_ITEMS = st.sampled_from(["i9", "i10", "i2", "x", "i,1", 'two\n"lines"'])
_RATINGS = st.one_of(st.none(), st.sampled_from([1.0, 3.0, 3.5, 4.0, 5.0]))
_RECORDS = st.lists(st.builds(RawInteraction, _USERS, _ITEMS, _RATINGS), max_size=40)


def _log_columns(log):
    return (log.users.tolist(), log.items.tolist(), log.ratings.tolist(),
            log.user_ids, log.item_ids)


class TestLoadInteractions:
    @staticmethod
    def load(tmp_path, text, fmt="csv"):
        """load_interactions on a UTF-8 file holding text."""
        p = tmp_path / "data.csv"
        p.write_text(text, "utf-8")
        return load_interactions(p, fmt)

    def test_two_records_with_ratings(self, tmp_path):
        log = self.load(tmp_path, "u1,i1,5,100\nu1,i2,3,101\n")
        assert len(log) == 2
        assert (log.user_ids, log.item_ids) == (["u1"], ["i1", "i2"])
        assert log.users.tolist() == [0, 0] and log.items.tolist() == [0, 1]
        assert log.ratings.tolist() == [5.0, 3.0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            self.load(tmp_path, "")

    def test_malformed_rating(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            self.load(tmp_path, "u1,i1,abc\n")

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        # nan < 4 is False, so a non-finite rating would pass the threshold
        # and be kept as a positive interaction.
        with pytest.raises(ParseError, match="line 2.*not finite"):
            self.load(tmp_path, f"u1,i1,5\nu1,i2,{rating}\n")

    def test_physical_line_numbers(self, tmp_path):
        # The quoted id on lines 2-3 is one record; the bad rating is on line 4.
        with pytest.raises(ParseError, match="line 4"):
            self.load(tmp_path, 'u1,i1,5\n"multi\nline",i1,5\nu3,i1,abc\n')

    def test_bad_timestamp_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            self.load(tmp_path, "u1,i1,5,100\nu1,i2,3,soon\n")

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            self.load(tmp_path, "u1,i1,5,100,extra\n")

    def test_tsv(self, tmp_path):
        log = self.load(tmp_path, "u1\ti1\t4\n", "tsv")
        assert (log.user_ids, log.item_ids, log.ratings.tolist()) == (["u1"], ["i1"], [4.0])

    def test_header_skipped(self, tmp_path):
        assert len(self.load(tmp_path, "user,item,rating\nu1,i1,5\n")) == 1

    @pytest.mark.parametrize("prefix", ["\ufeff", "\n", "\n\n", " \n", "\ufeff\n"])
    @pytest.mark.parametrize("header", ["user,item", "user,item,rating,timestamp"])
    def test_header_on_first_non_blank_line_skipped(self, tmp_path, prefix, header):
        log = self.load(tmp_path, f"{prefix}{header}\nu1,i1,5,100\n")
        assert (log.user_ids, log.item_ids, log.ratings.tolist()) == (["u1"], ["i1"], [5.0])

    def test_byte_order_mark_dropped_without_header(self, tmp_path):
        assert self.load(tmp_path, "\ufeffu1,i1\nu2,i1\n").user_ids == ["u1", "u2"]

    def test_header_names_after_data_are_data(self, tmp_path):
        log = self.load(tmp_path, "u1,i1\nuser,item\n")
        assert (log.user_ids, log.item_ids) == (["u1", "user"], ["i1", "item"])

    @pytest.mark.parametrize("data, message", [
        # The text layer decodes ahead of csv.reader: an error on a line
        # before the bad byte is still the one reported.
        (b"u1,,5\nu\xe9,i,5\n", "line 1: empty user or item id"),
        (b"u1,i1,5\nu2\n" + b"u3,i3,5\n" * 2000 + b"u\xe9,i,5\n", "line 2: expected 2-4"),
        (b"u1,i1,5\nu\xe9,i,5\nu3,,5\n", "line 2: not UTF-8 text"),
        # The bad byte is in the record on lines 1-2, which has no other error.
        (b'"u1\n\xe9",i,5\nu2,,5\n', "line 2: not UTF-8 text"),
    ])
    def test_first_error_before_a_bad_byte(self, tmp_path, data, message):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"data.csv: {message}"):
            load_interactions(p)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            self.load(tmp_path, "\ufeff\nuser,item,rating\nu1,i1,abc\n")

    def test_two_columns_only(self, tmp_path):
        log = self.load(tmp_path, "u1,i1\nu2,i1\n")
        assert np.isnan(log.ratings).all()

    def test_records_in_file_order(self, tmp_path):
        log = self.load(tmp_path, "b,i2\na,i1\n")
        assert log.user_ids == ["b", "a"]
        assert log.users.tolist() == [0, 1]

    @settings(max_examples=100, deadline=None)
    @given(records=_RECORDS.filter(bool),
           timestamps=st.lists(st.one_of(st.none(), st.integers(0, 2**40)),
                               min_size=40, max_size=40))
    def test_columns_match_from_records(self, tmp_path_factory, records, timestamps):
        p = tmp_path_factory.mktemp("log") / "log.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for r, ts in zip(records, timestamps):
                rating = "" if r.rating is None else repr(r.rating)
                writer.writerow([r.user_id, r.item_id, rating] + ([] if ts is None else [ts]))
        expected = _log_columns(log_from_records(records))
        got = _log_columns(load_interactions(p))
        assert got[:2] == expected[:2] and got[3:] == expected[3:]
        np.testing.assert_array_equal(got[2], expected[2])


# Fields by column for logs the bulk tokenizer takes, and fields that send a
# log, or a block of it, to the csv.reader loop or to an error.
_PLAIN_COLUMNS = (
    st.sampled_from(["u1", "u10", "U2", "1", "a_b", "user", "x" * 8]),
    st.sampled_from(["i2", "i10", "x", "item", "-", "x" * 9]),
    st.sampled_from(["5", "4.5", "+5", "1_0", "-2", ".5", "1e3", "007"]),
    # int() refuses more than 4300 digits; the repeats keep such a field rare.
    st.sampled_from(["100", "007", "0", "123456789012"] * 8 + ["9" * 4301]),
)
# Every str.isspace() character, the other ASCII controls, and characters
# that str.strip, the csv module or UTF-8 treat specially.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
_OTHER_CHARS = [chr(c) for c in range(0x20) if not chr(c).isspace()] + ["\x7f", '"', "é",
                                                                      "\ufeff", "١"]
_ODD_CHARS = st.one_of(st.sampled_from(_WHITESPACE), st.sampled_from(_OTHER_CHARS))
_ODD_FIELDS = st.one_of(
    st.just(""),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "+5", "1_0", "-3", "0x1", "timestamp",
                     '"q,x"', '"q""x"', '"a\nb"', "x" * 40]),
    st.builds(str.__add__, st.sampled_from(["", "u1", "5"]), _ODD_CHARS),
    st.builds(str.__add__, _ODD_CHARS, st.sampled_from(["", "i2", "7"])),
)


@st.composite
def _log_texts(draw):
    """A log as bytes, and its format.

    It starts plain, one delimiter and 2-4 columns of plain fields, and up
    to three edits each change one thing: a field, a line end, a column
    count, the prefix, the format, or a byte that is not UTF-8.
    """
    delimiter = draw(st.sampled_from([",", "\t"]))
    fmt = "csv" if delimiter == "," else "tsv"
    k = draw(st.integers(2, 4))
    rows = [[draw(_PLAIN_COLUMNS[j]) for j in range(k)] for _ in range(draw(st.integers(0, 12)))]
    ends = ["\n"] * len(rows)
    header = draw(st.sampled_from([None, ["user", "item"], ["user", "item", "rating", "ts"],
                                   ["User", "item_id", "x"]]))
    prefix = draw(st.sampled_from(["", "\ufeff"]))
    bad_byte = None
    for edit in draw(st.lists(st.sampled_from(["field", "end", "width", "prefix", "format",
                                               "byte"]), max_size=3)):
        r = draw(st.integers(0, max(len(rows) - 1, 0)))
        if edit == "field" and rows:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(_ODD_FIELDS)
        elif edit == "end" and rows:
            ends[r] = draw(st.sampled_from(["\r\n", "\r", "\n\n", "\n \n", "\n\x0c\n"]))
        elif edit == "width" and rows:
            width = draw(st.sampled_from([1, k - 1, k + 1, 2 * k, 5]))
            rows[r] = (rows[r] + [draw(_PLAIN_COLUMNS[1])] * 8)[:width]
        elif edit == "prefix":
            prefix = draw(st.sampled_from(["\n", "\r\n", " \n", "\ufeff\n", "\ufeff\ufeff"]))
        elif edit == "format":
            fmt = "tsv" if fmt == "csv" else "csv"
        elif edit == "byte":
            bad_byte = draw(st.integers(0, 10**6))
    lines = [delimiter.join(row) + end for row, end in zip(rows, ends)]
    if header:
        lines.insert(0, delimiter.join(header) + "\n")
    text = (prefix + "".join(lines)).encode("utf-8")
    if draw(st.booleans()):
        text = text.removesuffix(b"\n")
    if bad_byte is not None:
        at = bad_byte % (len(text) + 1)
        text = text[:at] + b"\xe9" + text[at:]
    return text, fmt


def _load_outcome(path, fmt):
    """load_interactions' columns, or its exception's type and message."""
    try:
        log = load_interactions(path, fmt)
    except Exception as exc:
        return type(exc), str(exc)
    # Bytes, so NaN ratings compare equal.
    return (log.users.tolist(), log.items.tolist(), log.ratings.tobytes(),
            log.user_ids, log.item_ids)


class TestBulkTokenizer:
    """The bulk path gives the csv.reader loop's InteractionLog or error."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(log=_log_texts(), block=st.sampled_from([1, 7, 32, 1 << 16]),
           limit=st.sampled_from([None, None, 8]))
    def test_same_log_or_error_as_row_reader(self, tmp_path_factory, log, block, limit):
        text, fmt = log
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_bytes(text)
        default_limit = csv.field_size_limit()
        try:
            if limit:
                csv.field_size_limit(limit)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "PARSE_BLOCK_BYTES", block)
                got = _load_outcome(path, fmt)
                mp.setattr(ingest, "_read_plain", lambda path, delimiter: None)
                expected = _load_outcome(path, fmt)
        finally:
            csv.field_size_limit(default_limit)
        assert got == expected

    @pytest.mark.parametrize("text", [
        "u1,,5\n", ",i1,5\n", "u1,i1,\n", "u1,i1,5,\n", "u1,i1,,7\n",
        "u1 ,i1,5\n", "u1,i 1,5\n", "u1,i1\r\nu2,i2\r\n", "u1,i1,5\ru2,i2,5\n",
        "u1,i1\nu2,i2,i3,i4\n", "u1,i1,5\nu2,i2\n", "u1,i1,5\nu2,i2,5,6,7\n", "u1,i1\n\nu2,i2\n",
        "u1\ti1\t5\n", '"u1",i1,5\n', 'u1,"i,1",5\n', "u1,i1,nan\n", "u1,i1,1e309\n",
        "u1,i1,+5\n", "u1,i1,1_0\n", "u1,i1,5,-3\n", "u1,i1,5,+5\n", "u1,i1,5,1_0\n",
        f"u1,i1,5,{'9' * 4300}\n", f"u1,i1,5,{'9' * 4301}\n", "u\x00,i1\n", "u1,i\x0b\n",
        "u1,i\x1c\n", "u\x7f,i1\n", "u\x85,i1\n", "u1,i\u2028\n", "\ufeffuser,item\nu1,i1\n",
        "\ufeff\ufeffu1,i1\n", "user,item\n", "\ufeff", "\nuser,item\nu1,i1\n", "u1,i1,5",
        "user,item,rating,timestamp\nu1,i1\n", "user\titem\nu1,i1\n", "u1\n",
    ])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_near_plain_logs(self, tmp_path, monkeypatch, text, fmt):
        # Each case is a plain log but for one thing that some rule of the
        # bulk path must catch, or one that is still plain.
        p = tmp_path / "log.csv"
        p.write_text(text, "utf-8")
        got = _load_outcome(p, fmt)
        monkeypatch.setattr(ingest, "_read_plain", lambda path, delimiter: None)
        assert got == _load_outcome(p, fmt)

    @pytest.mark.parametrize("block", [1, 5, 1 << 16])
    @pytest.mark.parametrize("prefix", ["", "\ufeffuser,item,rating,timestamp\n"])
    def test_lines_straddling_blocks_stay_plain(self, tmp_path, monkeypatch, block, prefix):
        p = tmp_path / "log.csv"
        p.write_text(prefix + "".join(f"u{u % 7},i{u % 5},{u % 5 + 1},{u}\n" for u in range(50)))
        monkeypatch.setattr(ingest, "PARSE_BLOCK_BYTES", block)
        log = ingest._read_plain(p, ",")
        assert log is not None
        assert _log_columns(log) == _log_columns(ingest._read_rows(p, ","))


class TestPreprocess:
    def test_all_pairs_nothing_filtered(self):
        X = preprocess(log_from_records(all_pairs(3, 3)), spec())
        assert (X.n_users, X.n_items, X.nnz) == (3, 3, 9)

    def test_user_drop_cascades_to_item(self):
        raw = all_pairs(3, 3) + [RawInteraction("lone", "only")]
        X = preprocess(log_from_records(raw), spec(min_user_interactions=2))
        assert "lone" not in X.user_ids
        assert "only" not in X.item_ids

    def test_rating_threshold(self):
        raw = [RawInteraction("u", "a", 5.0), RawInteraction("u", "b", 3.0)]
        X = preprocess(log_from_records(raw), spec(rating_threshold=4.0))
        assert X.item_ids == ["a"]

    def test_missing_rating_passes_threshold(self):
        raw = [RawInteraction("u", "a"), RawInteraction("u", "b", 5.0)]
        X = preprocess(log_from_records(raw), spec(rating_threshold=4.0))
        assert X.n_items == 2

    def test_deduplication(self):
        raw = [RawInteraction("u", "a"), RawInteraction("u", "a"),
               RawInteraction("v", "a")]
        X = preprocess(log_from_records(raw), spec())
        assert X.nnz == 2

    def test_all_filtered_out(self):
        raw = [RawInteraction("u", "a", 1.0)]
        with pytest.raises(EmptyDatasetError):
            preprocess(log_from_records(raw), spec(rating_threshold=4.0))

    def test_fixed_point_reached(self):
        # Chain where dropping u2 leaves item c below threshold, which then
        # leaves u3 below the user threshold, and so on.
        raw = all_pairs(4, 4) + [
            RawInteraction("u9", "c0"), RawInteraction("u9", "c1"),
            RawInteraction("u8", "c1"), RawInteraction("u8", "c2"),
        ]
        X = preprocess(log_from_records(raw),
                       spec(min_user_interactions=2, min_item_interactions=2))
        for u in range(X.n_users):
            assert len(row_items(X, u)) >= 2
        cols = np.asarray(scipy_csr(X).sum(axis=0)).ravel()
        assert cols.min() >= 2

    def test_deterministic(self):
        raw = all_pairs(4, 5)
        a = preprocess(log_from_records(raw), spec())
        b = preprocess(log_from_records(list(reversed(raw))), spec())
        assert a == b

    def test_every_row_and_column_nonempty(self):
        raw = all_pairs(3, 3)
        X = preprocess(log_from_records(raw),
                       spec(min_user_interactions=2, min_item_interactions=2))
        assert np.asarray(scipy_csr(X).sum(axis=1)).min() >= 1
        assert np.asarray(scipy_csr(X).sum(axis=0)).min() >= 1


    @settings(max_examples=300, deadline=None)
    @given(records=_RECORDS,
           threshold=st.sampled_from([None, 3.5, 4.0]),
           min_user=st.integers(1, 4), min_item=st.integers(1, 4))
    def test_matches_naive_oracle(self, records, threshold, min_user, min_item):
        s = spec(rating_threshold=threshold, min_user_interactions=min_user,
                 min_item_interactions=min_item)
        try:
            expected = naive_preprocess(records, s)
        except EmptyDatasetError as exc:
            with pytest.raises(EmptyDatasetError, match=str(exc)):
                preprocess(log_from_records(records), s)
            return
        assert preprocess(log_from_records(records), s) == expected


class TestSplit:
    def test_user_partition_arithmetic(self):
        X = preprocess(log_from_records(all_pairs(10, 6)), spec())
        train, val, test = split_strong_generalization(X, spec(heldout_user_fraction=0.2))
        assert train.n_users == 6
        assert val.n_users == 2
        assert test.n_users == 2

    def test_foldin_fraction_arithmetic(self):
        X = preprocess(log_from_records(all_pairs(10, 5)), spec())
        _, val, test = split_strong_generalization(
            X, spec(heldout_user_fraction=0.2, foldin_fraction=0.8))
        for hs in (val, test):
            for u in range(hs.n_users):
                assert len(row_items(hs.foldin, u)) == 4
                assert len(row_items(hs.targets, u)) == 1

    def test_same_seed_identical(self, tmp_path):
        X = preprocess(log_from_records(all_pairs(10, 6)), spec())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            train, val, test = split_strong_generalization(X, spec(rng_seed=3))
            save_split(out, train, val, test)
        for name in ("train.txt", "validation_foldin.txt", "validation_targets.txt",
                     "test_foldin.txt", "test_targets.txt", "items.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_differs(self):
        X = preprocess(log_from_records(all_pairs(20, 8)), spec())
        t1, _, _ = split_strong_generalization(X, spec(rng_seed=1))
        t2, _, _ = split_strong_generalization(X, spec(rng_seed=2))
        assert t1.user_ids != t2.user_ids

    def test_foldin_target_disjoint_union_subset(self):
        X = preprocess(log_from_records(all_pairs(10, 8)), spec())
        _, val, test = split_strong_generalization(X, spec())
        for hs in (val, test):
            for u in range(hs.n_users):
                fold = set(row_items(hs.foldin, u))
                targ = set(row_items(hs.targets, u))
                assert not fold & targ
                original = set(row_items(X, X.user_ids.index(hs.foldin.user_ids[u])))
                assert fold | targ <= original

    def test_user_below_two_interactions_rejected(self):
        raw = all_pairs(9, 4) + [RawInteraction("single", "i0")]
        X = preprocess(log_from_records(raw), spec())
        with pytest.raises(SplitError, match="single"):
            split_strong_generalization(X, spec())

    def test_zero_heldout_users_rejected(self):
        X = preprocess(log_from_records(all_pairs(4, 4)), spec())
        with pytest.raises(SplitError):
            split_strong_generalization(X, spec(heldout_user_fraction=0.1))

    def test_dead_items_dropped_globally(self):
        # Item "rare" is interacted with only by the two users that land in
        # validation/test under this seed, so it must vanish everywhere.
        raw = all_pairs(10, 6)
        X = preprocess(log_from_records(raw), spec())
        train, val, test = split_strong_generalization(X, spec(rng_seed=5))
        heldout_ids = set(val.foldin.user_ids) | set(test.foldin.user_ids)
        rare_owners = list(heldout_ids)[:2]
        raw2 = all_pairs(10, 6) + [RawInteraction(u, "rare") for u in rare_owners]
        X2 = preprocess(log_from_records(raw2), spec())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train2, val2, test2 = split_strong_generalization(X2, spec(rng_seed=5))
        assert "rare" not in train2.item_ids
        assert "rare" not in val2.foldin.item_ids
        assert train2.item_ids == train.item_ids

    def test_vocabularies_consistent(self):
        X = preprocess(log_from_records(all_pairs(10, 6)), spec())
        train, val, test = split_strong_generalization(X, spec())
        assert train.item_ids == val.foldin.item_ids == test.targets.item_ids
        assert set(train.user_ids).isdisjoint(val.foldin.user_ids)
        assert set(val.foldin.user_ids).isdisjoint(test.foldin.user_ids)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.sets(st.integers(0, 11), min_size=2, max_size=5),
                         min_size=5, max_size=25),
           heldout=st.sampled_from([0.1, 0.2, 0.3, 0.4]),
           foldin=st.sampled_from([0.2, 0.5, 0.8, 0.9]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_split(self, rows, heldout, foldin, seed):
        # Up to 12 items over 2-5 items per user: some items live only in
        # held-out rows, which drops them and can exclude their users.
        X = InteractionMatrix.from_pairs(
            [u for u, items in enumerate(rows) for _ in items],
            [i for items in rows for i in sorted(items)], len(rows), 12)
        before = [a.copy() for a in (X.indptr, X.indices)]
        s = spec(heldout_user_fraction=heldout, foldin_fraction=foldin, rng_seed=seed)
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            try:
                *expected, excluded = naive_split(X, s)
            except SplitError as exc:
                with pytest.raises(SplitError, match=re.escape(str(exc))):
                    split_strong_generalization(X, s)
                return
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = split_strong_generalization(X, s)
        for a, b in zip(before, (X.indptr, X.indices)):
            np.testing.assert_array_equal(a, b)
        train, val, test = got
        assert train == expected[0]
        for hs, ref in ((val, expected[1]), (test, expected[2])):
            assert hs.foldin == ref.foldin
            assert hs.targets == ref.targets
        assert ([(w.category, str(w.message)) for w in got_warnings]
                == [(w.category, str(w.message)) for w in expected_warnings])
        n_drawn = s.n_heldout_users(X.n_users)
        assert (n_drawn - val.n_users, n_drawn - test.n_users) == excluded


def coo_csr(rows, cols, shape) -> sp.csr_matrix:
    """The canonical CSR that scipy builds from (possibly repeated) pairs."""
    m = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    return m


def assert_same_csr(X: InteractionMatrix, m: sp.csr_matrix):
    assert X.shape == m.shape
    for got, expected in ((X.indptr, m.indptr), (X.indices, m.indices)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@st.composite
def _pairs(draw):
    """A shape (either side may be 0) and pairs in it, repeats allowed."""
    n_users, n_items = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    pairs = []
    if n_users and n_items:
        pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                        st.integers(0, n_items - 1)), max_size=40))
    return n_users, n_items, pairs


class TestInteractionMatrix:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_pairs())
    def test_from_pairs_matches_scipy(self, case):
        n_users, n_items, pairs = case
        rows, cols = [u for u, _ in pairs], [i for _, i in pairs]
        X = InteractionMatrix.from_pairs(rows, cols, n_users, n_items)
        expected = coo_csr(rows, cols, (n_users, n_items))
        assert_same_csr(X, expected)
        np.testing.assert_array_equal(X.toarray(), expected.toarray() > 0)
        assert InteractionMatrix((expected.indptr, expected.indices, expected.shape),
                                 X.user_ids, X.item_ids) == X

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(st.sets(st.integers(0, 11), min_size=2, max_size=5),
                         min_size=5, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_split_parts_match_scipy(self, rows, seed):
        X = InteractionMatrix.from_pairs(
            [u for u, items in enumerate(rows) for _ in items],
            [i for items in rows for i in sorted(items)], len(rows), 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                train, val, test = split_strong_generalization(
                    X, spec(heldout_user_fraction=0.2, rng_seed=seed))
            except SplitError:
                return
        for part in (train, val.foldin, val.targets, test.foldin, test.targets):
            assert_same_csr(part, coo_csr(*np.nonzero(part.toarray()), part.shape))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_pairs())
    def test_transpose_matches_scipy(self, case):
        n_users, n_items, pairs = case
        X = InteractionMatrix.from_pairs([u for u, _ in pairs], [i for _, i in pairs],
                                         n_users, n_items)
        t = X.transpose()
        assert_same_csr(t, scipy_csr(X).T.tocsr())
        assert (t.user_ids, t.item_ids) == (X.item_ids, X.user_ids)
        assert t.transpose() == X

    def test_repeated_column_rejected(self):
        with pytest.raises(ValueError, match="row 1 holds column 2 more than once"):
            InteractionMatrix((np.array([0, 1, 3]), np.array([1, 2, 2]), (2, 3)),
                              ["u", "v"], ["a", "b", "c"])

    def test_unsorted_row_rejected_and_caller_arrays_not_written(self):
        indptr, indices = np.array([0, 3, 4]), np.array([2, 0, 1, 0])
        with pytest.raises(ValueError, match="row 0 has its columns out of order"):
            InteractionMatrix((indptr, indices, (2, 3)), ["u", "v"], ["a", "b", "c"])
        assert (indptr.tolist(), indices.tolist()) == ([0, 3, 4], [2, 0, 1, 0])
        indices = np.array([0, 1, 2, 0], dtype=np.int32)
        X = InteractionMatrix((indptr, indices, (2, 3)), ["u", "v"], ["a", "b", "c"])
        assert not np.shares_memory(X.indices, indices)
        assert not np.shares_memory(X.indptr, indptr)

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1], [0]),           # one row pointer short
        ([1, 1, 1], []),         # does not start at 0
        ([0, 2, 1], [0]),        # decreasing
        ([0, 1, 2], [0, 3]),     # column outside the matrix
        ([0, 1, 2], [0, -1]),
    ])
    def test_malformed_arrays_rejected(self, indptr, indices):
        with pytest.raises(ValueError):
            InteractionMatrix((np.array(indptr), np.array(indices, dtype=np.int64), (2, 3)),
                              ["u", "v"], ["a", "b", "c"])

    @pytest.mark.parametrize("rows, cols", [([0, 2], [0, 0]), ([0, -1], [0, 0]),
                                            ([0, 0], [3, 0]), ([1, 0], [-1, 0]),
                                            ([0, 1], [0])])
    def test_from_pairs_rejects_pairs_outside(self, rows, cols):
        with pytest.raises(ValueError):
            InteractionMatrix.from_pairs(rows, cols, 2, 3)


class TestHeldOutSetInvariants:
    def test_overlap_rejected(self):
        fold = InteractionMatrix.from_dense([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="overlap"):
            HeldOutSet(fold, fold)

    def test_shape_mismatch_rejected(self):
        fold = InteractionMatrix.from_dense([[1, 0]])
        targ = InteractionMatrix.from_dense([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            HeldOutSet(fold, targ)


class TestTripletFiles:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_interactions
        m = random_interactions(rng, 7, 5)
        path = tmp_path / "m.txt"
        write_triplets(m, path)
        header = path.read_text().splitlines()[0]
        assert header == f"{m.n_users} {m.n_items} {m.nnz}"
        keys, *shape = _parse_triplets(path)
        assert tuple(shape) == m.shape and np.array_equal(keys, m._keys())

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n0 0\n")
        with pytest.raises(ParseError):
            _parse_triplets(p)

    def test_nnz_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 2\n0 0\n")
        with pytest.raises(ParseError):
            _parse_triplets(p)

    def test_writes_sorted_pairs(self, tmp_path):
        m = InteractionMatrix.from_pairs([2, 0, 2, 0], [1, 3, 0, 0], 3, 4)
        write_triplets(m, tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text() == "3 4 4\n0 0\n0 3\n2 0\n2 1\n"

    @pytest.mark.parametrize("body, line, what", [
        ("0 0\n5 1\n", 3, "outside the 2 x 2 matrix"),
        ("0 0\n1 2\n", 3, "outside the 2 x 2 matrix"),
        ("-1 0\n1 1\n", 2, "outside the 2 x 2 matrix"),
        ("0 -1\n1 1\n", 2, "outside the 2 x 2 matrix"),
        ("0 0\n0 0\n", 3, "given twice"),
        ("1 1\n0 1\n1 1\n", 4, "given twice"),
        ("0 0\n1 x\n", 3, "bad pair"),
        ("0 0\n1 1 1\n", 3, "bad pair"),
        ("0 0\n\n1 1\n", 3, "bad pair"),
        ("0 0\n1.0 1\n", 3, "bad pair"),
    ])
    def test_corrupt_body_rejected(self, tmp_path, body, line, what):
        p = tmp_path / "bad.txt"
        p.write_text(f"2 2 {body.count(chr(10))}\n{body}")
        with pytest.raises(ParseError, match=f"bad.txt: line {line}: .*{what}"):
            _parse_triplets(p)

    def test_negative_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("-1 2 0\n")
        with pytest.raises(ParseError, match="bad header"):
            _parse_triplets(p)

    def test_empty_matrix_round_trip(self, tmp_path):
        m = InteractionMatrix.from_pairs([], [], 2, 3)
        write_triplets(m, tmp_path / "m.txt")
        keys, *shape = _parse_triplets(tmp_path / "m.txt")
        assert len(keys) == 0 and shape == [2, 3]

    def test_save_load_split_round_trip(self, tmp_path):
        X = preprocess(log_from_records(all_pairs(10, 6)), spec())
        train, val, test = split_strong_generalization(X, spec())
        save_split(tmp_path, train, val, test)
        train2, val2, test2 = load_split(tmp_path)
        assert train2 == train
        assert val2.foldin == val.foldin
        assert val2.targets == val.targets
        assert test2.foldin == test.foldin
