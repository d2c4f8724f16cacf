import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whiterec import linalg, recommend
from whiterec.autoencoder import SimilarityMatrix
from whiterec.errors import CapacityError
from whiterec.evalmetrics import evaluate
from whiterec.ingest import HeldOutSet, InteractionMatrix
from whiterec.recommend import (
    RankedList,
    batch_recommend,
    export_ranked_csv,
    score_user,
    top_n,
    write_recommendations,
)

from conftest import KERNEL_VALUES, bitwise_equal, child_env


def sim(values, kind="ridge"):
    return SimilarityMatrix(np.asarray(values, dtype=np.float64), kind)


def heldout(foldin_rows, target_rows, n_items):
    def mat(rows):
        ui = [u for u, items in enumerate(rows) for _ in items]
        ii = [i for items in rows for i in items]
        return InteractionMatrix.from_pairs(ui, ii, len(rows), n_items)
    return HeldOutSet(mat(foldin_rows), mat(target_rows))


def naive_rank(foldin_rows, values, n):
    """The reference ranking: scores summed row by row from zero, then
    sorted(key=(-score, index)) over the unseen items, cut at n."""
    n_items = values.shape[0]
    lists = []
    for row in foldin_rows:
        scores = sum((values[j] for j in row), np.zeros(n_items))
        unseen = [i for i in range(n_items) if i not in set(row)]
        order = sorted(unseen, key=lambda i: (-scores[i], i))[:n]
        lists.append([(i, float(scores[i])) for i in order])
    return lists


def falling_rows(n_items, block_rows):
    """Rows that show a reused block buffer not reset between blocks: lengths
    fall from one block to the next, down to a block of empty rows, and the
    last block is short."""
    lengths = [n_items] * block_rows + [n_items // 2] * block_rows + [0] * block_rows + [1]
    return [list(range(n_items - length, n_items)) for length in lengths]


def as_text(entries):
    """(item, repr(score)) pairs: compares signed zeros, which == does not."""
    return [(i, repr(s)) for i, s in entries]


class TestScoreUser:
    def test_hand_dot_product(self):
        s = score_user(np.array([0]), sim([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(s, [0.0, 1.0])

    def test_empty_history(self):
        s = score_user(np.array([], dtype=np.int64), sim(np.eye(3)))
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_full_history_identity(self):
        s = score_user(np.arange(3), sim(np.eye(3)))
        np.testing.assert_array_equal(s, np.ones(3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            score_user(np.array([5]), sim(np.eye(3)))

    def test_matches_dense_product(self, rng):
        b = sim(rng.normal(size=(8, 8)))
        y = np.array([1, 3, 6])
        dense = np.zeros(8)
        dense[y] = 1.0
        np.testing.assert_allclose(score_user(y, b), dense @ b.values, atol=1e-12)


def scipy_scores(indptr, indices, values):
    """The reference kernel: scipy's CSR x dense product of binary rows."""
    import scipy.sparse as sp

    x = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                      shape=(len(indptr) - 1, values.shape[0]))
    return x @ values


class TestScoringKernel:
    """Scores equal scipy's CSR x dense product bit for bit (scipy is only the oracle)."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), n_items=st.integers(1, 12),
           n_rows=st.integers(0, 9), falling=st.booleans())
    @example(seed=1, n_items=7, n_rows=0, falling=True)
    def test_blocks_match_scipy(self, seed, n_items, n_rows, falling):
        gen = np.random.default_rng(seed)
        values = gen.choice(KERNEL_VALUES, size=(n_items, n_items))
        rows = ([np.array(r, dtype=np.int64) for r in falling_rows(n_items, 3)] if falling
                else [np.flatnonzero(gen.random(n_items) < gen.choice([0.0, 0.3, 1.0]))
                      for _ in range(n_rows)])
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int32)
        indices = np.concatenate([np.zeros(0, np.int32), *rows]).astype(np.int32)
        expected = scipy_scores(indptr, indices, values)
        assert bitwise_equal(linalg.csr_matmul(indptr, indices, values), expected)

        foldin = heldout([r.tolist() for r in rows], [[] for _ in rows], n_items).foldin
        with pytest.MonkeyPatch.context() as mp:
            # Blocks of 3 rows, for csr_matmul's own loop and for ranking.
            mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n_items * 3)
            assert bitwise_equal(linalg.csr_matmul(indptr, indices, values), expected)
            for start, items, scores, lengths in recommend.ranked_blocks(
                    foldin, sim(values), n_items):
                for r, length in enumerate(lengths.tolist()):
                    want = expected[start + r, items[r, :length]]
                    assert bitwise_equal(scores[r, :length], want)

    def test_signed_zeros_sum_from_positive_zero(self):
        values = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [0.0, 0.0, 0.0]])
        indptr, indices = np.array([0, 0, 1, 3]), np.array([0, 0, 1])
        got = linalg.csr_matmul(indptr, indices, values)
        assert bitwise_equal(got, scipy_scores(indptr, indices, values))
        assert not np.signbit(got).any()

    def test_unsorted_history_with_repeat_matches_scipy(self):
        values = np.random.default_rng(7).choice(KERNEL_VALUES, size=(6, 6))
        y = np.array([4, 1, 4, 0, 5])
        expected = scipy_scores(np.array([0, len(y)]), y, values)[0]
        assert bitwise_equal(score_user(y, sim(values)), expected)


# One ranked_blocks pass over BLOCKS score blocks of a 1,000-item model in a
# fresh process; prints the minor page faults the pass took.
PASS_FAULTS = """
import resource, sys
import numpy as np
from whiterec import linalg, recommend
from whiterec.autoencoder import SimilarityMatrix
from whiterec.ingest import InteractionMatrix

dim, blocks = 1000, int(sys.argv[1])
# Filled in place, as a model read from disk is: a freed 8 MB temporary
# would raise glibc's mmap threshold and hide per-block allocations.
values = np.empty((dim, dim))
np.random.default_rng(0).random(out=values)
rows = blocks * (linalg.PRODUCT_BLOCK_BYTES // (8 * dim))
gen = np.random.default_rng(1)
lengths = gen.integers(1, 9, size=rows)
indptr = np.concatenate(([0], np.cumsum(lengths)))
indices = np.concatenate([np.sort(gen.choice(dim, size=k, replace=False)) for k in lengths])
ids = [str(i) for i in range(max(rows, dim))]
foldin = InteractionMatrix((indptr, indices, (rows, dim)), ids[:rows], ids[:dim])
model = SimilarityMatrix(values, "ridge")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in recommend.ranked_blocks(foldin, model, 10):
    pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_pass_faults_do_not_grow_with_blocks():
    """A pass allocates its workspace once: 20 blocks fault in no more pages
    than 2 blocks plus one block's worth, whatever the allocator's state."""
    resource = pytest.importorskip("resource")
    faults = {}
    for blocks in (2, 20):
        proc = subprocess.run([sys.executable, "-c", PASS_FAULTS, str(blocks)], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults[blocks] = int(proc.stdout)
    block_pages = linalg.PRODUCT_BLOCK_BYTES // resource.getpagesize()
    assert faults[20] <= faults[2] + block_pages, faults


class TestTopN:
    def test_hand_case(self):
        got = top_n(np.array([0.9, 0.1, 0.5]), np.array([0]), 2)
        assert got == [(2, 0.5), (1, 0.1)]

    def test_all_seen(self):
        assert top_n(np.array([0.5, 0.5]), np.array([0, 1]), 3) == []

    def test_tie_break_by_index(self):
        assert top_n(np.array([0.5, 0.5]), np.array([], dtype=np.int64), 1) == [(0, 0.5)]

    def test_n_larger_than_unseen(self):
        got = top_n(np.array([0.3, 0.2, 0.1]), np.array([0]), 10)
        assert [i for i, _ in got] == [1, 2]

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            top_n(np.array([1.0]), np.array([], dtype=np.int64), 0)

    @pytest.mark.parametrize("seen", [[-1], [3], [0, 5]])
    def test_seen_out_of_range(self, seen):
        with pytest.raises(ValueError, match="out of range"):
            top_n(np.array([0.3, 0.2, 0.1]), np.array(seen), 2)

    def test_rank_invariant_under_positive_scaling(self, rng):
        scores = rng.normal(size=20)
        seen = np.array([3, 7])
        base = [i for i, _ in top_n(scores, seen, 10)]
        for c in (0.5, 2.0, 1e6):
            scaled = [i for i, _ in top_n(c * scores, seen, 10)]
            assert scaled == base

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    def test_contract_holds_for_random_inputs(self, seed, n):
        gen = np.random.default_rng(seed)
        scores = np.round(gen.normal(size=15), 1)  # rounding forces ties
        seen = np.flatnonzero(gen.random(15) < 0.3)
        got = top_n(scores, seen, n)
        assert len(got) == min(n, 15 - len(seen))
        assert not {i for i, _ in got} & set(seen.tolist())
        pairs = [(-s, i) for i, s in got]
        assert pairs == sorted(pairs)
        unseen_scores = sorted((scores[i] for i in range(15) if i not in seen),
                               reverse=True)
        assert [s for _, s in got] == unseen_scores[:len(got)]


class TestBatchRecommend:
    def test_identity_recommends_unseen(self):
        H = heldout([[0]], [[1]], 2)
        ranked = batch_recommend(H.foldin, sim(np.eye(2)), 1)
        assert ranked[0].items() == [1]

    def test_identical_users_identical_lists(self, rng):
        b = sim(rng.normal(size=(6, 6)))
        H = heldout([[0, 2], [0, 2]], [[1], [3]], 6)
        ranked = batch_recommend(H.foldin, b, 3)
        assert ranked[0].entries == ranked[1].entries

    def test_matches_naive_oracle(self, rng):
        n_items = 12
        b = sim(rng.normal(size=(n_items, n_items)))
        folds = [sorted(rng.choice(n_items, size=3, replace=False).tolist())
                 for _ in range(5)]
        targets = [[(f[0] + 5) % n_items] for f in folds]
        for f, t in zip(folds, targets):
            if set(f) & set(t):
                t[0] = (t[0] + 1) % n_items
        H = heldout(folds, targets, n_items)
        ranked = batch_recommend(H.foldin, b, 4)
        for u, fold in enumerate(folds):
            dense = np.zeros(n_items)
            dense[fold] = 1.0
            scores = dense @ b.values
            order = sorted((i for i in range(n_items) if i not in set(fold)),
                           key=lambda i: (-scores[i], i))[:4]
            assert ranked[u].items() == order

    def test_no_foldin_item_ever_recommended(self, rng):
        b = sim(rng.normal(size=(10, 10)))
        folds = [[0, 1, 2], [3, 4], [5]]
        targs = [[9], [9], [9]]
        H = heldout(folds, targs, 10)
        for rl, fold in zip(batch_recommend(H.foldin, b, 10), folds):
            assert not set(rl.items()) & set(fold)

    def test_dimension_mismatch(self, rng):
        H = heldout([[0]], [[1]], 2)
        with pytest.raises(ValueError):
            batch_recommend(H.foldin, sim(np.eye(3)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_rejected(self, bad):
        values = np.eye(3)
        values[1, 2] = bad
        H = heldout([[0]], [[1]], 3)
        with pytest.raises(ValueError, match="ease similarity matrix has non-finite"):
            batch_recommend(H.foldin, sim(values, kind="ease"), 2)

    def test_overflowing_scores_rejected(self):
        values = np.full((3, 3), 1e308)
        H = heldout([[0, 1]], [[2]], 3)
        with pytest.raises(ValueError, match="finite"):
            batch_recommend(H.foldin, sim(values), 1)

    def test_returns_one_ranked_list_per_foldin_row(self, rng):
        H = heldout([[0], [], [1, 2], [0, 1, 2, 3]], [[1], [2], [3], []], 4)
        ranked = batch_recommend(H.foldin, sim(rng.normal(size=(4, 4))), 2)
        assert isinstance(ranked, list) and len(ranked) == H.foldin.n_users
        assert all(isinstance(rl, RankedList) for rl in ranked)
        assert [rl.user for rl in ranked] == [0, 1, 2, 3]
        assert [len(rl.entries) for rl in ranked] == [2, 2, 2, 0]

    def test_tie_straddling_the_cut(self):
        # Items 0, 2, 3 tie at 0.5 behind item 1; only the lowest indices make the cut.
        values = np.zeros((5, 5))
        values[4] = [0.5, 0.9, 0.5, 0.5, 0.0]
        H = heldout([[4]], [[0]], 5)
        for n, expected in ((1, [1]), (2, [1, 0]), (3, [1, 0, 2]), (4, [1, 0, 2, 3])):
            assert batch_recommend(H.foldin, sim(values), n)[0].items() == expected

    def test_tie_with_seen_item_straddling_the_cut(self):
        values = np.zeros((4, 4))
        values[1] = [0.5, 0.5, 0.5, 0.5]
        H = heldout([[1]], [[0]], 4)
        assert batch_recommend(H.foldin, sim(values), 2)[0].items() == [0, 2]

    def test_every_top_rows_branch_in_one_block(self, monkeypatch):
        """One score block whose rows take every path of _top_rows: a tie
        straddling the cut, ties inside the list only (the stable sort),
        fewer unseen items than n (the k-th value is -inf), distinct values
        (the default sort), every item seen, and no item seen."""
        gen = np.random.default_rng(5)
        n_items, n = 50, 40
        values = np.zeros((n_items, n_items))
        # Row 0: 30 distinct scores above 19 tied at 0.5, of which 10 make the cut.
        values[0, 1:31] = np.linspace(2.0, 1.0, 30)
        values[0, 31:] = 0.5
        # Row 1: three levels repeated through the list, distinct values past it.
        values[1, :40] = gen.choice([3.0, 2.0, 1.0], size=40)
        values[1, 40:] = -np.arange(1.0, 11.0)
        values[2] = gen.permutation(n_items) / 7.0
        rows = [[0], [1], [2], list(range(3, 18)), list(range(n_items)), []]
        foldin = heldout(rows, [[] for _ in rows], n_items).foldin
        cut = []
        cut_ties = recommend._cut_ties
        monkeypatch.setattr(recommend, "_cut_ties",
                            lambda *args: cut.append(args[4].tolist()) or cut_ties(*args))
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n_items * len(rows))
        ranked = batch_recommend(foldin, sim(values), n)
        # Rows 4 and 5 straddle too: every entry of a fully seen row is -inf,
        # and every score of an empty history is 0.0.
        assert cut == [[0, 3, 4, 5]]
        for rl, expected in zip(ranked, naive_rank(rows, values, n)):
            assert as_text(rl.entries) == as_text(expected)
        assert [len(rl.entries) for rl in ranked] == [40, 40, 40, 35, 0, 40]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), n_items=st.integers(1, 12),
           n_users=st.integers(0, 9), n=st.integers(1, 15),
           block_rows=st.integers(1, 4), block_diagonal=st.booleans(), falling=st.booleans())
    @example(seed=2, n_items=9, n_users=0, n=4, block_rows=3, block_diagonal=False,
             falling=True)
    def test_kernel_matches_naive_oracle(self, seed, n_items, n_users, n,
                                         block_rows, block_diagonal, falling):
        gen = np.random.default_rng(seed)
        values = np.round(gen.normal(size=(n_items, n_items)), 1)  # rounding forces ties
        half = n_items // 2
        if block_diagonal:
            # Cross-block entries are signed zeros, as EASE produces for
            # disconnected item groups; their summed scores must print as 0.0.
            values[:half, half:] = -0.0
            values[half:, :half] = -0.0
        rows = falling_rows(n_items, block_rows) if falling else []
        for _ in range(0 if falling else n_users):
            shape = gen.integers(4)
            if shape == 0:
                rows.append([])
            elif shape == 1:
                rows.append(list(range(n_items)))
            else:
                pool = half if shape == 2 and half else n_items
                rows.append(np.flatnonzero(gen.random(pool) < 0.4).tolist())
        foldin = heldout(rows, [[] for _ in rows], n_items).foldin
        with pytest.MonkeyPatch.context() as mp:
            # Blocks of block_rows users, so most cases span several blocks.
            mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n_items * block_rows)
            ranked = batch_recommend(foldin, sim(values), n)
        assert [rl.user for rl in ranked] == list(range(len(rows)))
        for rl, row, expected in zip(ranked, rows, naive_rank(rows, values, n)):
            assert as_text(rl.entries) == as_text(expected)
            assert len(rl.entries) == min(n, n_items - len(row))


class TestExport:
    def test_csv_contents(self, tmp_path):
        H = heldout([[0]], [[1]], 2)
        ranked = batch_recommend(H.foldin, sim([[0, 1], [1, 0]]), 1)
        path = tmp_path / "recs.csv"
        export_ranked_csv(ranked, ["alice"], ["apple", "pear"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,rank,item_id,score"
        assert lines[1] == "alice,1,pear,1.0"

    def test_bytes_match_csv_writer(self, tmp_path, rng):
        user_ids = ["plain", "a,b", 'say "hi"', " spaced out ", 'mix, "all" ', "", "line\nbreak"]
        item_ids = ["i0", "x,y", '"q"', "two words", 'both, "kinds"', "cr\rlf"]
        values = rng.normal(size=(6, 6))
        values[0, 1] = -0.0
        rows = [[0], [1, 2], [], [3], [0, 5], [4], [2]]
        foldin = heldout(rows, [[] for _ in rows], 6).foldin
        ranked = batch_recommend(foldin, sim(values), 4)
        path = tmp_path / "recs.csv"
        export_ranked_csv(ranked, user_ids, item_ids, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "rank", "item_id", "score"])
            for rl in ranked:
                for rank, (item, score) in enumerate(rl.entries, start=1):
                    writer.writerow([user_ids[rl.user], rank, item_ids[item], repr(score)])
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_bytes().count(b"\r\n") >= 1 + sum(len(rl.entries) for rl in ranked)

    def test_positional_signature(self, tmp_path):
        ranked = [RankedList(0, [(1, 0.25)])]
        export_ranked_csv(ranked, ["u"], ["a", "b"], tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == b"user_id,rank,item_id,score\r\nu,1,b,0.25\r\n"

    def test_failed_export_keeps_previous_file(self, tmp_path):
        path = tmp_path / "recs.csv"
        export_ranked_csv([RankedList(0, [(0, 1.0)])], ["u"], ["a"], path)
        before = path.read_bytes()
        ranked = [RankedList(0, [(0, 2.0)]), RankedList(1, [(0, 1.0), (5, 0.5)])]
        with pytest.raises(IndexError):
            export_ranked_csv(ranked, ["u", "v"], ["a"], path)  # item 5 has no id
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["recs.csv"]


# Ids that csv.writer must quote, and text that is not ASCII.
ID_TEXT = st.text(alphabet=st.sampled_from(list('ab,"\n\r é€😀')), max_size=4)


def forced_workers(mp, cores):
    """Fork for any non-empty output on ``cores`` cores; returns the fork counter."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    mp.setattr(recommend, "FORK_MIN_ROWS", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    mp.setattr(os, "fork", counting_fork)
    return forks


def assert_writer_matches_export(foldin, values, n, item_ids, workers, directory):
    """write_recommendations on ``workers`` cores writes the bytes of
    export_ranked_csv(batch_recommend(...)) and forks workers - 1 children."""
    B = sim(values)
    ranked = batch_recommend(foldin, B, n)
    expected = Path(directory) / "expected.csv"
    export_ranked_csv(ranked, foldin.user_ids, item_ids, expected)
    got = Path(directory) / "got.csv"
    with pytest.MonkeyPatch.context() as mp:
        forks = forced_workers(mp, workers)
        lengths = write_recommendations(foldin, B, n, item_ids, got)
    assert got.read_bytes() == expected.read_bytes()
    assert lengths.tolist() == [len(rl.entries) for rl in ranked]
    rows = int(lengths.sum())
    assert len(forks) == max(1, min(workers, rows, foldin.n_users)) - 1
    assert sorted(p.name for p in Path(directory).iterdir()) == ["expected.csv", "got.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriteRecommendations:
    """The streaming, sharded writer against batch_recommend + export_ranked_csv."""

    # Users 2 and 4 have seen every item; items 1, 2 and 3 tie for user 0.
    ROWS = [[0], [1, 3], [0, 1, 2, 3, 4], [], [4, 3, 2, 1, 0], [2]]
    USER_IDS = ["plain", "a,b", 'say "hi"', "line\nbreak", "é€", "😀,\r"]
    ITEM_IDS = ["i0", "x,y", '"q"', "two\nlines", "ü"]

    @classmethod
    def case(cls):
        values = np.zeros((5, 5))
        values[0, 1:4] = 0.5
        values[1] = [0.25, 0.0, -0.0, 0.5, 1e-300]
        values[3, 0] = -1.5
        foldin = InteractionMatrix.from_pairs(
            [u for u, row in enumerate(cls.ROWS) for _ in row],
            [i for row in cls.ROWS for i in row],
            len(cls.ROWS), 5, cls.USER_IDS, cls.ITEM_IDS)
        return foldin, values

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_bytes_match_export(self, tmp_path, workers, n):
        foldin, values = self.case()
        assert_writer_matches_export(foldin, values, n, self.ITEM_IDS, workers, tmp_path)

    def test_one_user_shards(self, tmp_path):
        foldin, values = self.case()
        assert_writer_matches_export(foldin, values, 2, self.ITEM_IDS, len(self.ROWS), tmp_path)

    def test_without_fork_runs_serially(self, tmp_path, monkeypatch):
        foldin, values = self.case()
        serial = tmp_path / "serial.csv"
        write_recommendations(foldin, sim(values), 3, self.ITEM_IDS, serial)
        monkeypatch.setattr(recommend, "FORK_MIN_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "recs.csv"
        write_recommendations(foldin, sim(values), 3, self.ITEM_IDS, path)
        assert path.read_bytes() == serial.read_bytes()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(recommend, "FORK_MIN_ROWS", 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert recommend._worker_count(10, 6) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert recommend._worker_count(10, 6) == 1

    def test_worker_count_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        rows = recommend.FORK_MIN_ROWS
        assert [recommend._worker_count(k * rows, 100) for k in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 4]
        assert recommend._worker_count(9 * rows, 2) == 2
        assert recommend._worker_count(9 * rows, 0) == 1

    def test_workspace_over_cap_raises_before_scoring(self, tmp_path, monkeypatch, byte_cap):
        foldin, values = self.case()
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * 5 * 2)  # 2-row blocks
        workspace = recommend._Workspace(2, 5)
        size = 2 * 5 * recommend._Workspace.ENTRY_BYTES
        assert workspace.scores.nbytes + workspace.product.nbytes + workspace.masks.nbytes == size
        byte_cap(size - 1)  # room for a score block, not for the workspace
        with pytest.raises(CapacityError, match="ranking workspace"):
            recommend.ranked_blocks(foldin, sim(values), 3)
        forks = forced_workers(monkeypatch, 3)
        with pytest.raises(CapacityError):
            write_recommendations(foldin, sim(values), 3, self.ITEM_IDS, tmp_path / "r.csv")
        assert forks == [] and list(tmp_path.iterdir()) == []
        byte_cap(size)
        blocks = list(recommend.ranked_blocks(foldin, sim(values), 3))
        assert [first for first, *_ in blocks] == [0, 2, 4]

    def test_bad_model_raises_before_any_fork(self, tmp_path, monkeypatch):
        foldin, values = self.case()
        values[2, 2] = np.nan
        forks = forced_workers(monkeypatch, 3)
        with pytest.raises(ValueError, match="non-finite"):
            write_recommendations(foldin, sim(values), 3, self.ITEM_IDS, tmp_path / "r.csv")
        assert forks == [] and list(tmp_path.iterdir()) == []

    def test_model_is_checked_once_per_call(self, tmp_path, monkeypatch):
        # write_recommendations ranks three shards and evaluate one pass;
        # each checks the model's finiteness once, not once per shard.
        foldin, values = self.case()
        model = sim(values)
        checked = []
        all_finite = linalg.all_finite
        monkeypatch.setattr(linalg, "all_finite",
                            lambda a: checked.append(a is model.values) or all_finite(a))
        forks = forced_workers(monkeypatch, 3)
        write_recommendations(foldin, model, 3, self.ITEM_IDS, tmp_path / "r.csv")
        assert len(forks) == 2 and checked == [True]
        checked.clear()
        evaluate(heldout([[0], [1, 3]], [[2], [4]], 5), model, [1, 3])
        assert checked == [True]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_unusual_score_reprs_match_export(self, tmp_path, workers):
        # A single-item history scores 0.0 + one row of values, so user j's
        # scores are these, rotated so that -2.5 falls on the seen item j;
        # -0.0 sums to 0.0.
        # Items 8 and 9 sum to 0.1 + 0.2.
        reprs = [1e16, 1e-05, 2.0, 5e-324, 0.30000000000000004, 1.7976931348623157e308,
                 -0.0, -2.5]
        values = np.zeros((10, 10))
        for j in range(8):
            values[j, :8] = np.roll(reprs, j + 1)
        values[8], values[9] = 0.1, 0.2
        rows = [[j] for j in range(8)] + [[8, 9]]
        foldin = heldout(rows, [[] for _ in rows], 10).foldin
        item_ids = [f"i{j}" for j in range(10)]
        assert_writer_matches_export(foldin, values, 10, item_ids, workers, tmp_path)
        text = (tmp_path / "got.csv").read_bytes()
        for score in (b"1e+16", b"1e-05", b"2.0", b"5e-324", b"0.30000000000000004",
                      b"1.7976931348623157e+308", b"0.0"):
            assert b"," + score + b"\r\n" in text
        assert b"-0.0" not in text

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n_items=st.integers(1, 8), n_users=st.integers(0, 7),
           n=st.integers(1, 10), workers=st.integers(1, 3), block_rows=st.integers(1, 3),
           ids=st.lists(ID_TEXT, min_size=15, max_size=15))
    def test_random_inputs_match_export(self, seed, n_items, n_users, n, workers,
                                        block_rows, ids):
        gen = np.random.default_rng(seed)
        values = np.round(gen.normal(size=(n_items, n_items)), 1)  # rounding forces ties
        rows = []
        for _ in range(n_users):
            shape = gen.integers(3)
            rows.append([] if shape == 0 else list(range(n_items)) if shape == 1
                        else np.flatnonzero(gen.random(n_items) < 0.4).tolist())
        foldin = InteractionMatrix.from_pairs(
            [u for u, row in enumerate(rows) for _ in row], [i for row in rows for i in row],
            n_users, n_items, ids[:n_users], ids[7:7 + n_items])
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n_items * block_rows)
            assert_writer_matches_export(foldin, values, n, ids[7:7 + n_items], workers,
                                         directory)
