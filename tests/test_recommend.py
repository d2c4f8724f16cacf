import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiterec import linalg, recommend
from whiterec.autoencoder import SimilarityMatrix
from whiterec.ingest import HeldOutSet, InteractionMatrix
from whiterec.recommend import (
    RankedList,
    batch_recommend,
    export_ranked_csv,
    score_user,
    top_n,
)

from conftest import KERNEL_VALUES, bitwise_equal


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
           n_rows=st.integers(0, 9))
    def test_blocks_match_scipy(self, seed, n_items, n_rows):
        gen = np.random.default_rng(seed)
        values = gen.choice(KERNEL_VALUES, size=(n_items, n_items))
        rows = [np.flatnonzero(gen.random(n_items) < gen.choice([0.0, 0.3, 1.0]))
                for _ in range(n_rows)]
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int32)
        indices = np.concatenate([np.zeros(0, np.int32), *rows]).astype(np.int32)
        expected = scipy_scores(indptr, indices, values)
        assert bitwise_equal(linalg.csr_matmul(indptr, indices, values), expected)

        foldin = heldout([r.tolist() for r in rows], [[] for _ in rows], n_items).foldin
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recommend, "SCORE_BLOCK_BYTES", 8 * n_items * 3)
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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), n_items=st.integers(1, 12),
           n_users=st.integers(0, 9), n=st.integers(1, 15),
           block_rows=st.integers(1, 4), block_diagonal=st.booleans())
    def test_kernel_matches_naive_oracle(self, seed, n_items, n_users, n,
                                         block_rows, block_diagonal):
        gen = np.random.default_rng(seed)
        values = np.round(gen.normal(size=(n_items, n_items)), 1)  # rounding forces ties
        half = n_items // 2
        if block_diagonal:
            # Cross-block entries are signed zeros, as EASE produces for
            # disconnected item groups; their summed scores must print as 0.0.
            values[:half, half:] = -0.0
            values[half:, :half] = -0.0
        rows = []
        for _ in range(n_users):
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
            mp.setattr(recommend, "SCORE_BLOCK_BYTES", 8 * n_items * block_rows)
            ranked = batch_recommend(foldin, sim(values), n)
        assert [rl.user for rl in ranked] == list(range(n_users))
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
