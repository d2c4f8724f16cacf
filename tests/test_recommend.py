import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiterec.autoencoder import SimilarityMatrix
from whiterec.ingest import HeldOutSet, InteractionMatrix
from whiterec.recommend import batch_recommend, export_ranked_csv, score_user, top_n


def sim(values, kind="ridge"):
    return SimilarityMatrix(np.asarray(values, dtype=np.float64), kind)


def heldout(foldin_rows, target_rows, n_items):
    def mat(rows):
        ui = [u for u, items in enumerate(rows) for _ in items]
        ii = [i for items in rows for i in items]
        return InteractionMatrix.from_pairs(ui, ii, len(rows), n_items)
    return HeldOutSet(mat(foldin_rows), mat(target_rows))


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


class TestExport:
    def test_csv_contents(self, tmp_path):
        H = heldout([[0]], [[1]], 2)
        ranked = batch_recommend(H.foldin, sim([[0, 1], [1, 0]]), 1)
        path = tmp_path / "recs.csv"
        export_ranked_csv(ranked, ["alice"], ["apple", "pear"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,rank,item_id,score"
        assert lines[1] == "alice,1,pear,1.0"
