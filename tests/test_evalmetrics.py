import json
import math

import numpy as np
import pytest

from whiterec.errors import EvaluationError
from whiterec.evalmetrics import evaluate, export_per_user_csv, ndcg_at_r, recall_at_r
from whiterec import linalg
from whiterec.recommend import RankedList

from test_recommend import heldout, naive_rank, sim


def ranked(items):
    return RankedList(user=0, entries=[(i, float(-k)) for k, i in enumerate(items)])


def naive_recall(items, targets, r):
    """Literal formula: sum over ranks of hit indicator / min(R, |targets|)."""
    hits = 0
    for rank in range(1, r + 1):
        if rank <= len(items) and items[rank - 1] in targets:
            hits += 1
    return hits / min(r, len(targets))


def naive_ndcg(items, targets, r):
    dcg = 0.0
    for rank in range(1, r + 1):
        if rank <= len(items) and items[rank - 1] in targets:
            dcg += (2 ** 1 - 1) / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(rank + 1)
                for rank in range(1, min(r, len(targets)) + 1))
    return dcg / ideal


class TestRecall:
    def test_hand_value(self):
        # targets {a,b}, top-3 [a,c,d]: 1 hit / min(3, 2) = 0.5
        assert recall_at_r(ranked([0, 2, 3]), {0, 1}, 3) == 0.5

    def test_all_targets_found(self):
        assert recall_at_r(ranked([0, 1, 2]), {0, 1}, 3) == 1.0

    def test_no_targets_found(self):
        assert recall_at_r(ranked([2, 3]), {0, 1}, 2) == 0.0

    def test_short_list_contributes_zero(self):
        assert recall_at_r(ranked([0]), {0, 1, 2}, 5) == pytest.approx(1 / 3)

    def test_empty_targets_rejected(self):
        with pytest.raises(EvaluationError):
            recall_at_r(ranked([0]), set(), 1)

    def test_monotone_in_r(self, rng):
        items = rng.permutation(30).tolist()
        targets = set(rng.choice(30, size=6, replace=False).tolist())
        values = [recall_at_r(ranked(items), targets, r) for r in range(1, 31)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestNdcg:
    def test_single_target_at_rank_one(self):
        assert ndcg_at_r(ranked([7, 1, 2]), {7}, 3) == 1.0

    def test_single_target_at_rank_two(self):
        got = ndcg_at_r(ranked([1, 7, 2]), {7}, 3)
        assert got == pytest.approx(1.0 / math.log2(3.0), abs=1e-10)
        assert got == pytest.approx(0.63093, abs=1e-5)

    def test_no_targets_in_top(self):
        assert ndcg_at_r(ranked([1, 2]), {9}, 2) == 0.0

    def test_is_one_iff_targets_fill_top_ranks(self, rng):
        targets = {3, 5}
        perfect = ndcg_at_r(ranked([3, 5, 0, 1]), targets, 4)
        assert perfect == pytest.approx(1.0, abs=1e-12)
        imperfect = ndcg_at_r(ranked([3, 0, 5, 1]), targets, 4)
        assert imperfect < 1.0

    def test_empty_targets_rejected(self):
        with pytest.raises(EvaluationError):
            ndcg_at_r(ranked([0]), set(), 1)


class TestMetricOracles:
    def test_thousand_random_instances(self, rng):
        for _ in range(1000):
            n_items = int(rng.integers(5, 40))
            list_len = int(rng.integers(1, n_items + 1))
            items = rng.permutation(n_items)[:list_len].tolist()
            n_targets = int(rng.integers(1, n_items))
            targets = set(rng.choice(n_items, size=n_targets, replace=False).tolist())
            r = int(rng.integers(1, n_items + 5))
            rl = ranked(items)
            assert abs(recall_at_r(rl, targets, r)
                       - naive_recall(items, targets, r)) <= 1e-12
            assert abs(ndcg_at_r(rl, targets, r)
                       - naive_ndcg(items, targets, r)) <= 1e-12

    def test_invariant_under_monotone_score_transform(self, rng):
        # Metrics depend only on the ranking, which ranked() already fixes;
        # transform scores and confirm identical values.
        items = [4, 1, 7, 2]
        targets = {1, 2}
        base = RankedList(0, [(i, 10.0 - k) for k, i in enumerate(items)])
        squashed = RankedList(0, [(i, math.tanh(10.0 - k)) for k, i in enumerate(items)])
        for r in (1, 2, 4):
            assert recall_at_r(base, targets, r) == recall_at_r(squashed, targets, r)
            assert ndcg_at_r(base, targets, r) == ndcg_at_r(squashed, targets, r)


class TestEvaluate:
    def test_perfect_ranking(self):
        # Fold-in item 0 points straight at both targets.
        b = sim([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        H = heldout([[0]], [[1, 2]], 3)
        report = evaluate(H, b, [1, 2])
        assert report.mean("recall", 1) == 1.0
        assert report.mean("recall", 2) == 1.0
        assert report.mean("ndcg", 2) == 1.0

    def test_no_user_with_targets_raises(self):
        H = heldout([[0], [1]], [[], []], 3)
        with pytest.raises(EvaluationError, match="no users with non-empty target sets"):
            evaluate(H, sim(np.eye(3)), [1])

    def test_mean_of_zero_and_one(self):
        b = sim(np.eye(4))
        # User 0's target is scored by the identity (never ranked above
        # noise); craft scores via a custom matrix instead.
        values = np.zeros((4, 4))
        values[0, 1] = 1.0  # user 0: foldin {0} -> recommends 1 (its target)
        values[2, 0] = 0.0  # user 1: foldin {2} -> target 3 gets no score
        values[2, 1] = 1.0
        b = sim(values)
        H = heldout([[0], [2]], [[1], [3]], 4)
        report = evaluate(H, b, [1])
        assert report.mean("recall", 1) == 0.5

    def test_matches_naive_oracle(self, rng):
        n_items = 15
        b = sim(rng.normal(size=(n_items, n_items)))
        folds = [sorted(rng.choice(n_items, 4, replace=False).tolist()) for _ in range(6)]
        targs = []
        for f in folds:
            pool = [i for i in range(n_items) if i not in f]
            targs.append(sorted(rng.choice(pool, 3, replace=False).tolist()))
        H = heldout(folds, targs, n_items)
        cutoffs = [2, 5, 9]
        report = evaluate(H, b, cutoffs)
        for r in cutoffs:
            recalls, ndcgs = [], []
            for f, t in zip(folds, targs):
                dense = np.zeros(n_items)
                dense[f] = 1.0
                scores = dense @ b.values
                order = sorted((i for i in range(n_items) if i not in set(f)),
                               key=lambda i: (-scores[i], i))
                recalls.append(naive_recall(order[:max(cutoffs)], set(t), r))
                ndcgs.append(naive_ndcg(order[:max(cutoffs)], set(t), r))
            assert report.mean("recall", r) == pytest.approx(np.mean(recalls), abs=1e-12)
            assert report.mean("ndcg", r) == pytest.approx(np.mean(ndcgs), abs=1e-12)

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 1000])
    def test_blocked_per_user_values_match_oracle(self, rng, monkeypatch, block_rows):
        n_items = 11
        values = np.round(rng.normal(size=(n_items, n_items)), 1)
        folds, targs = [], []
        for u in range(9):
            items = rng.permutation(n_items)
            folds.append(sorted(items[:u % 4 + 1].tolist()))
            targs.append([] if u % 3 == 1 else sorted(items[5:5 + u % 5 + 1].tolist()))
        H = heldout(folds, targs, n_items)
        cutoffs = [1, 3, 8, 20]
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n_items * block_rows)
        report = evaluate(H, sim(values), cutoffs)
        evaluable = [u for u, t in enumerate(targs) if t]
        assert report.evaluated_rows == evaluable
        assert report.excluded_users == {"empty_targets": 3}
        lists = naive_rank(folds, values, max(cutoffs))
        for r in cutoffs:
            for k, u in enumerate(evaluable):
                items = [i for i, _ in lists[u]]
                assert report.per_user[("recall", r)][k] == naive_recall(items, set(targs[u]), r)
                assert report.per_user[("ndcg", r)][k] == pytest.approx(
                    naive_ndcg(items, set(targs[u]), r), abs=1e-12)
                rl = RankedList(u, lists[u])
                assert report.per_user[("recall", r)][k] == recall_at_r(rl, targs[u], r)
                assert report.per_user[("ndcg", r)][k] == ndcg_at_r(rl, targs[u], r)

    def test_values_in_unit_interval(self, rng):
        b = sim(rng.normal(size=(8, 8)))
        H = heldout([[0, 1], [2, 3]], [[4], [5, 6]], 8)
        report = evaluate(H, b, [1, 3, 8])
        for values in report.per_user.values():
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_cutoff_validation(self, rng):
        H = heldout([[0]], [[1]], 2)
        b = sim(np.eye(2))
        with pytest.raises(ValueError):
            evaluate(H, b, [])
        with pytest.raises(ValueError):
            evaluate(H, b, [0])
        with pytest.raises(ValueError, match="cutoffs must not repeat"):
            evaluate(H, b, [2, 2, 1])

    def test_report_json_shape(self):
        b = sim(np.eye(3))
        H = heldout([[0]], [[1]], 3)
        report = evaluate(H, b, [1, 2])
        doc = json.loads(report.to_json())
        assert doc["cutoffs"] == [1, 2]
        assert set(doc["metrics"]) == {"recall", "ndcg"}
        assert set(doc["metrics"]["recall"]) == {"1", "2"}
        assert doc["n_users_evaluated"] == 1

    def test_per_user_csv(self, tmp_path):
        b = sim(np.eye(3))
        H = heldout([[0]], [[1]], 3)
        report = evaluate(H, b, [1])
        path = tmp_path / "per_user.csv"
        export_per_user_csv(report, ["u0"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,metric,cutoff,value"
        assert len(lines) == 3  # header + (recall, ndcg) x 1 cutoff

    def test_failed_per_user_export_keeps_previous_file(self, tmp_path):
        H = heldout([[0], [1]], [[1], [2]], 3)
        report = evaluate(H, sim(np.eye(3)), [1])
        path = tmp_path / "per_user.csv"
        export_per_user_csv(report, ["u0", "u1"], path)
        before = path.read_bytes()
        with pytest.raises(IndexError):
            export_per_user_csv(report, ["u0"], path)  # no id for row 1
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["per_user.csv"]
