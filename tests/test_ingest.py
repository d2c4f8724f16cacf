import warnings

import numpy as np
import pytest

from whiterec.errors import EmptyDatasetError, ParseError, SplitError
from whiterec.ingest import (
    HeldOutSet,
    InteractionMatrix,
    RawInteraction,
    SplitSpec,
    load_interactions,
    load_split,
    preprocess,
    read_triplets,
    save_split,
    split_strong_generalization,
    write_triplets,
)


def spec(**kwargs):
    defaults = dict(heldout_user_fraction=0.2, foldin_fraction=0.5, rng_seed=7,
                    min_user_interactions=1, min_item_interactions=1,
                    rating_threshold=None)
    defaults.update(kwargs)
    return SplitSpec(**defaults)


def all_pairs(n_users, n_items):
    raw = []
    for u in range(n_users):
        for i in range(n_items):
            raw.append(RawInteraction(f"u{u}", f"i{i}"))
    return raw


class TestLoadInteractions:
    def test_two_records_with_ratings(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("u1,i1,5,100\nu1,i2,3,101\n")
        records = load_interactions(p)
        assert len(records) == 2
        assert records[0] == RawInteraction("u1", "i1", 5.0, 100)
        assert records[1].rating == 3.0 and records[1].timestamp == 101

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_interactions(p)

    def test_malformed_rating(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u1,i1,abc\n")
        with pytest.raises(ParseError, match="line 1"):
            load_interactions(p)

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        # nan < 4 is False, so a non-finite rating would pass the threshold
        # and be kept as a positive interaction.
        p = tmp_path / "bad.csv"
        p.write_text(f"u1,i1,5\nu1,i2,{rating}\n")
        with pytest.raises(ParseError, match="line 2.*not finite"):
            load_interactions(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u1,i1,5,100,extra\n")
        with pytest.raises(ParseError, match="line 1"):
            load_interactions(p)

    def test_tsv(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("u1\ti1\t4\n")
        records = load_interactions(p, "tsv")
        assert records == [RawInteraction("u1", "i1", 4.0)]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("user,item,rating\nu1,i1,5\n")
        assert len(load_interactions(p)) == 1

    def test_two_columns_only(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("u1,i1\nu2,i1\n")
        records = load_interactions(p)
        assert all(r.rating is None for r in records)

    def test_records_in_file_order(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("b,i2\na,i1\n")
        records = load_interactions(p)
        assert [r.user_id for r in records] == ["b", "a"]


class TestPreprocess:
    def test_all_pairs_nothing_filtered(self):
        X = preprocess(all_pairs(3, 3), spec())
        assert (X.n_users, X.n_items, X.nnz) == (3, 3, 9)

    def test_user_drop_cascades_to_item(self):
        raw = all_pairs(3, 3) + [RawInteraction("lone", "only")]
        X = preprocess(raw, spec(min_user_interactions=2))
        assert "lone" not in X.user_index
        assert "only" not in X.item_index

    def test_rating_threshold(self):
        raw = [RawInteraction("u", "a", 5.0), RawInteraction("u", "b", 3.0)]
        X = preprocess(raw, spec(rating_threshold=4.0))
        assert X.item_ids == ["a"]

    def test_missing_rating_passes_threshold(self):
        raw = [RawInteraction("u", "a"), RawInteraction("u", "b", 5.0)]
        X = preprocess(raw, spec(rating_threshold=4.0))
        assert X.n_items == 2

    def test_deduplication(self):
        raw = [RawInteraction("u", "a"), RawInteraction("u", "a"),
               RawInteraction("v", "a")]
        X = preprocess(raw, spec())
        assert X.nnz == 2

    def test_all_filtered_out(self):
        raw = [RawInteraction("u", "a", 1.0)]
        with pytest.raises(EmptyDatasetError):
            preprocess(raw, spec(rating_threshold=4.0))

    def test_fixed_point_reached(self):
        # Chain where dropping u2 leaves item c below threshold, which then
        # leaves u3 below the user threshold, and so on.
        raw = all_pairs(4, 4) + [
            RawInteraction("u9", "c0"), RawInteraction("u9", "c1"),
            RawInteraction("u8", "c1"), RawInteraction("u8", "c2"),
        ]
        X = preprocess(raw, spec(min_user_interactions=2, min_item_interactions=2))
        for u in range(X.n_users):
            assert len(X.row_items(u)) >= 2
        cols = np.asarray(X.matrix.sum(axis=0)).ravel()
        assert cols.min() >= 2

    def test_deterministic(self):
        raw = all_pairs(4, 5)
        a = preprocess(raw, spec())
        b = preprocess(list(reversed(raw)), spec())
        assert a == b

    def test_every_row_and_column_nonempty(self):
        raw = all_pairs(3, 3)
        X = preprocess(raw, spec(min_user_interactions=2, min_item_interactions=2))
        assert np.asarray(X.matrix.sum(axis=1)).min() >= 1
        assert np.asarray(X.matrix.sum(axis=0)).min() >= 1


class TestSplit:
    def test_user_partition_arithmetic(self):
        X = preprocess(all_pairs(10, 6), spec())
        train, val, test = split_strong_generalization(X, spec(heldout_user_fraction=0.2))
        assert train.n_users == 6
        assert val.n_users == 2
        assert test.n_users == 2

    def test_foldin_fraction_arithmetic(self):
        X = preprocess(all_pairs(10, 5), spec())
        _, val, test = split_strong_generalization(
            X, spec(heldout_user_fraction=0.2, foldin_fraction=0.8))
        for hs in (val, test):
            for u in range(hs.n_users):
                assert len(hs.foldin.row_items(u)) == 4
                assert len(hs.target_items(u)) == 1

    def test_same_seed_identical(self, tmp_path):
        X = preprocess(all_pairs(10, 6), spec())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            train, val, test = split_strong_generalization(X, spec(rng_seed=3))
            save_split(out, train, val, test)
        for name in ("train.txt", "validation_foldin.txt", "validation_targets.txt",
                     "test_foldin.txt", "test_targets.txt", "items.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_differs(self):
        X = preprocess(all_pairs(20, 8), spec())
        t1, _, _ = split_strong_generalization(X, spec(rng_seed=1))
        t2, _, _ = split_strong_generalization(X, spec(rng_seed=2))
        assert t1.user_ids != t2.user_ids

    def test_foldin_target_disjoint_union_subset(self):
        X = preprocess(all_pairs(10, 8), spec())
        _, val, test = split_strong_generalization(X, spec())
        for hs in (val, test):
            for u in range(hs.n_users):
                fold = set(hs.foldin.row_items(u))
                targ = set(hs.target_items(u))
                assert not fold & targ
                original = set(X.row_items(X.user_index[hs.foldin.user_ids[u]]))
                assert fold | targ <= original

    def test_user_below_two_interactions_rejected(self):
        raw = all_pairs(9, 4) + [RawInteraction("single", "i0")]
        X = preprocess(raw, spec())
        with pytest.raises(SplitError, match="single"):
            split_strong_generalization(X, spec())

    def test_zero_heldout_users_rejected(self):
        X = preprocess(all_pairs(4, 4), spec())
        with pytest.raises(SplitError):
            split_strong_generalization(X, spec(heldout_user_fraction=0.1))

    def test_dead_items_dropped_globally(self):
        # Item "rare" is interacted with only by the two users that land in
        # validation/test under this seed, so it must vanish everywhere.
        raw = all_pairs(10, 6)
        X = preprocess(raw, spec())
        train, val, test = split_strong_generalization(X, spec(rng_seed=5))
        heldout_ids = set(val.foldin.user_ids) | set(test.foldin.user_ids)
        rare_owners = list(heldout_ids)[:2]
        raw2 = all_pairs(10, 6) + [RawInteraction(u, "rare") for u in rare_owners]
        X2 = preprocess(raw2, spec())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train2, val2, test2 = split_strong_generalization(X2, spec(rng_seed=5))
        assert "rare" not in train2.item_ids
        assert "rare" not in val2.foldin.item_ids
        assert train2.item_ids == train.item_ids

    def test_vocabularies_consistent(self):
        X = preprocess(all_pairs(10, 6), spec())
        train, val, test = split_strong_generalization(X, spec())
        assert train.item_ids == val.foldin.item_ids == test.targets.item_ids
        assert set(train.user_ids).isdisjoint(val.foldin.user_ids)
        assert set(val.foldin.user_ids).isdisjoint(test.foldin.user_ids)


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
        back = read_triplets(path, m.user_ids, m.item_ids)
        assert back == m

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n0 0\n")
        with pytest.raises(ParseError):
            read_triplets(p)

    def test_nnz_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 2\n0 0\n")
        with pytest.raises(ParseError):
            read_triplets(p)

    def test_save_load_split_round_trip(self, tmp_path):
        X = preprocess(all_pairs(10, 6), spec())
        train, val, test = split_strong_generalization(X, spec())
        save_split(tmp_path, train, val, test)
        train2, val2, test2 = load_split(tmp_path)
        assert train2 == train
        assert val2.foldin == val.foldin
        assert val2.targets == val.targets
        assert test2.foldin == test.foldin
