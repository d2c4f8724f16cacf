import tracemalloc

import numpy as np
import pytest

from whiterec import linalg
from whiterec.autoencoder import ease
from whiterec.embedding import (
    EmbeddingMatrix,
    embed_dot,
    embed_ease,
    embed_ridge,
    load_embeddings,
    save_embeddings,
    svd_embed,
)
from whiterec.errors import ParseError
from whiterec.ingest import InteractionMatrix
from whiterec.whitening import fit_zca, whiten

from conftest import random_interactions, traced_peak


def fro(a):
    return np.linalg.norm(a, "fro")


def psd_sqrt(a):
    """Eigendecomposition square root, the oracle for E^T E checks."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


class TestSvdEmbed:
    def test_hand_svd(self):
        # Binary stand-in for a matrix with singular values (3, 2): item 0
        # in 9 rows, item 1 in 4 others, so X^T X = diag(9, 4) and the top
        # triplet gives E = [sqrt(3), 0].
        rows = list(range(9)) + list(range(9, 13))
        cols = [0] * 9 + [1] * 4
        X = InteractionMatrix.from_pairs(rows, cols, 13, 2)
        e = svd_embed(X, 1)
        np.testing.assert_allclose(e.values, [[np.sqrt(3.0), 0.0]], atol=1e-12)
        np.testing.assert_allclose(e.singular_values, [3.0], atol=1e-12)

    def test_orthonormal_case(self):
        X = InteractionMatrix.from_dense(np.eye(3))
        e = svd_embed(X, 3)
        np.testing.assert_allclose(e.values.T @ e.values, np.eye(3), atol=1e-10)

    def test_gram_sqrt_oracle_full_rank(self, rng):
        X = random_interactions(rng, 8, 5)
        e = svd_embed(X, 5)
        expected = psd_sqrt(linalg.gram(X))
        np.testing.assert_allclose(e.values.T @ e.values, expected, atol=1e-8)

    def test_gram_sqrt_oracle_wide_matrix(self, rng):
        # |U| < |I| exercises the user-side Gram path.
        X = random_interactions(rng, 4, 7)
        e = svd_embed(X, 4)
        expected = psd_sqrt(linalg.gram(X))
        np.testing.assert_allclose(e.values.T @ e.values, expected, atol=1e-8)

    def test_singular_values_descending(self, rng):
        X = random_interactions(rng, 9, 6)
        e = svd_embed(X, 4)
        assert np.all(np.diff(e.singular_values) <= 1e-12)

    def test_rank_deficiency_warns_and_zeroes(self):
        dense = np.zeros((4, 4))
        dense[:, 0] = 1.0
        dense[:, 1] = 1.0
        dense[0, 2] = dense[0, 3] = 1.0  # rank 2
        X = InteractionMatrix.from_dense(dense)
        with pytest.warns(UserWarning, match="rank"):
            e = svd_embed(X, 4)
        np.testing.assert_allclose(e.values[2:], 0.0, atol=1e-12)

    def test_rank_deficiency_on_the_top_k_path(self):
        # d < |I| takes the top-k (MRRR) path; the rank check still holds.
        dense = np.zeros((5, 4))
        dense[:, 0] = dense[:, 1] = 1.0
        dense[0, 2] = dense[0, 3] = 1.0  # rank 2
        X = InteractionMatrix.from_dense(dense)
        with pytest.warns(UserWarning, match="numerical rank is 2"):
            e = svd_embed(X, 3)
        np.testing.assert_array_equal(e.values[2], 0.0)
        expected = psd_sqrt(linalg.gram(X))
        np.testing.assert_allclose(e.values.T @ e.values, expected, atol=1e-8)

    @pytest.mark.parametrize("shape, side", [((9, 6), (6, 6)), ((5, 8), (5, 5))])
    def test_asks_for_exactly_d_eigenpairs(self, rng, monkeypatch, shape, side):
        recorded = []
        real_eigh = linalg.eigh

        def spy(a, k=None):
            recorded.append((a.shape, k))
            return real_eigh(a, k)

        monkeypatch.setattr(linalg, "eigh", spy)
        e = svd_embed(random_interactions(rng, *shape), 3)
        assert recorded == [(side, 3)]
        assert e.values.shape == (3, shape[1])

    def test_peak_is_about_two_gram_sized_arrays(self):
        # The counted Gram is eigh's workspace, and dstemr's eigenvector
        # array is the other n x n one (scipy's wrapper makes it n x n for
        # any subset).
        X = random_interactions(np.random.default_rng(3), 2000, 1500, density=0.003)
        svd_embed(random_interactions(np.random.default_rng(3), 9, 5), 2)  # bind LAPACK first
        e, peak = traced_peak(svd_embed, X, 64)
        assert e.values.shape == (64, X.n_items)
        assert peak <= 2.3 * 8 * X.n_items ** 2

    def test_dim_bounds(self, rng):
        X = random_interactions(rng, 5, 3)
        with pytest.raises(ValueError):
            svd_embed(X, 0)
        with pytest.raises(ValueError):
            svd_embed(X, 4)


class TestEmbedDot:
    def test_identity(self):
        e = EmbeddingMatrix(np.eye(2))
        np.testing.assert_array_equal(embed_dot(e).values, np.eye(2))
        assert embed_dot(e).kind == "embed_dot"

    def test_outer_product_by_hand(self):
        e = EmbeddingMatrix(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(embed_dot(e).values, [[1.0, 2.0], [2.0, 4.0]])

    def test_symmetric_psd(self, rng):
        e = EmbeddingMatrix(rng.normal(size=(3, 7)))
        b = embed_dot(e).values
        assert np.array_equal(b, b.T)
        assert np.linalg.eigvalsh(b).min() >= -1e-10 * np.trace(b)


class TestEmbedRidge:
    def test_identity(self):
        e = EmbeddingMatrix(np.eye(2))
        np.testing.assert_allclose(embed_ridge(e, 1.0).values, 0.5 * np.eye(2),
                                   atol=1e-14)

    def test_primal_oracle(self, rng):
        e = EmbeddingMatrix(rng.normal(size=(3, 10)))
        lam = 1.0
        b = embed_ridge(e, lam).values
        g = e.values.T @ e.values
        primal = np.linalg.solve(g + lam * np.eye(10), g)
        assert fro(b - primal) <= 1e-8 * fro(primal)

    def test_whitening_oracle(self, rng):
        e = EmbeddingMatrix(rng.normal(size=(3, 10)))
        lam = 1.0
        w = whiten(fit_zca(e.values, lam), e.values)
        b = embed_ridge(e, lam).values
        assert fro(b - w.T @ w) <= 1e-8 * fro(b)

    def test_triple_equality(self, rng):
        for d, n_items in [(2, 8), (5, 20), (10, 40)]:
            e = EmbeddingMatrix(rng.normal(size=(d, n_items)))
            lam = 0.7
            dual = embed_ridge(e, lam).values
            g = e.values.T @ e.values
            primal = np.linalg.solve(g + lam * np.eye(n_items), g)
            w = whiten(fit_zca(e.values, lam), e.values)
            whitened = w.T @ w
            assert fro(dual - primal) <= 1e-8 * fro(primal)
            assert fro(dual - whitened) <= 1e-8 * fro(primal)

    def test_solve_dimension_is_embedding_dim(self, rng, monkeypatch):
        # Structural guarantee: the only linear solve is D x D, so nothing
        # |I| x |I| exists besides the returned matrix.
        recorded = []
        real_solve = linalg.spd_solve

        def spy(a, b):
            recorded.append((a.shape, b.shape))
            return real_solve(a, b)

        monkeypatch.setattr(linalg, "spd_solve", spy)
        e = EmbeddingMatrix(rng.normal(size=(4, 30)))
        embed_ridge(e, 1.0)
        assert recorded == [((4, 4), (4, 30))]

    def test_no_extra_item_sized_allocation(self, rng):
        d, n_items = 4, 1200
        e = EmbeddingMatrix(rng.normal(size=(d, n_items)))
        output_bytes = n_items * n_items * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            embed_ridge(e, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One |I| x |I| output plus small D-sized workspaces; a second
        # item-sized intermediate would roughly double the peak.
        assert peak - before < 1.5 * output_bytes

    def test_lambda_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            embed_ridge(EmbeddingMatrix(rng.normal(size=(2, 5))), 0.0)


class TestEmbedEase:
    def test_identity_gives_zero(self):
        e = EmbeddingMatrix(np.eye(2))
        np.testing.assert_allclose(embed_ease(e, 1.0).values, np.zeros((2, 2)),
                                   atol=1e-14)

    def test_gram_equivalence_with_interaction_ease(self):
        # E = [[sqrt(2), sqrt(2)]] has Gram [[2,2],[2,2]], the same as
        # X = [[1,1],[1,1]], so both EASE solutions coincide.
        e = EmbeddingMatrix(np.full((1, 2), np.sqrt(2.0)))
        b = embed_ease(e, 2.0).values
        X = InteractionMatrix.from_dense([[1, 1], [1, 1]])
        np.testing.assert_allclose(b, ease(X, 2.0).B.values, atol=1e-12)
        np.testing.assert_allclose(b, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_rank_one_hand_example(self):
        # Gram of E = [[1,1]] is [[1,1],[1,1]]; P = (1/8)[[3,-1],[-1,3]],
        # diag(P) = 3/8, so the off-diagonal of B is (1/8)/(3/8) = 1/3.
        e = EmbeddingMatrix(np.ones((1, 2)))
        np.testing.assert_allclose(embed_ease(e, 2.0).values,
                                   [[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]], atol=1e-12)

    def test_diag_exactly_zero(self, rng):
        e = EmbeddingMatrix(rng.normal(size=(4, 9)))
        assert np.all(np.diag(embed_ease(e, 0.5).values) == 0.0)

    def test_capacity_error(self, rng, byte_cap):
        byte_cap(8 * 8 * 8 - 1)
        e = EmbeddingMatrix(rng.normal(size=(2, 8)))
        from whiterec.errors import CapacityError
        with pytest.raises(CapacityError):
            embed_ease(e, 1.0)


class TestItemSimilarityCapacity:
    @pytest.mark.parametrize("build", [embed_dot, lambda e: embed_ridge(e, 1.0)],
                             ids=["embed_dot", "embed_ridge"])
    def test_capacity_error_on_item_similarity(self, rng, byte_cap, build):
        from whiterec.errors import CapacityError
        byte_cap(128)
        with pytest.raises(CapacityError):
            build(EmbeddingMatrix(rng.normal(size=(2, 50))))


class TestSpectrumProperty:
    def test_embed_dot_spectrum_matches_gram_sqrt(self, rng):
        X = random_interactions(rng, 9, 5)
        rank = np.linalg.matrix_rank(X.toarray())
        e = svd_embed(X, int(rank))
        got = np.sort(np.linalg.eigvalsh(embed_dot(e).values))[::-1]
        expected = np.sort(np.linalg.eigvalsh(psd_sqrt(linalg.gram(X))))[::-1]
        np.testing.assert_allclose(got[:rank], expected[:rank], atol=1e-8)


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        e = EmbeddingMatrix(rng.normal(size=(3, 5)), singular_values=None)
        items = [f"item-{i}" for i in range(5)]
        path = tmp_path / "emb.bin"
        save_embeddings(e, items, path)
        back, back_items = load_embeddings(path)
        np.testing.assert_array_equal(back.values, e.values)
        assert back_items == items

    def test_bit_exact_bytes(self, tmp_path, rng):
        e = EmbeddingMatrix(rng.normal(size=(2, 4)))
        items = ["a", "b", "c", "d"]
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        save_embeddings(e, items, p1)
        back, back_items = load_embeddings(p1)
        save_embeddings(back, back_items, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self, tmp_path, rng):
        e = EmbeddingMatrix(rng.normal(size=(2, 3)))
        path = tmp_path / "emb.bin"
        save_embeddings(e, ["x", "y", "z"], path)
        raw = path.read_bytes()
        assert raw[:8] == b"WREC-EMB"
        assert int.from_bytes(raw[8:12], "little") == 1
        assert int.from_bytes(raw[12:16], "little") == 2
        assert int.from_bytes(raw[16:20], "little") == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_truncated(self, tmp_path, rng):
        e = EmbeddingMatrix(rng.normal(size=(2, 3)))
        path = tmp_path / "emb.bin"
        save_embeddings(e, ["x", "y", "z"], path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError, match="truncated"):
            load_embeddings(path)

    def test_repeated_id_rejected(self, tmp_path, rng):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingMatrix(rng.normal(size=(2, 3))), ["x", "y", "x"], path)
        with pytest.raises(ParseError, match="vocabulary entry 3: id 'x' repeats vocabulary entry 1"):
            load_embeddings(path)

    def test_vocab_size_checked(self, rng, tmp_path):
        e = EmbeddingMatrix(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            save_embeddings(e, ["only", "two"], tmp_path / "emb.bin")
