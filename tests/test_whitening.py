import tracemalloc
import warnings

import numpy as np
import pytest

from whiterec import linalg
from whiterec.autoencoder import ridge, ridge_dual, ridge_primal
from whiterec.errors import CapacityError, SingularMatrixError
from whiterec.ingest import InteractionMatrix
from whiterec.whitening import fit_zca, whiten, zca_similarity

from conftest import LAMBDAS, random_interactions, scipy_csr


def fro(a):
    return np.linalg.norm(a, "fro")


class TestCovariance:
    """The raw covariance M M^T that fit_zca whitens is gram(M.T)."""

    def test_hand_raw(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(linalg.gram(m.T), 2.0 * np.eye(2))

    def test_psd(self, rng):
        m = rng.normal(size=(5, 9))
        c = linalg.gram(m.T)
        assert np.array_equal(c, c.T)
        evals = np.linalg.eigvalsh(c)
        assert evals.min() >= -1e-10 * max(evals.max(), 1.0)


class TestFitZca:
    def test_scalar_case(self):
        t = fit_zca(2.0 * np.eye(2), eps=0.0)
        np.testing.assert_allclose(t.P, 0.5 * np.eye(2), atol=1e-14)

    def test_whitens_full_rank_input(self):
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        t = fit_zca(m, eps=0.0)
        w = whiten(t, m)
        np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-10)

    def test_rank_deficient_needs_eps(self):
        m = np.ones((2, 2))
        with pytest.raises(SingularMatrixError):
            fit_zca(m, eps=0.0)
        t = fit_zca(m, eps=1.0)
        assert np.all(np.isfinite(t.P))

    def test_reconstructs_from_eig(self, rng):
        m = rng.normal(size=(6, 10))
        eps = 0.4
        t = fit_zca(m, eps)
        w, u = np.linalg.eigh(m @ m.T)
        rebuilt = (u / np.sqrt(w + eps)) @ u.T
        assert fro(t.P - rebuilt) < 1e-10

    def test_column_permutation_invariant(self, rng):
        m = rng.normal(size=(5, 12))
        t1 = fit_zca(m, eps=0.2)
        t2 = fit_zca(m[:, rng.permutation(12)], eps=0.2)
        np.testing.assert_allclose(t1.P, t2.P, atol=1e-10)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            fit_zca(np.eye(2), eps=-0.5)

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_zca(np.eye(2), eps=np.nan)


class TestWhiten:
    def test_hand_case(self):
        t = fit_zca(2.0 * np.eye(2), eps=0.0)
        np.testing.assert_allclose(whiten(t, 2.0 * np.eye(2)), np.eye(2), atol=1e-14)

    def test_raw_covariance_becomes_identity(self, rng):
        m = rng.normal(size=(6, 20))
        t = fit_zca(m, eps=0.0)
        w = whiten(t, m)
        np.testing.assert_allclose(w @ w.T, np.eye(6), atol=1e-8)

    def test_eigenvalue_oracle_with_eps(self, rng):
        m = rng.normal(size=(5, 11))
        eps = 0.8
        sigma = linalg.eigh(m @ m.T).eigenvalues
        w = whiten(fit_zca(m, eps), m)
        got = np.sort(np.linalg.eigvalsh(w @ w.T))[::-1]
        np.testing.assert_allclose(got, sigma / (sigma + eps), atol=1e-8)

    def test_dimension_mismatch(self, rng):
        t = fit_zca(rng.normal(size=(4, 6)), eps=0.1)
        with pytest.raises(ValueError):
            whiten(t, rng.normal(size=(5, 6)))


class TestZcaSimilarity:
    def test_identity_data(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        b = zca_similarity(X, eps=1.0)
        np.testing.assert_allclose(b.values, 0.5 * np.eye(2), atol=1e-12)
        assert b.kind == "zca"

    def test_matches_ridge_primal(self, rng):
        X = random_interactions(rng, 6, 4)
        z = zca_similarity(X, eps=1.0).values
        p = ridge_primal(X, 1.0).values
        assert fro(z - p) <= 1e-8 * fro(p)

    def test_matches_ridge_dual(self, rng):
        X = random_interactions(rng, 6, 4)
        z = zca_similarity(X, eps=1.0).values
        d = ridge_dual(X, 1.0).values
        assert fro(z - d) <= 1e-8 * fro(d)

    def test_identity_chain_both_aspect_ratios(self, rng):
        for shape in [(8, 5), (5, 8), (6, 6)]:
            for eps in (0.1, 1.0, 10.0):
                X = random_interactions(rng, *shape)
                z = zca_similarity(X, eps).values
                p = ridge_primal(X, eps).values
                d = ridge_dual(X, eps).values
                assert fro(z - p) <= 1e-8 * fro(p)
                assert fro(z - d) <= 1e-8 * fro(p)

    def test_wide_matches_the_gram_of_scaled_s_v_t(self, rng):
        # From X X^T, W^T W is also the Gram of U^T X = S V^T scaled by
        # 1 / sqrt(sigma^2 + eps), with no division by sigma.
        X = random_interactions(rng, 6, 9, density=0.5)
        eig = linalg.eigh(linalg.gram(X.T))
        rows = (scipy_csr(X).T @ eig.eigenvectors).T / np.sqrt(eig.eigenvalues + 2.0)[:, None]
        expected = rows.T @ rows
        got = zca_similarity(X, 2.0).values
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_eps_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            zca_similarity(random_interactions(rng, 4, 4), 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_eps_must_be_finite(self, rng, eps):
        with pytest.raises(ValueError, match="finite"):
            zca_similarity(random_interactions(rng, 4, 4), eps)

    @pytest.mark.parametrize("shape", [(12, 7), (7, 12)])
    def test_rank_deficient_input(self, rng, shape):
        # Repeated columns and an empty row: zero singular values on both
        # sides, which the whitening must shrink without a warning.
        dense = (rng.random(shape) < 0.4).astype(np.float64)
        dense[:, 1] = dense[:, -1] = dense[:, 0]
        dense[2] = 0.0
        assert np.linalg.matrix_rank(dense) < min(shape)
        X = InteractionMatrix.from_dense(dense)
        for eps in LAMBDAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                z = zca_similarity(X, eps).values
            p = ridge_primal(X, eps).values
            d = ridge_dual(X, eps).values
            assert fro(z - p) <= 1e-8 * fro(p)
            assert fro(z - d) <= 1e-8 * fro(p)

    def test_capacity_error(self, rng, byte_cap):
        # Only the |I| x |I| result is dense: a cap below the 10 x 10 user
        # covariance still trains, and one below the 3 x 3 result does not.
        X = random_interactions(rng, 10, 3)
        byte_cap(10 * 10 * 8 - 1)
        p = ridge(X, 1.0).values
        assert fro(zca_similarity(X, 1.0).values - p) <= 1e-8 * fro(p)
        byte_cap(3 * 3 * 8 - 1)
        with pytest.raises(CapacityError):
            zca_similarity(X, 1.0)

    def test_peak_is_about_three_item_sized_arrays(self):
        # More users than items: the |U| x |U| covariance alone would be 9
        # item-sized arrays, the dense X 3.
        rng = np.random.default_rng(3)
        X = InteractionMatrix.from_dense((rng.random((3000, 1000)) < 0.01).astype(np.float64))
        zca_similarity(random_interactions(rng, 8, 5), 1.0)
        item_sized = X.n_items * X.n_items * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            zca_similarity(X, 200.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 3.5 * item_sized

    def test_capacity_error_on_dense_interactions(self, rng, byte_cap):
        X = random_interactions(rng, 4, 50)
        byte_cap(128)
        with pytest.raises(CapacityError):
            zca_similarity(X, 1.0)
