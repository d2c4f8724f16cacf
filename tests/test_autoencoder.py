import tracemalloc

import numpy as np
import pytest

from whiterec import linalg
from whiterec.autoencoder import ease, ease_decompose, ridge, ridge_dual, ridge_primal
from whiterec.errors import CapacityError, NumericalError
from whiterec.ingest import InteractionMatrix

from conftest import random_interactions, reconstruction_objective


def fro(a):
    return np.linalg.norm(a, "fro")


class TestRidgePrimal:
    @pytest.mark.parametrize("solve", [ridge_primal, ridge_dual, ridge])
    def test_lambda_must_be_positive(self, rng, solve):
        X = random_interactions(rng, 3, 3)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="lam must be > 0"):
                solve(X, lam)

    def test_identity_data(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        b = ridge_primal(X, 1.0)
        np.testing.assert_allclose(b.values, 0.5 * np.eye(2), atol=1e-14)
        assert b.kind == "ridge"

    def test_all_ones_hand_example(self):
        # G = [[2,2],[2,2]], (G+2I)^[-1] = (1/12)[[4,-2],[-2,4]],
        # B = (1/12)[[4,-2],[-2,4]] @ [[2,2],[2,2]] = (1/3) ones
        X = InteractionMatrix.from_dense([[1, 1], [1, 1]])
        b = ridge_primal(X, 2.0)
        np.testing.assert_allclose(b.values, np.full((2, 2), 1.0 / 3.0), atol=1e-14)

    def test_eigenvalue_oracle(self, rng):
        X = random_interactions(rng, 7, 4)
        lam = 1.5
        b = ridge_primal(X, lam)
        sigma = linalg.eigh(linalg.gram(X, "items")).eigenvalues
        expected = np.sort(sigma / (sigma + lam))[::-1]
        got = np.sort(np.linalg.eigvalsh(b.values))[::-1]
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_eigenvalues_in_unit_interval(self, rng):
        for _ in range(5):
            X = random_interactions(rng, 8, 5)
            b = ridge_primal(X, 0.5)
            evals = np.linalg.eigvalsh(b.values)
            assert evals.min() >= -1e-10
            assert evals.max() < 1.0

    def test_symmetric(self, rng):
        X = random_interactions(rng, 9, 6)
        b = ridge_primal(X, 1.0).values
        assert np.array_equal(b, b.T)


class TestRidgeDual:
    def test_identity_data(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        b = ridge_dual(X, 1.0)
        np.testing.assert_allclose(b.values, 0.5 * np.eye(2), atol=1e-14)

    def test_equals_primal_tall(self, rng):
        X = random_interactions(rng, 5, 3)
        p = ridge_primal(X, 1.0).values
        d = ridge_dual(X, 1.0).values
        assert fro(p - d) <= 1e-8 * fro(p)

    def test_equals_primal_wide(self, rng):
        X = random_interactions(rng, 3, 5)
        p = ridge_primal(X, 1.0).values
        d = ridge_dual(X, 1.0).values
        assert fro(p - d) <= 1e-8 * fro(p)

    def test_metadata_matches_primal_except_form(self, rng):
        X = random_interactions(rng, 4, 4)
        p = ridge_primal(X, 2.0)
        d = ridge_dual(X, 2.0)
        assert p.kind == d.kind == "ridge"
        assert p.config["lambda"] == d.config["lambda"]
        assert (p.config["form"], d.config["form"]) == ("primal", "dual")

    def test_capacity_error_on_large_user_gram(self, rng, byte_cap):
        X = random_interactions(rng, 10, 3)
        byte_cap(10 * 10 * 8 - 1)
        with pytest.raises(CapacityError):
            ridge_dual(X, 1.0)
        ridge_primal(X, 1.0)  # item Gram is 3x3, still fine

    def test_capacity_error_on_dense_interactions(self, rng, byte_cap):
        # The 4x4 user Gram fits in 128 bytes; the dense 4x50 X and the
        # 50x50 result do not.
        X = random_interactions(rng, 4, 50)
        byte_cap(128)
        with pytest.raises(CapacityError):
            ridge(X, 1.0)


class TestRidgeDispatch:
    def test_auto_picks_smaller_gram(self, rng):
        tall = random_interactions(rng, 8, 4)
        wide = random_interactions(rng, 4, 8)
        assert ridge(tall, 1.0).config["form"] == "primal"
        assert ridge(wide, 1.0).config["form"] == "dual"



class TestRidgeLimits:
    def test_shrinks_to_zero_as_lambda_grows(self, rng):
        X = random_interactions(rng, 8, 5)
        g = linalg.gram(X, "items")
        b = ridge_primal(X, 1e6).values
        assert fro(b) <= fro(g) / 1e6 + 1e-15
        assert fro(b) < 1e-3

    def test_eigenvalues_approach_one_as_lambda_vanishes(self, rng):
        # Full column rank X: B(lambda -> 0) tends to the identity on the
        # column space, so every eigenvalue tends to 1.
        while True:
            X = random_interactions(rng, 10, 4)
            if np.linalg.matrix_rank(X.toarray()) == 4:
                break
        b = ridge_primal(X, 1e-10).values
        np.testing.assert_allclose(np.linalg.eigvalsh(b), np.ones(4), atol=1e-6)

    def test_objective_beats_identity_and_zero(self, rng):
        X = random_interactions(rng, 8, 5)
        lam = 2.0
        b_hat = ridge_primal(X, lam).values
        at_hat = reconstruction_objective(X, b_hat, lam)
        at_identity = reconstruction_objective(X, np.eye(5), lam)
        at_zero = reconstruction_objective(X, np.zeros((5, 5)), lam)
        assert at_hat < at_identity
        assert at_hat < at_zero


class TestEase:
    def test_identity_data_gives_zero(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        sol = ease(X, 1.0)
        np.testing.assert_allclose(sol.B.values, np.zeros((2, 2)), atol=1e-14)

    def test_hand_example(self):
        # G+2I = [[4,2],[2,4]], P = (1/12)[[4,-2],[-2,4]], diag(P) = 1/3,
        # B = I - P/diag = [[0, 1/2], [1/2, 0]], alpha = 3 - 2 = 1.
        X = InteractionMatrix.from_dense([[1, 1], [1, 1]])
        sol = ease(X, 2.0)
        np.testing.assert_allclose(sol.B.values, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        np.testing.assert_allclose(sol.alpha, [1.0, 1.0], atol=1e-12)

    def test_diag_exactly_zero(self, rng):
        X = random_interactions(rng, 8, 5)
        sol = ease(X, 0.7)
        assert np.all(np.diag(sol.B.values) == 0.0)

    def test_alpha_invariant(self, rng):
        X = random_interactions(rng, 8, 5)
        lam = 1.3
        sol = ease(X, lam)
        np.testing.assert_allclose(sol.alpha, 1.0 / np.diag(sol.p_hat) - lam,
                                   atol=1e-12)

    def test_lagrangian_form_oracle(self, rng):
        # B must equal (G + lam I)^{-1} (G - diagMat(alpha)) as well.
        X = random_interactions(rng, 8, 5)
        lam = 2.5
        sol = ease(X, lam)
        g = linalg.gram(X, "items")
        other = np.linalg.solve(g + lam * np.eye(5), g - np.diag(sol.alpha))
        assert fro(sol.B.values - other) < 1e-10

    def test_lambda_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            ease(random_interactions(rng, 3, 3), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_lambda_must_be_finite(self, rng, lam):
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            ease(random_interactions(rng, 3, 3), lam)

    def test_nan_inverse_diagonal_rejected(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "spd_inverse", lambda a: np.full_like(a, np.nan))
        with pytest.raises(NumericalError, match="NaN"):
            ease(random_interactions(rng, 4, 3), 1.0)

    def test_inverse_is_the_only_item_sized_workspace(self, rng):
        n_items = 1200
        e = rng.normal(size=(4, n_items))
        ease(e[:, :5], 1.0)  # bind the LAPACK extension outside the traced window
        output_bytes = n_items * n_items * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sol = ease(e, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # B and P_hat are returned, so two |I| x |I| arrays must exist; the
        # Gram is dropped once shifted, and the shifted copy once inverted,
        # so a third item-sized intermediate would push the peak to 3x.
        assert sol.B.dim == sol.p_hat.shape[0] == n_items
        assert peak - before < 2.5 * output_bytes


class TestEaseDecompose:
    def test_identity_data(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        sol = ease(X, 1.0)
        w, d = ease_decompose(sol)
        np.testing.assert_allclose(w.values, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(d, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(w.values - d, np.zeros((2, 2)), atol=1e-14)

    def test_hand_example(self):
        # Whitening term is the ridge solution (1/3) ones; the diagonal term
        # is P diagMat(alpha) = (1/12)[[4,-2],[-2,4]] with alpha = 1.
        X = InteractionMatrix.from_dense([[1, 1], [1, 1]])
        sol = ease(X, 2.0)
        w, d = ease_decompose(sol)
        np.testing.assert_allclose(w.values, np.full((2, 2), 1.0 / 3.0), atol=1e-12)
        np.testing.assert_allclose(d, [[1.0 / 3.0, -1.0 / 6.0],
                                       [-1.0 / 6.0, 1.0 / 3.0]], atol=1e-12)

    def test_reconstruction_residual(self, rng):
        X = random_interactions(rng, 8, 5)
        lam = 1.7
        sol = ease(X, lam)
        w, d = ease_decompose(sol)
        assert fro(sol.B.values - (w.values - d)) < 1e-10

    def test_whitening_term_is_ridge_solution(self, rng):
        X = random_interactions(rng, 9, 4)
        lam = 0.9
        sol = ease(X, lam)
        w, _ = ease_decompose(sol)
        b = ridge_primal(X, lam).values
        assert fro(w.values - b) < 1e-12


class TestPrimalDualSweep:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 200.0])
    def test_equivalence_across_shapes(self, lam, rng):
        for shape in [(6, 3), (3, 6), (5, 5), (12, 4), (4, 12)]:
            X = random_interactions(rng, *shape)
            p = ridge_primal(X, lam).values
            d = ridge_dual(X, lam).values
            assert fro(p - d) <= 1e-8 * fro(p)
