import functools
from fractions import Fraction

import numpy as np
import pytest

from whiterec import linalg
from whiterec.autoencoder import (ease, ease_decompose, ridge, ridge_dual, ridge_primal,
                                  whitened_gram)
from whiterec.cli import KINDS, PipelineConfig, train_similarity
from whiterec.errors import CapacityError, NumericalError
from whiterec.ingest import InteractionMatrix
from whiterec.whitening import zca_similarity

from conftest import bitwise_equal, random_interactions, reconstruction_objective, traced_peak


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
        sigma = linalg.eigh(linalg.gram(X)).eigenvalues
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
        g = linalg.gram(X)
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
        g = linalg.gram(X)
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
        self.assert_one_item_sized_array(rng.normal(size=(4, 1200)))  # wide

    def test_tall_route_has_the_same_workspace(self, rng):
        self.assert_one_item_sized_array(rng.normal(size=(1250, 1200)))

    @staticmethod
    def assert_one_item_sized_array(e):
        n_items = e.shape[1]
        ease(e[:, :5], 1.0)  # bind the LAPACK extension outside the traced window
        sol, peak = traced_peak(ease, e, 1.0)
        # B is returned, so one |I| x |I| array must exist. Tall M shifts,
        # factors and inverts its Gram in place; wide M turns the whitened
        # Gram into P_hat in place. Either then divides and negates P_hat
        # into B in the same array, so a second item-sized intermediate
        # would push the peak to 2x.
        assert sol.B.dim == n_items
        assert peak < 1.3 * n_items * n_items * 8


def exact_ease(m, lam):
    """EASE's B for the exact values of float m and lam, in rational arithmetic."""
    rows, n = m.shape
    f = [[Fraction(float(v)) for v in row] for row in m]
    # Gauss-Jordan on [M^T M + lam I | I]; the left block is SPD, so no pivoting.
    a = [[sum(f[k][i] * f[k][j] for k in range(rows)) + Fraction(lam) * (i == j)
          for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    p = [row[n:] for row in a]
    return np.array([[0.0 if i == j else float(-p[i][j] / p[j][j]) for j in range(n)]
                     for i in range(n)])


# Wide feature matrices, and the relative Frobenius error of EASE's B they
# must meet against exact_ease for every lam in TestEaseRoutes.LAMBDAS.
WIDE_CASES = {
    "E 3x6": (np.random.default_rng(18).normal(size=(3, 6)), 1e-12),
    "E 4x8": (np.random.default_rng(19).normal(size=(4, 8)), 1e-12),
    "X 4x9, rows 0 and 3 equal": (InteractionMatrix.from_dense([
        [0, 1, 1, 0, 0, 0, 0, 0, 1],
        [0, 1, 1, 0, 1, 1, 1, 1, 0],
        [1, 0, 1, 0, 0, 0, 0, 1, 1],
        [0, 1, 1, 0, 0, 0, 0, 0, 1]]), 1e-12),
    # Row 1 holds item 5 alone, so e_5 lies in the row space: W_55 -> 1 as
    # lam -> 0 and 1 - W_55 cancels. At lam = 1e-6 this route loses 8.1e-12
    # here, and inverting the item Gram 8.6e-11.
    "X 3x7, rows 0 and 2 equal, item 5 explained": (InteractionMatrix.from_dense([
        [1, 0, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [1, 0, 1, 1, 1, 1, 0]]), 1e-11),
}


class TestEaseRoutes:
    """ease inverts the smaller Gram: wide M goes through the Woodbury identity."""

    LAMBDAS = [1.0, 1e-2, 1e-4, 1e-6]

    @pytest.mark.parametrize("case", WIDE_CASES)
    def test_wide_matches_exact_reference(self, case):
        # The item Gram of a wide M is rank-deficient, so inverting it loses
        # 1e-10 or more of B by lam = 1e-6 on every case here.
        m, bound = WIDE_CASES[case]
        dense = m.toarray() if isinstance(m, InteractionMatrix) else m
        for lam in self.LAMBDAS:
            expected = exact_ease(dense, lam)
            assert fro(ease(m, lam).B.values - expected) <= bound * fro(expected), lam

    def test_tall_and_square_keep_the_item_inverse(self):
        rng = np.random.default_rng(19)
        tall = (rng.random((9, 4)) < 0.5).astype(np.float64)
        tall[5] = tall[0]
        cases = [rng.normal(size=(5, 5)), rng.normal(size=(7, 4)),
                 InteractionMatrix.from_dense(tall)]
        for m in cases:
            for lam in self.LAMBDAS:
                shifted = linalg.gram(m)
                shifted[np.diag_indices_from(shifted)] += lam
                p_hat = linalg.spd_inverse(shifted)
                d = np.diag(p_hat)
                b = 0.0 - p_hat / d
                np.fill_diagonal(b, 0.0)
                sol = ease(m, lam)
                assert bitwise_equal(sol.B.values, b) and np.array_equal(sol.d, d)
                # p_hat is rebuilt from B and d: each entry within two roundings.
                np.testing.assert_allclose(sol.p_hat, p_hat, rtol=5e-16, atol=0.0)

    @pytest.mark.parametrize("dense", [True, False], ids=["E", "X"])
    @pytest.mark.parametrize("shape, calls", [
        ((4, 9), [(4, 4)]),
        ((9, 4), [(4, 4), "inverse"]),
        ((5, 5), [(5, 5), "inverse"]),
    ], ids=["wide", "tall", "square"])
    def test_inverts_the_smaller_gram(self, rng, monkeypatch, dense, shape, calls):
        seen = []
        gram, spd_inverse = linalg.gram, linalg.spd_inverse

        def spy_gram(M):
            g = gram(M)
            seen.append(g.shape)
            return g

        monkeypatch.setattr(linalg, "gram", spy_gram)
        monkeypatch.setattr(linalg, "spd_inverse",
                            lambda a: seen.append("inverse") or spd_inverse(a))
        ease(rng.normal(size=shape) if dense else random_interactions(rng, *shape), 1.0)
        assert seen == calls


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


@functools.cache
def _route_interactions(wide: bool) -> InteractionMatrix:
    """A random wide 1,000 x 1,500 or tall 3,000 x 1,000 X, with its
    transposed CSR made and LAPACK bound, so neither shows in a traced peak."""
    linalg._lapack()
    shape, density = ((1000, 1500), 0.006) if wide else ((3000, 1000), 0.01)
    X = random_interactions(np.random.default_rng(3), *shape, density=density)
    X.T
    return X


class TestTrainingPeaks:
    """tracemalloc peaks of the interaction solvers, in n^2 bytes of float64
    (one |I| x |I| array), on a sparse tall X whose Gram counting needs
    little beside the Gram."""

    @pytest.mark.parametrize("solve, ceiling", [(ease, 1.1), (ridge_primal, 2.1)],
                             ids=["ease", "ridge_primal"])
    def test_peak(self, solve, ceiling):
        X = random_interactions(np.random.default_rng(3), 2000, 1500, density=0.003)
        solve(random_interactions(np.random.default_rng(3), 9, 5), 1.0)  # bind LAPACK first
        # ease works in its Gram alone; ridge_primal in the Gram and one
        # shifted copy, which it factors.
        _, peak = traced_peak(solve, X, 1.0)
        assert peak <= ceiling * 8 * X.n_items ** 2

    @pytest.mark.parametrize("solve", [ease, ridge], ids=["ease", "ridge"])
    def test_dual_route_peak_is_the_counted_one(self, solve):
        # |U| < |I|: whitened_gram counts the |I| x |I| result, one |U| x |I|
        # array and the |U| x |U| factor. The product step holds them, the second
        # as csr_matmul's C-ordered copy of the solution, beside its two
        # blocks and their int64 index arrays, under 64 bytes a block row.
        X = random_interactions(np.random.default_rng(3), 1000, 1500, density=0.006)
        # A first call binds LAPACK and keeps X's transposed CSR, an input
        # like X itself; numpy's first blocked pass also caches a few KB.
        solve(X, 200.0)
        _, peak = traced_peak(solve, X, 200.0)
        users, items = X.shape
        counted = 8 * (items * items + users * items + users * users)
        blocks = 2 * linalg.PRODUCT_BLOCK_BYTES
        assert peak <= counted + blocks + 64 * linalg.product_rows(items)

    def test_zca_wide_route_peak(self):
        # |U| < |I|: spectrum's |U| x |I| rows, divided by sigma and scaled
        # in place, and the |I| x |I| Gram of them.
        X = random_interactions(np.random.default_rng(3), 1000, 1500, density=0.006)
        zca_similarity(X, 200.0)  # bind LAPACK and keep X's transposed CSR
        _, peak = traced_peak(zca_similarity, X, 200.0)
        assert peak <= 1.7 * 8 * X.n_items ** 2 + 2 * linalg.PRODUCT_BLOCK_BYTES

    @pytest.mark.parametrize("kind, wide", [pytest.param(kind, wide, id=kind + "-wide" * wide)
                                            for wide in (False, True) for kind in sorted(KINDS)])
    def test_route_count_covers_its_traced_peak(self, tmp_path, counted, kind, wide):
        # The largest count of a train run, against its traced peak: beside
        # what is counted, the Gram's pair blocks and per-entry arrays (24
        # bytes an entry) and csr_matmul's two blocks. Tall counts are as
        # they were when train counted every kind itself; on the wide X zca
        # and the embedding step (D = 256) count only what their routes hold.
        X = _route_interactions(wide)
        d = 256 if KINDS[kind].uses_embedding_dim else None
        config = PipelineConfig(kind=kind, lam=200.0, embedding_dim=d, output_dir=str(tmp_path))
        _, peak = traced_peak(train_similarity, config, X)
        n2 = 8 * X.n_items ** 2
        count = max(counted)
        assert count >= peak - 2 * linalg.PRODUCT_BLOCK_BYTES - 24 * X.nnz
        if not wide:
            tall = {"ridge": 2 * n2, "ease": n2, "zca": 3 * n2}
            assert count == (2 * n2 + 16 * d * X.n_items if d else tall[kind])
        elif kind == "zca":
            assert count <= 1.7 * n2
        elif d:
            assert count <= 1.4 * n2

    def test_embed_dot_step_holds_no_factor(self, tmp_path, byte_cap):
        # embed_dot holds E beside its Gram, and no Fortran copy of E or
        # D x D factor: under a cap of (|I| + D)|I| it trains, within the
        # allowance of the test above.
        X = _route_interactions(True)
        d = 256
        count = 8 * (X.n_items + d) * X.n_items
        byte_cap(count)
        config = PipelineConfig(kind="embed_dot", embedding_dim=d, output_dir=str(tmp_path))
        sim, peak = traced_peak(train_similarity, config, X)
        assert sim.dim == X.n_items
        assert peak <= count + 2 * linalg.PRODUCT_BLOCK_BYTES + 24 * X.nnz

    def test_dual_route_solves_in_its_own_temporaries(self, monkeypatch):
        # Before the product, whitened_gram holds the shifted |U| x |U| Gram,
        # factored in place, and X densified in Fortran order, solved in
        # place: no copy of either.
        X = random_interactions(np.random.default_rng(3), 1000, 1500, density=0.006)
        whitened_gram(X, 200.0)
        monkeypatch.setattr(linalg, "csr_matmul", lambda indptr, indices, z: z)
        _, peak = traced_peak(whitened_gram, X, 200.0)
        users, items = X.shape
        assert peak <= 8 * (users * users + users * items) + linalg.PRODUCT_BLOCK_BYTES
