import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiterec import linalg
from whiterec.autoencoder import _shifted, whitened_gram
from whiterec.embedding import svd_embed
from whiterec.errors import CapacityError, NotSPDError, NumericalError, SingularMatrixError
from whiterec.ingest import InteractionMatrix

from conftest import (KERNEL_VALUES, bitwise_equal, random_interactions, reconstruct,
                      scipy_csr)


def naive_gram_items(dense):
    """Triple-loop X^T X, the independent oracle for gram()."""
    n_users, n_items = dense.shape
    out = np.zeros((n_items, n_items))
    for i in range(n_items):
        for j in range(n_items):
            for u in range(n_users):
                out[i, j] += dense[u, i] * dense[u, j]
    return out


class TestGram:
    def test_hand_example_items(self):
        X = InteractionMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
        np.testing.assert_array_equal(linalg.gram(X, "items"), [[2, 1], [1, 2]])

    def test_identity(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        np.testing.assert_array_equal(linalg.gram(X, "items"), np.eye(2))

    def test_users_side(self):
        X = InteractionMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
        dense = X.toarray()
        np.testing.assert_array_equal(linalg.gram(X, "users"), dense @ dense.T)

    def test_matches_naive_oracle(self, rng):
        X = random_interactions(rng, 6, 4)
        np.testing.assert_array_equal(linalg.gram(X, "items"),
                                      naive_gram_items(X.toarray()))

    def test_exactly_symmetric_and_psd(self, rng):
        for _ in range(5):
            X = random_interactions(rng, 9, 6)
            g = linalg.gram(X, "items")
            assert np.array_equal(g, g.T)
            evals = np.linalg.eigvalsh(g)
            assert evals.min() >= -1e-10 * np.trace(g)

    def test_dense_features_exactly_symmetric(self, rng):
        base = rng.normal(size=(7, 24))
        for m in (base, np.asfortranarray(base), base[:, ::2], base[::2, :]):
            for side, expected in (("items", m.T @ m), ("users", m @ m.T)):
                g = linalg.gram(m, side)
                assert np.array_equal(g, g.T)
                np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12)

    def test_capacity_error(self, rng, byte_cap):
        byte_cap(100)
        X = random_interactions(rng, 8, 8)
        with pytest.raises(CapacityError):
            linalg.gram(X, "items")

    def test_bad_side(self, rng):
        with pytest.raises(ValueError):
            linalg.gram(random_interactions(rng, 3, 3), "rows")


@st.composite
def interactions(draw):
    """Up to 7 x 7, either side may be 0, empty rows and columns likely,
    and sometimes one heavy row holding every item."""
    n_users, n_items = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    pairs = []
    if n_users and n_items:
        pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                        st.integers(0, n_items - 1)), max_size=20))
        if draw(st.booleans()):
            heavy = draw(st.integers(0, n_users - 1))
            pairs += [(heavy, j) for j in range(n_items)]
    return InteractionMatrix.from_pairs([u for u, _ in pairs], [j for _, j in pairs],
                                        n_users, n_items)


class TestInteractionKernels:
    """The Gram and X^T z from the CSR arrays equal scipy's sparse products
    bit for bit (scipy is the oracle only)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(X=interactions(), budget=st.sampled_from([1, 2, 5, linalg.GRAM_BLOCK_PAIRS]))
    def test_gram_matches_scipy(self, X, budget):
        a = scipy_csr(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "GRAM_BLOCK_PAIRS", budget)
            items, users = linalg.gram(X, "items"), linalg.gram(X, "users")
        assert bitwise_equal(items, (a.T @ a).toarray())
        assert bitwise_equal(users, (a @ a.T).toarray())

    def test_gram_in_many_blocks_with_a_heavy_row(self, rng, monkeypatch):
        dense = rng.random((40, 30)) < rng.random(30) * 0.4
        dense[7] = True
        X = InteractionMatrix.from_dense(dense)
        a = scipy_csr(X)
        monkeypatch.setattr(linalg, "GRAM_BLOCK_PAIRS", 13)
        assert bitwise_equal(linalg.gram(X, "items"), (a.T @ a).toarray())
        assert bitwise_equal(linalg.gram(X, "users"), (a @ a.T).toarray())

    def test_empty_matrix_gram_is_zero(self):
        X = InteractionMatrix.from_pairs([], [], 3, 4)
        assert bitwise_equal(linalg.gram(X, "items"), np.zeros((4, 4)))
        assert bitwise_equal(linalg.gram(X, "users"), np.zeros((3, 3)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(X=interactions(), seed=st.integers(0, 10**6), cols=st.integers(1, 4),
           block_rows=st.sampled_from([1, 2, 3, None]), fortran=st.booleans())
    def test_transpose_product_matches_scipy(self, X, seed, cols, block_rows, fortran):
        z = np.random.default_rng(seed).choice(KERNEL_VALUES, size=(X.n_users, cols))
        z = np.asfortranarray(z) if fortran else z
        t = X.transpose()
        with pytest.MonkeyPatch.context() as mp:
            if block_rows:
                mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * cols * block_rows)
            got = linalg.csr_matmul(t.indptr, t.indices, z)
        assert bitwise_equal(got, scipy_csr(X).T @ z)

    def test_whitened_gram_matches_scipy_product(self, rng):
        X = random_interactions(rng, 6, 9)
        z = linalg.spd_solve(_shifted(linalg.gram(X, "users"), 2.0), X.toarray())
        assert bitwise_equal(whitened_gram(X, 2.0), scipy_csr(X).T @ z)

    def test_users_side_paths_transpose_x_once(self, rng, monkeypatch):
        X = random_interactions(rng, 6, 9, density=0.5)
        t = X.transpose()
        z = linalg.spd_solve(_shifted(linalg.gram(X, "users"), 2.0), X.toarray())
        ridge = linalg.csr_matmul(t.indptr, t.indices, z)
        eig = linalg.eigh(linalg.gram(X, "users"), k=3)
        scale = 1.0 / np.sqrt(np.sqrt(eig.eigenvalues))
        embedding = scale[:, np.newaxis] * linalg.csr_matmul(t.indptr, t.indices,
                                                             eig.eigenvectors).T
        calls = []
        transpose = InteractionMatrix.transpose
        monkeypatch.setattr(InteractionMatrix, "transpose",
                            lambda m: calls.append(m) or transpose(m))
        assert bitwise_equal(whitened_gram(X, 2.0), ridge)
        assert len(calls) == 1
        assert bitwise_equal(svd_embed(X, 3).values, embedding)
        assert len(calls) == 2

    def test_users_side_svd_embed_matches_scipy_product(self, rng):
        X = random_interactions(rng, 6, 9, density=0.5)
        eig = linalg.eigh(linalg.gram(X, "users"), k=3)
        scale = 1.0 / np.sqrt(np.sqrt(eig.eigenvalues))
        expected = scale[:, np.newaxis] * (scipy_csr(X).T @ eig.eigenvectors).T
        assert bitwise_equal(svd_embed(X, 3).values, expected)


class TestEigh:
    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            linalg.eigh(np.zeros((0, 0)))

    def test_diagonal_input(self):
        eig = linalg.eigh(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(eig.eigenvectors, np.eye(2))

    def test_two_by_two_hand_eigenvalues(self):
        # det([[2-t, 1], [1, 2-t]]) = 0  =>  t in {3, 1}
        eig = linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_reconstruction(self, rng):
        a = linalg.symmetrize(rng.normal(size=(8, 8)))
        eig = linalg.eigh(a)
        err = np.linalg.norm(reconstruct(eig) - a) / np.linalg.norm(a)
        assert err < 1e-10

    def test_orthonormal_columns(self, rng):
        a = linalg.symmetrize(rng.normal(size=(10, 10)))
        u = linalg.eigh(a).eigenvectors
        np.testing.assert_allclose(u.T @ u, np.eye(10), atol=1e-10)

    def test_sign_rule(self, rng):
        a = linalg.symmetrize(rng.normal(size=(7, 7)))
        u = linalg.eigh(a).eigenvectors
        for j in range(7):
            col = u[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_reproducible(self, rng):
        a = linalg.symmetrize(rng.normal(size=(6, 6)))
        e1 = linalg.eigh(a)
        e2 = linalg.eigh(a.copy())
        np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)
        np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_eigenvalues_sorted_descending(self, seed):
        a = linalg.symmetrize(np.random.default_rng(seed).normal(size=(5, 5)))
        w = linalg.eigh(a).eigenvalues
        assert np.all(np.diff(w) <= 0)


class TestEighTopK:
    """eigh(a, k): the k largest eigenpairs from the evr subset path."""

    @staticmethod
    def separated(rng, n):
        # Eigenvalues n, n-1, ..., 1: gaps of 1, so each eigenvector is
        # determined up to sign and comparable across solvers.
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return linalg.symmetrize((q * np.arange(n, 0, -1.0)) @ q.T)

    @pytest.mark.parametrize("k", [1, 3, 11])
    def test_eigenvalues_match_full(self, rng, k):
        b = rng.normal(size=(12, 20))
        a = linalg.symmetrize(b @ b.T)
        full = linalg.eigh(a)
        top = linalg.eigh(a, k=k)
        assert top.eigenvalues.shape == (k,) and top.eigenvectors.shape == (12, k)
        np.testing.assert_allclose(top.eigenvalues, full.eigenvalues[:k], rtol=0.0,
                                   atol=1e-12 * full.eigenvalues[0])

    def test_eigenvectors_match_full_after_sign_rule(self, rng):
        a = self.separated(rng, 15)
        full = linalg.eigh(a)
        top = linalg.eigh(a, k=6)
        np.testing.assert_allclose(top.eigenvectors, full.eigenvectors[:, :6], atol=1e-10)
        for j in range(6):
            col = top.eigenvectors[:, j]
            assert col[np.abs(col) > 1e-12][0] > 0

    def test_none_and_k_at_least_n_are_the_full_result(self, rng):
        a = linalg.symmetrize(rng.normal(size=(9, 9)))
        full = linalg.eigh(a)
        w, v = np.linalg.eigh(linalg.symmetrize(a))
        np.testing.assert_array_equal(full.eigenvalues, w[::-1])
        np.testing.assert_array_equal(np.abs(full.eigenvectors), np.abs(v[:, ::-1]))
        for k in (9, 50):
            eig = linalg.eigh(a, k=k)
            np.testing.assert_array_equal(eig.eigenvalues, full.eigenvalues)
            np.testing.assert_array_equal(eig.eigenvectors, full.eigenvectors)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            linalg.eigh(np.eye(3), k=k)

    def test_rejects_asymmetric(self):
        a = np.eye(3)
        a[0, 2] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.eigh(a, k=1)

    def test_caller_array_not_written(self, rng):
        a = linalg.symmetrize(rng.normal(size=(8, 8)))
        kept = a.copy()
        linalg.eigh(a, k=2)
        np.testing.assert_array_equal(a, kept)


class TestLapackBinding:
    """_lapack(): scipy's LAPACK extension, bound without scipy.linalg."""

    @pytest.mark.parametrize("name", ["dpotrf", "dpotrs", "dpotri", "dsyevr"])
    def test_routines_are_scipys(self, name):
        import scipy.linalg.lapack

        assert getattr(linalg._lapack(), name) is getattr(scipy.linalg.lapack, name)

    @pytest.mark.parametrize("rank", [None, 5])
    def test_top_k_bitwise_equal_to_scipy_eigh(self, rng, rank):
        import scipy.linalg

        n = 12
        b = rng.normal(size=(n if rank is None else rank, n))
        a = linalg.symmetrize(b.T @ b)
        for k in (1, n // 2, n - 1):
            w, v = scipy.linalg.eigh(linalg.symmetrize(a).T, subset_by_index=[n - k, n - 1])
            w, v = w[::-1], v[:, ::-1]
            first = (np.abs(v) > linalg._SIGN_TOL).argmax(axis=0)
            v = v * np.where(v[first, np.arange(k)] < 0.0, -1.0, 1.0)
            eig = linalg.eigh(a, k)
            assert bitwise_equal(eig.eigenvalues, w)
            assert bitwise_equal(eig.eigenvectors, v)

    def test_evr_failure_is_numerical_error(self, rng, monkeypatch):
        real = linalg._lapack()
        n, k = 6, 2

        class Failing:
            dsyevr_lwork = real.dsyevr_lwork

            @staticmethod
            def dsyevr(a, **kwargs):
                return np.zeros(n), np.zeros((n, k)), 0, np.zeros(0, np.int32), 3

        monkeypatch.setattr(linalg, "_lapack", Failing)
        with pytest.raises(NumericalError, match="evr info 3"):
            linalg.eigh(linalg.symmetrize(rng.normal(size=(n, n))), k)

    def test_missing_extension_is_import_error(self, tmp_path, monkeypatch):
        import scipy

        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        with pytest.raises(ImportError) as info:
            linalg._lapack.__wrapped__()
        assert str(tmp_path / "scipy" / "linalg") in str(info.value)
        assert f"scipy {scipy.__version__}" in str(info.value)


class TestSpdSolve:
    def test_scaled_identity(self):
        z = linalg.spd_solve(2.0 * np.eye(2), np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(z, [[1.0], [2.0]])

    def test_two_by_two_inverse_by_hand(self):
        # inv([[4,2],[2,4]]) = (1/12) [[4,-2],[-2,4]]
        z = linalg.spd_solve(np.array([[4.0, 2.0], [2.0, 4.0]]), np.eye(2))
        np.testing.assert_allclose(z, np.array([[4.0, -2.0], [-2.0, 4.0]]) / 12.0,
                                   atol=1e-14)

    def test_residual(self, rng):
        q = np.linalg.qr(rng.normal(size=(10, 10)))[0]
        a = linalg.symmetrize(q @ np.diag(rng.uniform(0.5, 5.0, size=10)) @ q.T)
        b = rng.normal(size=(10, 3))
        z = linalg.spd_solve(a, b)
        assert np.linalg.norm(a @ z - b) / np.linalg.norm(b) < 1e-10

    def test_not_spd(self):
        with pytest.raises(NotSPDError):
            linalg.spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    @staticmethod
    def ridge_system(rng, n=150, k=4):
        """G + lam I, and G itself (k=None), a vector (k=0) or k columns."""
        g = linalg.gram(random_interactions(rng, 3 * n, n, density=0.1))
        b = g if k is None else rng.normal(size=(n, k) if k else n)
        return g + 7.0 * np.eye(n), b

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [None, 0, 1, 4])
    def test_bitwise_equal_to_cho_solve(self, rng, order, k):
        # scipy is the oracle only: spd_solve runs potrf/potrs itself.
        from scipy.linalg import cho_factor, cho_solve

        a, b = (np.array(m, order=order) for m in self.ridge_system(rng, k=k))
        kept = a.copy(), b.copy()
        expected = cho_solve(cho_factor(a, lower=True), b)
        got = linalg.spd_solve(a, b)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])
        assert not np.shares_memory(got, a) and not np.shares_memory(got, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.spd_solve(np.array([[bad, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            linalg.spd_solve(np.eye(2), np.array([1.0, bad]))

    @pytest.mark.parametrize("a, b", [(np.eye(2), np.ones(3)), (np.eye(2), np.ones((3, 2))),
                                      (np.eye(2), np.float64(1.0)), (np.ones((2, 3)), np.ones(2)),
                                      (np.ones(4), np.ones(4))])
    def test_mismatched_shapes_rejected(self, a, b):
        with pytest.raises(ValueError):
            linalg.spd_solve(a, b)


class TestSpdInverse:
    @staticmethod
    def spd(rng, n):
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return linalg.symmetrize((q * rng.uniform(0.5, 5.0, size=n)) @ q.T)

    def test_two_by_two_by_hand(self):
        inv = linalg.spd_inverse(np.array([[4.0, 2.0], [2.0, 4.0]]))
        np.testing.assert_allclose(inv, np.array([[4.0, -2.0], [-2.0, 4.0]]) / 12.0,
                                   atol=1e-15)

    def test_exactly_symmetric_inverse(self, rng):
        a = self.spd(rng, 40)
        inv = linalg.spd_inverse(a)
        assert np.array_equal(inv, inv.T)
        np.testing.assert_allclose(inv @ a, np.eye(40), atol=1e-10)

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
        np.zeros((3, 3)),
    ])
    def test_not_spd(self, a):
        with pytest.raises(NotSPDError):
            linalg.spd_inverse(a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_array_not_written(self, rng, order):
        a = np.array(self.spd(rng, 12), order=order)
        kept = a.copy()
        inv = linalg.spd_inverse(a)
        np.testing.assert_array_equal(a, kept)
        assert not np.shares_memory(inv, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # Raw potrf is not relied on to notice a NaN on the diagonal.
        with pytest.raises(ValueError, match="non-finite"):
            linalg.spd_inverse(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.spd_inverse(np.ones((2, 3)))


class TestInvSqrt:
    def test_scalar_case(self):
        np.testing.assert_allclose(linalg.inv_sqrt(4.0 * np.eye(2)), 0.5 * np.eye(2))

    def test_diagonal_with_eps(self):
        m = linalg.inv_sqrt(np.diag([3.0, 1.0]), eps=1.0)
        np.testing.assert_allclose(m, np.diag([0.5, 1.0 / np.sqrt(2.0)]), atol=1e-14)

    def test_defining_identity(self, rng):
        for eps in (0.0, 0.5, 2.0):
            b = rng.normal(size=(6, 9))
            a = linalg.symmetrize(b @ b.T)
            m = linalg.inv_sqrt(a, eps)
            np.testing.assert_allclose(m @ (a + eps * np.eye(6)) @ m, np.eye(6),
                                       atol=1e-8)

    def test_singularity_error(self):
        rank1 = np.ones((2, 2))
        with pytest.raises(SingularMatrixError):
            linalg.inv_sqrt(rank1, eps=0.0)
        assert np.all(np.isfinite(linalg.inv_sqrt(rank1, eps=1.0)))

    def test_commutes_with_input(self, rng):
        b = rng.normal(size=(7, 12))
        a = linalg.symmetrize(b @ b.T)
        m = linalg.inv_sqrt(a, eps=0.3)
        err = np.linalg.norm(m @ a - a @ m)
        assert err < 1e-8 * np.linalg.norm(a)

    def test_result_exactly_symmetric(self, rng):
        b = rng.normal(size=(5, 8))
        m = linalg.inv_sqrt(linalg.symmetrize(b @ b.T), eps=0.1)
        assert np.array_equal(m, m.T)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            linalg.inv_sqrt(np.eye(2), eps=-1.0)
