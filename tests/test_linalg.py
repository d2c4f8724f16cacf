import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiterec import linalg
from whiterec.autoencoder import _shifted, whitened_gram
from whiterec.embedding import EmbeddingMatrix, embed_ease, embed_ridge, svd_embed
from whiterec.errors import CapacityError, NotSPDError, NumericalError, SingularMatrixError
from whiterec.ingest import InteractionMatrix
from whiterec.whitening import fit_zca

from conftest import (KERNEL_VALUES, bitwise_equal, random_interactions, reconstruct,
                      scipy_csr, traced_peak)


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
        np.testing.assert_array_equal(linalg.gram(X), [[2, 1], [1, 2]])

    def test_identity(self):
        X = InteractionMatrix.from_dense(np.eye(2))
        np.testing.assert_array_equal(linalg.gram(X), np.eye(2))

    def test_users_side(self):
        X = InteractionMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
        dense = X.toarray()
        np.testing.assert_array_equal(linalg.gram(X.T), dense @ dense.T)

    def test_matches_naive_oracle(self, rng):
        X = random_interactions(rng, 6, 4)
        np.testing.assert_array_equal(linalg.gram(X),
                                      naive_gram_items(X.toarray()))

    def test_exactly_symmetric_and_psd(self, rng):
        for _ in range(5):
            X = random_interactions(rng, 9, 6)
            g = linalg.gram(X)
            assert np.array_equal(g, g.T)
            evals = np.linalg.eigvalsh(g)
            assert evals.min() >= -1e-10 * np.trace(g)

    def test_dense_features_exactly_symmetric(self, rng):
        base = rng.normal(size=(7, 24))
        for m in (base, np.asfortranarray(base), base[:, ::2], base[::2, :]):
            for gram_of, expected in ((m, m.T @ m), (m.T, m @ m.T)):
                g = linalg.gram(gram_of)
                assert np.array_equal(g, g.T)
                np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12)

    def test_capacity_error(self, rng, byte_cap):
        byte_cap(100)
        X = random_interactions(rng, 12, 8)
        with pytest.raises(CapacityError, match="8 x 8 Gram of a 12 x 8 matrix"):
            linalg.gram(X)
        with pytest.raises(CapacityError, match="12 x 12 Gram of a 8 x 12 matrix"):
            linalg.gram(X.T)


def uniform_interactions(n_users, n_items, per_user, seed=0):
    """Each user holds per_user distinct items drawn uniformly."""
    gen = np.random.default_rng(seed)
    items = np.concatenate([gen.choice(n_items, per_user, replace=False)
                            for _ in range(n_users)])
    return InteractionMatrix.from_pairs(np.repeat(np.arange(n_users), per_user), items,
                                        n_users, n_items)


class TestGramWorkspace:
    """Beside its result, counting a Gram holds one PRODUCT_BLOCK_BYTES block
    of pair indices and a few index arrays over X's entries (tracemalloc)."""

    def test_peak_at_a_thousand_items(self):
        X = uniform_interactions(4400, 1000, 9)
        _, peak = traced_peak(linalg.gram, X)
        # 1.30 n^2 bytes; blocks of 2^18 pairs (356k pairs here) read 1.95.
        assert peak <= 1.4 * 8 * X.n_items ** 2

    @pytest.mark.parametrize("n_items", [500, 1000, 2000])
    def test_scratch_is_one_block_whatever_the_items(self, n_items):
        X = uniform_interactions(4400, n_items, 9)
        g, peak = traced_peak(linalg.gram, X)
        # One block of pair indices, and about 1.4 MB of int64 arrays over
        # X's 39,600 entries (the kept transpose, the partner counts, their
        # running sums and each entry's row offset): 2.4 MB whatever the
        # items, and 7.6 MB with blocks of 2^18 pairs.
        assert peak - g.nbytes <= 3 * linalg.PRODUCT_BLOCK_BYTES


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
    @given(X=interactions(), pairs=st.sampled_from([1, 2, 5, 13, None]))
    def test_gram_matches_scipy(self, X, pairs):
        a = scipy_csr(X)
        with pytest.MonkeyPatch.context() as mp:
            if pairs:  # else one block of the default size
                mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 16 * pairs)  # 16 bytes a pair
            items, users = linalg.gram(X), linalg.gram(X.T)
        assert bitwise_equal(items, (a.T @ a).toarray())
        assert bitwise_equal(users, (a @ a.T).toarray())

    def test_gram_in_many_blocks_with_a_heavy_row(self, rng, monkeypatch):
        dense = rng.random((40, 30)) < rng.random(30) * 0.4
        dense[7] = True
        X = InteractionMatrix.from_dense(dense)
        a = scipy_csr(X)
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 16 * 13)  # 13 pairs a block
        assert bitwise_equal(linalg.gram(X), (a.T @ a).toarray())
        assert bitwise_equal(linalg.gram(X.T), (a @ a.T).toarray())

    def test_empty_matrix_gram_is_zero(self):
        X = InteractionMatrix.from_pairs([], [], 3, 4)
        assert bitwise_equal(linalg.gram(X), np.zeros((4, 4)))
        assert bitwise_equal(linalg.gram(X.T), np.zeros((3, 3)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(X=interactions(), seed=st.integers(0, 10**6), cols=st.integers(1, 4),
           block_rows=st.sampled_from([1, 2, 3, None]), fortran=st.booleans())
    def test_transpose_product_matches_scipy(self, X, seed, cols, block_rows, fortran):
        z = np.random.default_rng(seed).choice(KERNEL_VALUES, size=(X.n_users, cols))
        z = np.asfortranarray(z) if fortran else z
        t = X.T
        with pytest.MonkeyPatch.context() as mp:
            if block_rows:
                mp.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * cols * block_rows)
            got = linalg.csr_matmul(t.indptr, t.indices, z)
        assert bitwise_equal(got, scipy_csr(X).T @ z)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_b_raises(self, index):
        indptr, indices = np.array([0, 1, 2]), np.array([0, index])
        with pytest.raises(IndexError, match="outside the 3 rows of b"):
            linalg.csr_matmul(indptr, indices, np.ones((3, 2)))

    def test_whitened_gram_matches_scipy_product(self, rng):
        X = random_interactions(rng, 6, 9)
        z = linalg.spd_solve(_shifted(linalg.gram(X.T), 2.0), X.toarray())
        assert bitwise_equal(whitened_gram(X, 2.0), scipy_csr(X).T @ z)

    def test_users_side_paths_transpose_x_once(self, rng, monkeypatch):
        X = random_interactions(rng, 6, 9, density=0.5)
        t = X.T
        z = linalg.spd_solve(_shifted(linalg.gram(X.T), 2.0), X.toarray())
        ridge = linalg.csr_matmul(t.indptr, t.indices, z)
        eig = linalg.eigh(linalg.gram(X.T), k=3)
        sigma = np.sqrt(eig.eigenvalues)[:, np.newaxis]
        embedding = linalg.csr_matmul(t.indptr, t.indices, eig.eigenvectors).T / sigma
        embedding *= np.sqrt(sigma)
        # Count the transposes made, on a copy of X with none made yet: the
        # dual Gram counts from Y.T and Y.T.T, which is Y, so one argsort runs.
        made = []
        make = InteractionMatrix.__dict__["T"].func
        spy = functools.cached_property(lambda m: made.append(m) or make(m))
        spy.__set_name__(InteractionMatrix, "T")
        monkeypatch.setattr(InteractionMatrix, "T", spy)
        Y = InteractionMatrix((X.indptr, X.indices, X.shape), X.user_ids, X.item_ids)
        assert bitwise_equal(whitened_gram(Y, 2.0), ridge)
        assert bitwise_equal(svd_embed(Y, 3).values, embedding)
        assert len(made) == 1 and made[0] is Y and Y.T.T is Y

    def test_users_side_svd_embed_matches_scipy_product(self, rng):
        # E = S^{1/2} V^T, with V^T = S^{-1} U^T X from X X^T's eigenpairs.
        X = random_interactions(rng, 6, 9, density=0.5)
        eig = linalg.eigh(linalg.gram(X.T), k=3)
        sigma = np.sqrt(eig.eigenvalues)[:, np.newaxis]
        product = (scipy_csr(X).T @ eig.eigenvectors).T
        got = svd_embed(X, 3).values
        assert bitwise_equal(got, product / sigma * np.sqrt(sigma))
        # U^T X scaled once by sigma^{-1/2} rounds differently, by < 1e-12.
        once = product / np.sqrt(sigma)
        assert np.abs(got - once).max() <= 1e-12 * np.abs(once).max()


class TestSymmetrizeInPlace:
    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_bits_of_symmetrize_over_row_panels(self, rng, monkeypatch, block_rows):
        n = 7
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * n * block_rows)
        a = rng.normal(size=(n, n))
        a[2, 5] = a[5, 2]  # a pair already equal
        a[1, 4], a[4, 1] = -0.0, 0.0  # and one equal only in value
        a[0, 6] = 4.0
        expected = linalg.symmetrize(a)
        asymmetry, magnitude = linalg.symmetrize_in_place(b := a.copy())
        assert bitwise_equal(b, expected)
        assert asymmetry == np.abs(a - a.T).max() and magnitude == np.abs(a).max()


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
    """eigh(a, k): the k largest eigenpairs by dsytrd, dstemr (MRRR) and dormqr."""

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

    def test_works_in_its_input(self, rng):
        # dsytrd reduces a C-ordered a in place: its diagonal becomes the
        # tridiagonal one, whose sum is still the trace.
        a = linalg.symmetrize(rng.normal(size=(8, 8)))
        kept = a.copy()
        linalg.eigh(a, k=2)
        assert not np.array_equal(np.diag(a), np.diag(kept))
        assert np.trace(a) == pytest.approx(np.trace(kept), abs=1e-12)

    @staticmethod
    def assert_top_pairs(a, k, expected):
        """Eigenvalues within 1e-12 of the largest, orthonormal columns and
        residual within 1e-10 on the top-k path, which works in a copy of a."""
        scale = np.abs(expected).max()
        eig = linalg.eigh(a.copy(), k)
        v = eig.eigenvectors
        np.testing.assert_allclose(eig.eigenvalues, expected[:k], rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(v.T @ v, np.eye(k), rtol=0.0, atol=1e-10)
        residual = a @ v - v * eig.eigenvalues
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_equal_eigenvalues_straddling_the_cut(self, rng, k):
        # Eigenvalues 9, 7 and four times 5: every k here cuts the cluster
        # or ends right after it.
        n = 20
        values = np.concatenate([[9.0, 7.0], np.full(4, 5.0), np.linspace(3.0, 0.5, n - 6)])
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        self.assert_top_pairs(linalg.symmetrize((q * values) @ q.T), k, values)

    @pytest.mark.parametrize("k", [4, 7, 10])
    def test_rank_deficient_interactions(self, rng, k):
        # Repeated and empty columns, repeated rows and an empty row: the
        # 12-item Gram has rank 6, so k = 7 and 10 cut into its six zeros.
        base = (rng.random((12, 6)) < 0.5).astype(np.float64)
        base[np.arange(6), np.arange(6)] = 1.0
        dense = np.hstack([base, base[:, :4], np.zeros((12, 2))])[:, rng.permutation(12)]
        dense = np.vstack([dense, dense[:3], np.zeros((1, 12))])
        g = linalg.gram(InteractionMatrix.from_dense(dense))
        self.assert_top_pairs(g, k, np.linalg.eigvalsh(g)[::-1])


class TestSpectrum:
    """spectrum(X, k): X's top k sigma^2 and V_k^T, from the smaller Gram."""

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
    def test_full_rank_rebuilds_the_gram(self, rng, shape):
        # X^T X = V S^2 V^T, whichever Gram was factored.
        X = random_interactions(rng, *shape)
        k = min(shape)
        sq, rows = linalg.spectrum(X, k)
        assert rows.shape == (k, shape[1])
        singular = np.linalg.svd(X.toarray(), compute_uv=False)
        np.testing.assert_allclose(sq, singular ** 2, rtol=0.0, atol=1e-10 * sq[0])
        assert sq[-1] > linalg.RANK_RTOL * sq[0]
        np.testing.assert_allclose(rows @ rows.T, np.eye(k), rtol=0.0, atol=1e-10)
        g = linalg.gram(X)
        np.testing.assert_allclose((rows.T * sq) @ rows, g, rtol=0.0, atol=1e-10 * g.max())

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
    def test_rank_one_clamps_at_zero(self, shape):
        sq, rows = linalg.spectrum(InteractionMatrix.from_dense(np.ones(shape)), 3)
        assert sq[0] == pytest.approx(12.0) and np.all(sq[1:] >= 0.0)
        assert np.all(sq[1:] <= 1e-12)
        np.testing.assert_allclose(rows[0], np.full(shape[1], shape[1] ** -0.5), rtol=1e-12)
        if shape[0] >= shape[1]:
            # X^T X has an orthonormal basis for X's null space too.
            np.testing.assert_allclose(rows @ rows.T, np.eye(3), rtol=0.0, atol=1e-12)
        else:
            # X X^T knows no direction of V for sigma = 0: those rows are zero.
            assert bitwise_equal(rows[1:], np.zeros((2, shape[1])))


class TestLapackBinding:
    """_lapack(): scipy's LAPACK extension, bound without scipy.linalg."""

    @pytest.mark.parametrize("name", ["dpotrf", "dpotrs", "dpotri", "dsytrd", "dstemr",
                                      "dormqr"])
    def test_routines_are_scipys(self, name):
        import scipy.linalg.lapack

        assert getattr(linalg._lapack(), name) is getattr(scipy.linalg.lapack, name)

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_tridiagonal_step_bitwise_equal_to_stemr(self, rng, n):
        # On a tridiagonal matrix dsytrd's reflectors are the identity, so
        # eigh's top k are dstemr's, as scipy's eigh_tridiagonal returns them.
        import scipy.linalg

        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        for k in sorted({1, n // 2, n - 1}):
            w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(n - k, n - 1),
                                                 lapack_driver="stemr")
            w, v = w[::-1], v[:, ::-1]
            first = (np.abs(v) > linalg._SIGN_TOL).argmax(axis=0)
            v = v * np.where(v[first, np.arange(k)] < 0.0, -1.0, 1.0)
            eig = linalg.eigh(t, k)
            assert bitwise_equal(eig.eigenvalues, w)
            assert np.array_equal(eig.eigenvectors, v)

    @pytest.mark.parametrize("routine", ["dsytrd", "dstemr", "dormqr"])
    def test_lapack_failure_is_numerical_error(self, rng, monkeypatch, routine):
        real = linalg._lapack()

        def failing(*args, **kwargs):
            *out, _ = getattr(real, routine)(*args, **kwargs)
            return (*out, 3)

        class Failing:
            def __getattr__(self, name):
                return failing if name == routine else getattr(real, name)

        monkeypatch.setattr(linalg, "_lapack", Failing)
        with pytest.raises(NumericalError, match=f"{routine} info 3"):
            linalg.eigh(linalg.symmetrize(rng.normal(size=(6, 6))), 2)

    def test_missing_extension_is_import_error(self, tmp_path, monkeypatch):
        import scipy

        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        monkeypatch.setattr(scipy.__spec__, "submodule_search_locations",
                            [str(tmp_path / "scipy")])
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
        z = linalg.spd_solve(a.copy(), b)
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
        expected = cho_solve(cho_factor(a, lower=True), b)
        got = linalg.spd_solve(a, b)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        assert not np.shares_memory(got, a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factor_shares_a(self, rng, order):
        # A C-ordered a is factored as its Fortran-ordered transpose.
        a = np.array(self.ridge_system(rng, n=20)[0], order=order)
        assert np.shares_memory(linalg._cholesky(a), a)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_fortran_b_is_the_solution(self, rng, k):
        # A vector and a single column are Fortran-ordered too.
        a, b = self.ridge_system(rng, n=20, k=k)
        b = np.asfortranarray(b)
        expected = np.linalg.solve(a, b)
        assert linalg.spd_solve(a, b) is b
        np.testing.assert_allclose(b, expected, rtol=1e-12, atol=0.0)

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
        inv = linalg.spd_inverse(a.copy())
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
    def test_works_in_its_input(self, rng, order):
        # a is the factor's workspace and, as it is symmetric, holds the
        # inverse in either order.
        a = np.array(self.spd(rng, 12), order=order)
        expected = linalg.spd_inverse(a.copy())
        inv = linalg.spd_inverse(a)
        assert np.shares_memory(inv, a)
        assert np.array_equal(a, expected) and np.array_equal(inv, expected)

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


class TestCallerArraysNotWritten:
    """The solvers work in what they are handed, so whatever production hands
    them from a caller is a copy: these inputs stay bitwise unchanged."""

    CALLS = {
        "embed_ridge": lambda e: embed_ridge(EmbeddingMatrix(e), 2.0),
        "embed_ease": lambda e: embed_ease(EmbeddingMatrix(e), 2.0),
        "whitened_gram": lambda e: whitened_gram(e, 2.0),
        "fit_zca": lambda e: fit_zca(e, 0.5),
    }

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_embeddings(self, rng, call, order):
        # svd_embed's items-side E is Fortran-ordered, the order dpotrs
        # would solve in without the copy.
        e = svd_embed(random_interactions(rng, 12, 7), 4).values
        assert e.flags.f_contiguous
        e = np.array(e, order=order)
        kept = e.copy()
        self.CALLS[call](e)
        assert bitwise_equal(e, kept)

    def test_inv_sqrt(self, rng):
        # Within eigh's symmetry tolerance but not exactly symmetric, so
        # symmetrizing it in place would show.
        b = rng.normal(size=(5, 8))
        a = b @ b.T
        a[0, 1] += 1e-12
        kept = a.copy()
        linalg.inv_sqrt(a, 0.1)
        assert bitwise_equal(a, kept)
