"""Linear-algebra kernels shared by all solvers.

Symmetric matrices are plain float64 ndarrays kept exactly symmetric by
construction (see :func:`symmetrize`); every routine here returns arrays
that satisfy ``a.T == a`` bit-for-bit where symmetry is promised.

Interactions enter only through the CSR arrays of an
:class:`~whiterec.ingest.InteractionMatrix`: their Grams are counted
(:func:`gram`), and every product of a binary CSR matrix with a dense
one, ranking's ``x @ B`` as well as ``X^T z``, is :func:`csr_matmul`.
The Cholesky and top-k eigen routines are scipy's LAPACK wrappers, bound
directly from its extension module (see :func:`_lapack`).
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, NotSPDError, NumericalError, SingularMatrixError
from .ingest import InteractionMatrix

# Dense arrays (Gram matrices, densified interactions, similarity matrices)
# larger than this many bytes are refused. The user-side Gram is |U| x |U|
# and real datasets have |U| >> |I|, so this cap is what keeps an accidental
# dual-form call from exhausting memory. ``cli.main`` sets it for one run.
GRAM_BYTE_CAP: ContextVar[int] = ContextVar("GRAM_BYTE_CAP", default=1 << 30)

# Pairs counted at once by the interaction Gram (see _pair_counts); a
# block holds about 20 bytes of index arrays per pair.
GRAM_BLOCK_PAIRS = 1 << 18

# Output bytes csr_matmul forms at once. A block small enough to stay in
# cache is three times faster than the whole X^T z at 2,500 items, and
# bounds the workspace beyond the result.
PRODUCT_BLOCK_BYTES = 1 << 20

# Eigenvalues below RANK_RTOL * largest are treated as zero rank.
RANK_RTOL = 1e-10

_SIGN_TOL = 1e-12


def check_capacity(rows: int, cols: int, what: str = "Gram matrix") -> None:
    """Raise CapacityError if a dense rows x cols float64 array exceeds the cap."""
    needed = rows * cols * 8
    cap = GRAM_BYTE_CAP.get()
    if needed > cap:
        raise CapacityError(
            f"{what} of shape {rows}x{cols} needs {needed} bytes, "
            f"exceeding the cap of {cap} bytes"
        )


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a.T) / 2, making near-symmetric products exactly symmetric."""
    return (a + a.T) / 2.0


@dataclass
class EigenDecomposition:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Columns of ``eigenvectors`` are orthonormal; the sign of each column is
    fixed so its first component above a small tolerance is positive, which
    makes repeated decompositions of the same matrix reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def gram(M, side: str = "items") -> np.ndarray:
    """Dense Gram matrix of a feature matrix whose columns are items.

    M is an InteractionMatrix, or a dense float64 array such as D x |I|
    item embeddings. side="items" returns M^T M (|I| x |I|); side="users"
    returns M M^T, the Gram of the rows (|U| x |U| for interactions, D x D
    for embeddings). This is the one place a Gram matrix is formed.
    Interactions are never densified: their Gram is X^T X or X X^T
    counted by :func:`_pair_counts`, exact integers, so it equals any
    exact sparse product bit for bit. Counting needs X's transpose; a
    caller that goes on to form X^T products calls
    :func:`_interaction_gram` with the one it made.
    """
    if isinstance(M, InteractionMatrix):
        return _interaction_gram(M, M.transpose(), side)
    m = np.asarray(M, dtype=np.float64)
    _check_gram(m.shape, side)
    # A dense A^T A pairs the same products in the same order for (i, j)
    # and (j, i) (BLAS syrk fills one triangle and copies it), so it is
    # already exactly symmetric.
    return m.T @ m if side == "items" else m @ m.T


def _interaction_gram(X: InteractionMatrix, t: InteractionMatrix, side: str) -> np.ndarray:
    """gram(X, side) counted with ``t = X.transpose()``."""
    _check_gram(X.shape, side)
    return _pair_counts(t, X) if side == "items" else _pair_counts(X, t)


def _check_gram(shape: tuple[int, int], side: str) -> None:
    if side not in ("items", "users"):
        raise ValueError(f"side must be 'items' or 'users', got {side!r}")
    dim = shape[1] if side == "items" else shape[0]
    check_capacity(dim, dim, f"{side}-side Gram matrix")


def _pair_counts(a: InteractionMatrix, b: InteractionMatrix) -> np.ndarray:
    """The dense product a @ b of binary matrices, a's columns being b's rows.

    Entry (r, c) of a meets each item j of b's row c once, and each such
    pair adds 1 to out[r, j]. Pairs are made for a block of a's entries
    at a time, GRAM_BLOCK_PAIRS at most unless one entry alone has more
    (an entry has at most b.n_items partners), and added in place by
    np.add.at, so the result is the only array of its size. Blocks follow
    a's rows, which keeps each block's additions in a band of out. The
    counts are integers, so their float64 sums are exact in any order.
    """
    n = b.n_items
    out = np.zeros((a.n_users, n))
    partners = np.diff(b.indptr)[a.indices]
    ends = np.cumsum(partners)
    row_start = a._entry_rows() * n
    start = 0
    while start < a.nnz:
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + GRAM_BLOCK_PAIRS, "right")))
        k = partners[start:stop]
        # Pair p of entry e is item (p - first pair of e) of b's row c(e).
        pos = np.repeat(b.indptr[a.indices[start:stop]] - (ends[start:stop] - k - done), k)
        pos += np.arange(ends[stop - 1] - done)
        keys = np.repeat(row_start[start:stop], k)
        keys += b.indices[pos]
        np.add.at(out.reshape(-1), keys, 1.0)
        start = stop
    return out


def csr_matmul(indptr: np.ndarray, indices: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ b`` for every binary CSR row x, bitwise as scipy computes it.

    Each row is summed from +0.0 over the rows of ``b`` its items select,
    in storage order. That is the order of scipy's ``csr_matvecs`` and,
    on the transposed CSR of X (each item's users ascending), of its CSC
    product ``X^T @ b``, so results match both bit for bit, signed zeros
    included. Rows are formed PRODUCT_BLOCK_BYTES of output at a time;
    within a block they are visited longest first, which makes the rows
    that still have an item at position p a prefix: one gather and add
    per position rather than per row. An overflow is left as inf for the
    caller's finiteness check.
    """
    # Rows of b are gathered, so they must be contiguous; a solver's
    # Fortran-order output would make each gather strided.
    b = np.ascontiguousarray(b)
    result = np.empty((len(indptr) - 1, b.shape[1]))
    step = max(1, PRODUCT_BLOCK_BYTES // (8 * max(b.shape[1], 1)))
    for first in range(0, len(result), step):
        block = indptr[first:first + step + 1]
        lengths = np.diff(block)
        order = np.argsort(-lengths, kind="stable")
        starts = block[:-1][order]
        # Rows holding more than p items, for p = 0 .. max length.
        counts = len(lengths) - np.cumsum(np.bincount(lengths))
        out = np.zeros((len(lengths), b.shape[1]))
        with np.errstate(over="ignore"):
            for p, c in enumerate(counts[:-1].tolist()):
                out[:c] += b[indices[starts[:c] + p]]
        result[first:first + len(lengths)][order] = out
    return result


def eigh(a: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    With k < n only the k largest eigenpairs are computed: LAPACK evr on
    an index subset, the call ``scipy.linalg.eigh(..., subset_by_index=...)``
    makes, through :func:`_lapack`. Otherwise, and for k=None, all n come
    from np.linalg.eigh. The descending order and the sign rule apply to
    the columns returned either way.
    """
    a = _square_finite(a)
    if a.size == 0:
        raise ValueError("matrix is empty (shape 0x0)")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # a is finite, so this is np.allclose(a, a.T, rtol=0, atol=...) without
    # its extra passes.
    if np.abs(a - a.T).max() > 1e-8 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    if k is None or k >= n:
        try:
            w, v = np.linalg.eigh(symmetrize(a))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    else:
        lapack = _lapack()
        lwork, liwork, info = lapack.dsyevr_lwork(n, lower=1)
        if info == 0:
            # The transpose of the exactly symmetric copy is the same matrix
            # in the Fortran order LAPACK works in, so it is not copied again.
            w, v, m, _, info = lapack.dsyevr(
                symmetrize(a).T, compute_v=1, range="I", il=n - k + 1, iu=n, lower=1,
                lwork=int(lwork), liwork=int(liwork), overwrite_a=1)
        if info != 0:
            raise NumericalError(f"eigendecomposition failed (LAPACK evr info {info})")
        w, v = w[:m], v[:, :m]
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # Sign rule: first component of each eigenvector above _SIGN_TOL is positive.
    first = (np.abs(v) > _SIGN_TOL).argmax(axis=0)
    signs = np.where(v[first, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    v *= signs
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _square_finite(a) -> np.ndarray:
    """a as a float64 array; ValueError unless it is square and finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded alone.

    Importing the ``scipy.linalg`` package around it costs 0.3-0.4 s,
    mostly in scipy's array-API layer, which imports ``numpy.f2py``,
    ``numpy.testing`` and ``numpy.ma``; ``import scipy`` and the extension
    take about 20 ms. Its routines are the very objects
    ``scipy.linalg.lapack`` exposes, so the results are the same bits.
    """
    import importlib.machinery
    import importlib.util

    import scipy

    directory = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            # Under the package's own name, scipy.linalg.lapack and this
            # module share one instance of the extension and its routines.
            name = "scipy.linalg._flapack"
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension _flapack in {directory} "
                      f"(scipy {scipy.__version__})")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric positive definite a: potrf on one
    Fortran-order copy, so a is not written. The strict upper triangle
    keeps entries of a. spd_solve and spd_inverse share this factorization.
    """
    a = _square_finite(a)
    # a is symmetric, so a C-ordered a is the Fortran-ordered array LAPACK
    # wants once transposed.
    work = np.array(a.T if a.flags.c_contiguous else a, order="F")
    factor, info = _lapack().dpotrf(work, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NotSPDError(f"matrix is not positive definite (LAPACK info {info})")
    return factor


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ z = b for symmetric positive definite a; neither is written."""
    b = np.asarray(b, dtype=np.float64)
    factor = _cholesky(a)
    if b.shape[:1] != factor.shape[:1]:
        raise ValueError(f"dimension mismatch: a is {factor.shape}, b is {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    z, info = _lapack().dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected argument {-info}")
    return z


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, exactly symmetric.

    potri overwrites the factor with the lower triangle of the inverse,
    which is then mirrored. a itself is not written.
    """
    factor, info = _lapack().dpotri(_cholesky(a), lower=1, overwrite_c=1)
    if info != 0:
        raise NotSPDError(f"matrix is not positive definite (LAPACK info {info})")
    # potri filled factor[i, j] for i >= j, so its C-ordered transpose holds
    # the inverse on and above the diagonal; mirror that below it.
    inv = factor.T
    for i in range(1, inv.shape[0]):
        inv[i, :i] = inv[:i, i]
    return inv


def inv_sqrt(a: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Symmetric inverse square root U (S + eps I)^{-1/2} U^T of a PSD matrix.

    Eigenvalues are clamped at zero before the eps shift so that tiny
    negative rounding noise from PSD inputs cannot poison the square root.
    With eps=0 the matrix must have full rank up to RANK_RTOL.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be >= 0 and finite, got {eps}")
    eig = eigh(a)
    w = np.maximum(eig.eigenvalues, 0.0)
    if eps == 0.0:
        tol = RANK_RTOL * w[0]
        if w[-1] <= tol:
            raise SingularMatrixError(
                f"matrix is rank deficient (smallest eigenvalue {w[-1]:.3e} <= "
                f"tolerance {tol:.3e}); pass eps > 0"
            )
    d = 1.0 / np.sqrt(w + eps)
    u = eig.eigenvectors
    return symmetrize((u * d) @ u.T)
