"""Linear-algebra kernels shared by all solvers.

Symmetric matrices are plain float64 ndarrays kept exactly symmetric by
construction (see :func:`symmetrize`); every routine here returns arrays
that satisfy ``a.T == a`` bit-for-bit where symmetry is promised.

:func:`gram` forms M^T M and nothing else: the primal Gram of X is
``gram(X)``, the dual one ``gram(X.T)``, for an interaction matrix as for
a dense array. Interactions enter only through the CSR arrays of an
:class:`~whiterec.ingest.InteractionMatrix` and of its kept transpose
``X.T``: their Grams are counted, and every product of a binary CSR
matrix with a dense one, ranking's ``x @ B`` as well as ``X^T z``, is
:func:`csr_matmul`.
The Cholesky and top-k eigen routines are scipy's LAPACK wrappers, bound
directly from its extension module (see :func:`_lapack`). Every solver
works in the arrays it is handed, as LAPACK does, and a caller that needs
one afterwards passes a copy: a Gram matrix is the workspace of its own
factorization. Checks of such arrays run a row panel at a time
(:func:`all_finite`, :func:`symmetrize_in_place`), with no temporary of
their size.
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

# The bytes of dense arrays one training route, or one ranking pass, may
# hold at once. Each solver checks its whole route against it at entry,
# before it allocates (check_capacity), and gram checks its own result;
# ranking checks its workspace (recommend). The dual Gram, gram(X.T), is
# |U| x |U| and real datasets have |U| >> |I|, so this cap is what keeps an
# accidental dual-form call from exhausting memory. ``cli.main`` sets it
# for one run.
GRAM_BYTE_CAP: ContextVar[int] = ContextVar("GRAM_BYTE_CAP", default=1 << 30)

# The working set of every blocked pass here: the output block csr_matmul
# forms at once, and so the scores ranking holds at once
# (recommend.ranked_blocks); the row panel of the checks that pass over a
# whole array (all_finite, symmetrize_in_place); and the pairs the
# interaction Gram counts at once (_pair_counts), whose index arrays take
# 16 bytes a pair (tracemalloc reads 16-18 with the block's per-entry
# arrays). A block small enough to stay in cache is three times faster
# than the whole X^T z at 2,500 items, and bounds the workspace beyond the
# result; larger score blocks are no faster and raise peak memory. Pair
# blocks of 2^18 pairs set a 1,000-item ease's training peak at 1.97
# Gram-sized arrays, where blocks of this size give 1.31. Ranking's whole
# workspace is 27 bytes per score entry (recommend._Workspace), 3.4 MiB
# per pass at this size, and evaluate's target mask adds 1 byte more.
PRODUCT_BLOCK_BYTES = 1 << 20

# Eigenvalues below RANK_RTOL * largest are treated as zero rank.
RANK_RTOL = 1e-10

_SIGN_TOL = 1e-12


def check_capacity(entries: int, what: str, entry_bytes: int = 8) -> None:
    """Raise CapacityError if ``entries`` of ``entry_bytes`` each exceed the cap."""
    needed = entries * entry_bytes
    cap = GRAM_BYTE_CAP.get()
    if needed > cap:
        raise CapacityError(f"{what} needs {needed} bytes, exceeding the cap of {cap} bytes")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a.T) / 2, making near-symmetric products exactly symmetric."""
    return (a + a.T) / 2.0


def symmetrize_in_place(a: np.ndarray) -> tuple[float, float]:
    """Make square a exactly symmetric in place, with the bits of symmetrize(a).

    Both entries of each pair become (a[i, j] + a[j, i]) / 2.0, as IEEE
    addition commutes. Returns max |a - a.T| and max |a| of the input.
    The pass takes the upper triangle a row panel at a time, with the
    matching column panel.
    """
    asymmetry = magnitude = 0.0
    for rows in _row_panels(a):
        upper, lower = a[rows, rows.start:], a[rows.start:, rows].T
        asymmetry = max(asymmetry, float(np.abs(upper - lower).max()))
        magnitude = max(magnitude, float(np.abs(upper).max()), float(np.abs(lower).max()))
        # Both views share the panel's diagonal block, which the mean fills
        # symmetrically, so the two writes agree there.
        mean = (upper + lower) / 2.0
        upper[...] = mean
        a[rows.start:, rows] = mean.T
    return asymmetry, magnitude


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, a row panel at a time: no mask of a's size is made."""
    return all(np.isfinite(a[rows]).all() for rows in _row_panels(a))


def _row_panels(a: np.ndarray):
    """Slices of a's rows, PRODUCT_BLOCK_BYTES of float64 each, at least one row."""
    step = product_rows(math.prod(a.shape[1:]))
    return (slice(first, first + step) for first in range(0, len(a), step))


@dataclass
class EigenDecomposition:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Columns of ``eigenvectors`` are orthonormal; the sign of each column is
    fixed so its first component above a small tolerance is positive, which
    makes repeated decompositions of the same matrix reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def gram(M) -> np.ndarray:
    """The dense Gram matrix M^T M of M's columns.

    M is an InteractionMatrix, or a dense float64 array such as D x |I|
    item embeddings. The Gram of M's rows is that of its transpose,
    ``gram(M.T)`` (|U| x |U| for interactions, D x D for embeddings). This
    is the one place a Gram matrix is formed. Interactions are never
    densified: their Gram is counted by :func:`_pair_counts` from M and
    its kept transpose, exact integers, so it equals any exact sparse
    product bit for bit.
    """
    interactions = isinstance(M, InteractionMatrix)
    m = M if interactions else np.asarray(M, dtype=np.float64)
    rows, cols = m.shape
    check_capacity(cols * cols, f"{cols} x {cols} Gram of a {rows} x {cols} matrix")
    # A dense A^T A pairs the same products in the same order for (i, j)
    # and (j, i) (BLAS syrk fills one triangle and copies it), so it is
    # already exactly symmetric.
    return _pair_counts(m) if interactions else m.T @ m


def _pair_counts(m: InteractionMatrix) -> np.ndarray:
    """The dense Gram m^T m of binary m, counted from m and its kept transpose.

    Entry (r, u) of m^T, which is m's entry (u, r), meets each column j
    of m's row u once, and each such pair adds 1 to out[r, j]. Pairs are
    made for a block of m^T's entries at a time, PRODUCT_BLOCK_BYTES of
    index arrays (16 bytes a pair) at most unless one entry alone has
    more (an entry has at most m.n_items partners), and added in place by
    np.add.at. Beside the result, one block and three index arrays over
    the entries are held. Blocks follow m^T's rows, which keeps each
    block's additions in a band of out. The counts are integers, so their
    float64 sums are exact in any order.
    """
    t, n = m.T, m.n_items
    out = np.zeros((n, n))
    partners = np.diff(m.indptr)[t.indices]
    ends = np.cumsum(partners)
    row_start = t._entry_rows() * n
    block = PRODUCT_BLOCK_BYTES // 16  # pairs
    start = 0
    while start < t.nnz:
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + block, "right")))
        k = partners[start:stop]
        # Pair p of entry e is column (p - first pair of e) of m's row u(e).
        # One array holds the pairs' positions in m.indices, then their
        # columns, then their keys in out.
        pairs = np.repeat(m.indptr[t.indices[start:stop]] - (ends[start:stop] - k - done), k)
        pairs += np.arange(len(pairs))
        pairs = m.indices[pairs]
        pairs += np.repeat(row_start[start:stop], k)
        np.add.at(out.reshape(-1), pairs, 1.0)
        start = stop
    return out


def product_rows(cols: int) -> int:
    """Rows of one csr_matmul output block with ``cols`` columns: PRODUCT_BLOCK_BYTES
    of float64, and at least one row."""
    return max(1, PRODUCT_BLOCK_BYTES // (8 * max(cols, 1)))


def csr_matmul(indptr: np.ndarray, indices: np.ndarray, b: np.ndarray,
               out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
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

    ``out`` receives the (rows, cols) result, cols being ``b.shape[1]``.
    ``work`` is float64 scratch of shape (2, m, cols), m at least
    min(rows, product_rows(cols)): an accumulator and a gather target.
    Both are C-contiguous and overlap neither ``b`` nor each other. Either
    one not given is allocated once per call, and every block reuses it,
    so a caller scoring block after block (ranking) passes its own and
    faults in no fresh pages. Every index must select a row of ``b``; that
    is checked once per call (IndexError), so the gathers need not.
    """
    # Rows of b are gathered, so they must be contiguous; a solver's
    # Fortran-order output would make each gather strided.
    b = np.ascontiguousarray(b)
    rows, cols = len(indptr) - 1, b.shape[1]
    used = indices[indptr[0]:indptr[-1]]
    if used.size and (used.min() < 0 or used.max() >= b.shape[0]):
        raise IndexError(f"CSR column index outside the {b.shape[0]} rows of b")
    step = max(1, min(rows, product_rows(cols)))
    if out is None:
        out = np.empty((rows, cols))
    sums, gathered = np.empty((2, step, cols)) if work is None else work
    for first in range(0, rows, step):
        block = indptr[first:first + step + 1]
        lengths = np.diff(block)
        order = np.argsort(-lengths, kind="stable")
        starts = block[:-1][order]
        # Rows holding more than p items, for p = 0 .. max length.
        counts = len(lengths) - np.cumsum(np.bincount(lengths))
        acc = sums[:len(lengths)]
        acc.fill(0.0)
        with np.errstate(over="ignore"):
            for p, c in enumerate(counts[:-1].tolist()):
                # The default mode="raise" stages the gather in a fresh
                # array; the indices were checked above.
                acc[:c] += np.take(b, indices[starts[:c] + p], axis=0,
                                   out=gathered[:c], mode="clip")
        out[first:first + len(lengths)][order] = acc
    return out


def eigh(a: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    With k < n only the k largest eigenpairs are computed (see
    :func:`_top_eigenpairs`), and a C-ordered a is their workspace.
    Otherwise, and for k=None, all n come from np.linalg.eigh. The
    descending order and the sign rule apply to the columns returned
    either way. a must be symmetric within 1e-8 times max(1, max |a|),
    and is made exactly symmetric in place first (the bits of
    :func:`symmetrize`).
    """
    a = np.ascontiguousarray(_square_finite(a))
    if a.size == 0:
        raise ValueError("matrix is empty (shape 0x0)")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    asymmetry, magnitude = symmetrize_in_place(a)
    if asymmetry > 1e-8 * max(1.0, magnitude):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    if k is None or k >= n:
        try:
            w, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    else:
        w, v = _top_eigenpairs(a, k)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # Sign rule: first component of each eigenvector above _SIGN_TOL is positive.
    first = (np.abs(v) > _SIGN_TOL).argmax(axis=0)
    signs = np.where(v[first, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    v *= signs
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _top_eigenpairs(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of exactly symmetric, C-ordered a, ascending; a is overwritten.

    dsytrd reduces a to tridiagonal form in place, dstemr (MRRR, Dhillon
    and Parlett) finds the tridiagonal matrix's top k eigenpairs, and
    dormqr applies the Householder reflectors dsytrd left in a to their
    eigenvectors. LAPACK's evr uses MRRR only for the whole spectrum; for
    an index subset it runs bisection and inverse iteration, which take
    longer than dstemr on the same subset.
    """
    lapack = _lapack()
    n = a.shape[0]
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    if info == 0:
        # a is symmetric, so a.T is a in the Fortran order LAPACK works in.
        _, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info("dsytrd", info)
    e = np.append(e, 0.0)  # dstemr takes n entries of e, the last one workspace
    lwork, liwork, info = lapack.dstemr_lwork(d, e, 2, 0.0, 0.0, n - k + 1, n)
    if info == 0:
        m, w, z, info = lapack.dstemr(d, e, 2, 0.0, 0.0, n - k + 1, n,
                                      lwork=int(lwork), liwork=int(liwork))
    _check_info("dstemr", info)
    # Reflector j is stored below the subdiagonal of column j of a.T, and
    # the reflectors act on rows 1 to n - 1, as dormtr hands them to dormqr.
    # Columns that start one element into a's buffer, n apart, are an
    # F-contiguous (n, n - 1) view whose first n - 1 rows hold them.
    reflectors = a.reshape(-1)[1:1 + n * (n - 1)].reshape(n - 1, n).T
    trailing = np.asfortranarray(z[1:, :m])
    _, work, info = lapack.dormqr("L", "N", reflectors, tau, trailing, -1)
    if info == 0:
        trailing, _, info = lapack.dormqr("L", "N", reflectors, tau, trailing, int(work[0]),
                                          overwrite_c=1)
    _check_info("dormqr", info)
    z[1:, :m] = trailing
    return w[:m], z[:, :m]


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise NumericalError(f"eigendecomposition failed (LAPACK {routine} info {info})")


def spectrum(X: InteractionMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The one eigen step on X = U S V^T: its top k singular directions.

    Returns (sq, rows): sigma_k^2 clamped at 0, and the k x |I| rows V_k^T.
    They come from the smaller Gram, X^T X or X X^T, with no other
    eigenpairs; from X X^T the rows are U_k^T X (one csr_matmul) divided
    by sigma in place, and zero where sigma^2 <= RANK_RTOL * sigma_1^2.
    The whole step is checked against the cap before the Gram is counted.
    """
    users, items = X.shape
    items_side = items <= users
    n = min(users, items)
    # All n pairs hold the Gram, numpy's eigensystem and eigh's sorted copy
    # of it; the top k the Gram, dstemr's n x n eigenvectors and two k x n
    # arrays as eigh sorts and signs them. From X X^T the product then holds
    # the k eigenvectors and the k x |I| rows.
    eigen = 3 * n * n if k >= n else (2 * n + 2 * k) * n
    check_capacity(eigen if items_side else max(eigen, min(k, n) * (n + items)),
                   f"top-{k} spectrum (|U|={users}, |I|={items})")
    eig = eigh(gram(X if items_side else X.T), k=k)
    sq = np.maximum(eig.eigenvalues, 0.0)
    if items_side:
        return sq, eig.eigenvectors.T
    rows = csr_matmul(X.T.indptr, X.T.indices, eig.eigenvectors).T
    # sq descends, so the rows of rank are a prefix.
    rank = np.count_nonzero(sq > RANK_RTOL * sq[0])
    rows[:rank] /= np.sqrt(sq[:rank, np.newaxis])
    rows[rank:] = 0.0
    return sq, rows


def _square_finite(a) -> np.ndarray:
    """a as a float64 array; ValueError unless it is square and finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not all_finite(a):
        raise ValueError("matrix contains non-finite entries")
    return a


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded alone.

    Importing the ``scipy.linalg`` package around it costs 0.3-0.4 s,
    mostly in scipy's array-API layer, which imports ``numpy.f2py``,
    ``numpy.testing`` and ``numpy.ma``. Executing ``scipy/__init__`` too
    made binding the extension take 12-30 ms in a fresh process, against
    3-5 ms without, so scipy's directory comes from its import spec, and
    the extension is the one scipy module loaded. Its routines are the
    very objects ``scipy.linalg.lapack`` exposes, so the results are the
    same bits.
    """
    import importlib.machinery
    import importlib.util

    directory = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "linalg"
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
    import importlib.metadata

    raise ImportError(f"no LAPACK extension _flapack in {directory} "
                      f"(scipy {importlib.metadata.version('scipy')})")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric positive definite a, by potrf.

    A C- or F-ordered a is factored in place; the strict upper triangle
    keeps entries of a. spd_solve and spd_inverse share it.
    """
    a = _square_finite(a)
    # a is symmetric, so a C-ordered a is the Fortran-ordered array LAPACK
    # wants once transposed.
    factor, info = _lapack().dpotrf(a.T if a.flags.c_contiguous else a, lower=1, clean=0,
                                    overwrite_a=1)
    if info != 0:
        raise NotSPDError(f"matrix is not positive definite (LAPACK info {info})")
    return factor


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ z = b for symmetric positive definite a.

    a is factored in place, and a Fortran-ordered b is solved in place:
    the result is then b itself.
    """
    b = np.asarray(b, dtype=np.float64)
    factor = _cholesky(a)
    if b.shape[:1] != factor.shape[:1]:
        raise ValueError(f"dimension mismatch: a is {factor.shape}, b is {b.shape}")
    if not all_finite(b):
        raise ValueError("right-hand side contains non-finite entries")
    z, info = _lapack().dpotrs(factor, b, lower=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected argument {-info}")
    return z


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, exactly symmetric.

    potri overwrites the factor with the lower triangle of the inverse,
    which is then mirrored; a C-ordered a holds the inverse.
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
    With eps=0 the matrix must have full rank up to RANK_RTOL. eigh works
    in a copy of a.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be >= 0 and finite, got {eps}")
    eig = eigh(np.array(a, dtype=np.float64))
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
