"""Dense symmetric linear-algebra kernels shared by all solvers.

Symmetric matrices are plain float64 ndarrays kept exactly symmetric by
construction (see :func:`symmetrize`); every routine here returns arrays
that satisfy ``a.T == a`` bit-for-bit where symmetry is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, NotSPDError, NumericalError, SingularMatrixError
from .ingest import InteractionMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp

# Dense arrays (Gram matrices, densified interactions, similarity matrices)
# larger than this many bytes are refused. The user-side Gram is |U| x |U|
# and real datasets have |U| >> |I|, so this cap is what keeps an accidental
# dual-form call from exhausting memory.
GRAM_BYTE_CAP: int = 1 << 30

# Eigenvalues below RANK_RTOL * largest are treated as zero rank.
RANK_RTOL = 1e-10

_SIGN_TOL = 1e-12


def check_capacity(rows: int, cols: int, what: str = "Gram matrix") -> None:
    """Raise CapacityError if a dense rows x cols float64 array exceeds the cap."""
    needed = rows * cols * 8
    if needed > GRAM_BYTE_CAP:
        raise CapacityError(
            f"{what} of shape {rows}x{cols} needs {needed} bytes, "
            f"exceeding the cap of {GRAM_BYTE_CAP} bytes"
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


def features(M) -> sp.csr_matrix | np.ndarray:
    """The matrix behind a feature matrix whose columns are items.

    An InteractionMatrix gives its sparse users x items matrix; anything
    else (for instance D x |I| item embeddings) is taken as a dense
    float64 array.
    """
    if isinstance(M, InteractionMatrix):
        return M.matrix
    return np.asarray(M, dtype=np.float64)


def gram(M, side: str = "items") -> np.ndarray:
    """Dense Gram matrix of a feature matrix (see :func:`features`).

    side="items" returns M^T M (|I| x |I|); side="users" returns M M^T,
    the Gram of the rows (|U| x |U| for interactions, D x D for
    embeddings). This is the one place a Gram matrix is formed. Sparse M
    is never densified.
    """
    if side not in ("items", "users"):
        raise ValueError(f"side must be 'items' or 'users', got {side!r}")
    m = features(M)
    dim = m.shape[1] if side == "items" else m.shape[0]
    check_capacity(dim, dim, f"{side}-side Gram matrix")
    g = (m.T @ m) if side == "items" else (m @ m.T)
    # Sums of 0/1 products are exact integers, and a dense A^T A pairs the
    # same products in the same order for (i, j) and (j, i) (BLAS syrk
    # fills one triangle and copies it), so g is already exactly symmetric.
    return g.toarray() if isinstance(M, InteractionMatrix) else g


def eigh(a: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    With k < n only the k largest eigenpairs are computed (LAPACK evr on
    an index subset through scipy.linalg); otherwise, and for k=None, all
    n come from np.linalg.eigh. The descending order and the sign rule
    apply to the columns returned either way.
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
    try:
        if k is None or k >= n:
            w, v = np.linalg.eigh(symmetrize(a))
        else:
            import scipy.linalg

            # The transpose of the exactly symmetric copy is the same matrix
            # in the Fortran order LAPACK works in, so it is not copied again.
            w, v = scipy.linalg.eigh(symmetrize(a).T, subset_by_index=[n - k, n - 1],
                                     overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
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


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric positive definite a: potrf on one
    Fortran-order copy, so a is not written. The strict upper triangle
    keeps entries of a. spd_solve and spd_inverse share this factorization.
    """
    from scipy.linalg import lapack

    a = _square_finite(a)
    # a is symmetric, so a C-ordered a is the Fortran-ordered array LAPACK
    # wants once transposed.
    work = np.array(a.T if a.flags.c_contiguous else a, order="F")
    factor, info = lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NotSPDError(f"matrix is not positive definite (LAPACK info {info})")
    return factor


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ z = b for symmetric positive definite a; neither is written."""
    from scipy.linalg import lapack

    b = np.asarray(b, dtype=np.float64)
    factor = _cholesky(a)
    if b.shape[:1] != factor.shape[:1]:
        raise ValueError(f"dimension mismatch: a is {factor.shape}, b is {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    z, info = lapack.dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK potrs rejected argument {-info}")
    return z


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, exactly symmetric.

    potri overwrites the factor with the lower triangle of the inverse,
    which is then mirrored. a itself is not written.
    """
    from scipy.linalg import lapack

    factor, info = lapack.dpotri(_cholesky(a), lower=1, overwrite_c=1)
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
