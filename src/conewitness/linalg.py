"""Dense complex linear algebra kernel.

Everything downstream consumes these primitives: the Hermiticity check,
SVD-based null spaces, Haar-random unit vectors and unitaries, and the real
parameterization of Hermitian matrices used by the face constraint systems.

All randomized functions take an explicit ``numpy.random.Generator``; there
is no ambient RNG state anywhere in the library.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import HERMITIAN_RTOL, NULLSPACE_REL_TOL
from .errors import ConvergenceFailure, NonHermitianInput


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(A))


def is_hermitian(A: np.ndarray) -> bool:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return frobenius(A - A.conj().T) <= HERMITIAN_RTOL * max(1.0, frobenius(A))


def require_hermitian(A: np.ndarray) -> np.ndarray:
    """Return ``A`` as a complex array, or raise ``NonHermitianInput``.

    Matrices failing the check are rejected rather than symmetrized; silent
    symmetrization would mask construction bugs upstream.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {A.shape}")
    defect = frobenius(A - A.conj().T)
    bound = HERMITIAN_RTOL * max(1.0, frobenius(A))
    if defect > bound:
        raise NonHermitianInput(
            f"Hermiticity defect {defect:.3e} exceeds bound {bound:.3e}"
        )
    return A


def svd_nullspace(M: np.ndarray, *, scale: float | None = None):
    """Numerical rank, null-space basis and largest singular value of a matrix.

    ``M`` may be real or complex; a complex ``M`` gets a complex basis.

    Singular values at most ``NULLSPACE_REL_TOL * scale`` count as zero;
    ``scale`` defaults to the largest singular value of ``M`` itself.  A
    caller that ranks one block of rows projected onto another block's null
    space passes the other block's largest singular value, so that both
    ranks are cut at one absolute level.

    Returns ``(rank, basis, sigma_max)`` where ``basis`` has orthonormal
    columns spanning the null space (shape ``(cols, cols - rank)``) and
    ``sigma_max`` is the spectral norm of ``M`` whatever ``scale`` is, all
    from one decomposition.

    A tall matrix is decomposed through its Householder ``R`` factor: the
    SVD of ``R`` has the same singular values and ``V`` (Chan's R-SVD, which
    LAPACK's ``gesdd`` runs internally on a tall enough matrix anyway), and
    neither ``Q`` nor a rows x cols ``U`` is ever formed.  A wide matrix
    needs the full ``V``, whose trailing rows beyond the row count span part
    of the null space.  LAPACK works on column-major data: a column-major
    ``M`` (or a row slice of one) is read without a transposing copy and
    gives the same bits as its C-order copy.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex if np.iscomplexobj(M) else float))
    if M.size == 0:
        raise ValueError("svd_nullspace requires a nonempty matrix")
    if scale is not None and not scale >= 0.0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    rows, cols = M.shape
    try:
        if rows > cols:
            M = np.linalg.qr(M, mode="r")
        _, s, vh = np.linalg.svd(M, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise ConvergenceFailure(str(exc)) from exc
    smax = float(s[0])
    cutoff = NULLSPACE_REL_TOL * (smax if scale is None else scale)
    rank = int(np.count_nonzero(s > cutoff))
    return rank, vh[rank:].conj().T.copy(), smax


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^n (isotropic complex Gaussian, normalized)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _row_norms(V):
    """The norm of every vector along the last axis of ``V``.

    A stacked matmul runs the same BLAS dot per vector that
    ``np.linalg.norm`` runs on one vector, so each norm equals its
    per-vector result bitwise; ``np.linalg.norm(axis=-1)`` sums in another
    order.
    """
    re, im = V.real[..., np.newaxis, :], V.imag[..., np.newaxis, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _unit_rows(V):
    """``V`` with every vector along the last axis normalized, bitwise per vector."""
    return V / _row_norms(V)[..., np.newaxis]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary via QR of a Ginibre matrix.

    The R diagonal phases are absorbed into Q, which makes the QR output
    Haar distributed rather than merely unitary.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    phases = d / np.abs(d)
    return q * phases[np.newaxis, :]


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first sizable entry is positive real.

    Used to break eigenvector degeneracies deterministically.  Stacked
    vectors of shape ``(..., n)`` are fixed one by one along the last axis,
    each bitwise as its own call; a vector with no sizable entry comes back
    unchanged.
    """
    v = np.asarray(v)
    sizable = np.abs(v) > 1e-12
    found = sizable.any(axis=-1, keepdims=True)
    pivot = np.take_along_axis(v, np.argmax(sizable, axis=-1)[..., np.newaxis], axis=-1)
    pivot = np.where(found, pivot, 1.0)
    return np.where(found, v * (np.conj(pivot) / np.abs(pivot)), v)


# --- real parameterization of Hermitian matrices --------------------------
#
# A d x d Hermitian A maps to d^2 real coordinates laid out as
#   [ diag(A).real,  sqrt(2)*Re A[i<j],  sqrt(2)*Im A[i<j] ]
# with the strict upper triangle in row-major order.  The sqrt(2) weighting
# makes the map a real-linear isometry: ||coords||_2 = ||A||_F and
# coords(A) . coords(B) = Tr(A B) for Hermitian A, B.

_SQRT2 = np.sqrt(2.0)


@functools.cache
def _coordinate_entries(d: int):
    """Row and column indices of the entries the coordinates read.

    The d diagonal entries come first, then the strict upper triangle in
    row-major order, so ``A[..., a, b]`` lists what :func:`hermitian_to_coords`
    reads, in its order.  Computed once per ``d`` and shared by every caller,
    so the arrays are read-only.
    """
    iu, ju = np.triu_indices(d, k=1)
    diag = np.arange(d)
    a, b = np.concatenate([diag, iu]), np.concatenate([diag, ju])
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _entries_to_coords(E: np.ndarray, d: int) -> np.ndarray:
    """Coordinates from the entries :func:`_coordinate_entries` lists, along the last axis."""
    upper = E[..., d:]
    return np.concatenate([E[..., :d].real, _SQRT2 * upper.real, _SQRT2 * upper.imag], axis=-1)


def hermitian_to_coords(A: np.ndarray) -> np.ndarray:
    """Real coordinate vector(s) of Hermitian matrix(es), shape (..., d*d)."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[-1]
    a, b = _coordinate_entries(d)
    return _entries_to_coords(A[..., a, b], d)


def coords_to_hermitian(coords: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coords` for a single coordinate vector."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} coordinates, got {coords.shape[-1]}")
    a, b = _coordinate_entries(d)
    p = a.size - d
    upper = (coords[..., d : d + p] + 1j * coords[..., d + p :]) / _SQRT2
    entries = np.concatenate([coords[..., :d], upper], axis=-1)
    A = np.zeros(coords.shape[:-1] + (d, d), dtype=complex)
    # the lower triangle first, so the diagonal keeps its +0 imaginary parts
    A[..., b, a] = np.conj(entries)
    A[..., a, b] = entries
    return A
