"""Linear maps on matrix algebras in Choi form.

Conventions (used everywhere, documented only here):

* ``{e_i}`` is the standard computational basis; complex conjugation and
  transposition are entrywise in that basis.
* A map ``phi: M_n -> M_m`` is stored canonically through its Choi matrix
  ``W = sum_ij e_ij (x) phi(e_ij)``, an ``nm x nm`` Hermitian matrix whose
  first tensor factor is the input space.  With row index ``i*m + k``,
  ``W[(i,k),(j,l)] = phi(e_ij)[k,l]``.
* The inverse direction is ``phi(X) = Tr_in(W (X^t (x) I_m))``.
* Pairing convention: the map-level quantity ``<y|phi(P_x)|y>`` equals
  ``<z|W|z>`` for the product embedding ``z = conj(x) (x) y``.  Putting the
  conjugation on the input factor is forced by the Choi ordering above:
  ``<z|W|z> = <y|phi(sum_ij conj(z...)e_ij)|y>`` picks up ``x_i conj(x_j)``
  coefficients, i.e. exactly ``P_x``, for every map including ones with
  complex structure constants.  The conjugation lives in exactly one
  helper, :func:`product_vector`; every caller goes through it.
* Rays ``[phi] = {lam * phi, lam > 0}`` get a deterministic representative:
  trace normalized to ``n*m`` when ``Tr W > 0``, otherwise unit Frobenius
  norm with the first sizable real coordinate made positive.
* A family's closed form is one :class:`Face`, the map's ``face``; a map
  with no face is treated numerically throughout.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import FRAME_RTOL, PAIRING_IMAG_TOL, RAY_TOL
from .errors import DimensionMismatch, NonRealPairing, NotUnitary
from .linalg import frobenius, hermitian_to_coords, require_hermitian


def frame_conjugate(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``L A L^dag`` with ``L = V^t (x) V^dag``, for one or stacked ``n^2 x n^2`` matrices ``A``.

    ``A`` the Choi matrix of phi gives that of ``X -> V^dag phi(V X V^dag) V``;
    ``V^dag`` in place of ``V`` undoes it.  ``L`` sends the product vector of
    ``(x, y)`` to that of ``(V^dag x, V^dag y)``, so the two maps' faces and
    their null spaces correspond.
    """
    n = V.shape[0]
    L = (V.T[:, np.newaxis, :, np.newaxis] * V.conj().T[:, np.newaxis, :]).reshape(n * n, n * n)
    return L @ A @ L.conj().T


@dataclass(frozen=True, eq=False)
class Face:
    """A family's closed form: a draw on its dual face, its positivity identity, its frame, its symmetries.

    ``draw(count, rng)`` gives ``count`` candidate pairs ``(X, Y)``, one
    pair per row (a draw may drop some).  ``pairing(X, Y)`` is the family's
    pairing ``<y|phi(P_x)|y>`` at stacked pairs as a formula that is
    nonnegative by construction.  ``frame``, a unitary ``V`` or None, is the
    frame the face is ranked in: the weight blocks of ``frame_conjugate(W, V)``.
    ``symmetries`` lists signed permutations ``(sigma, signs)`` of C^n, each
    the real orthogonal ``O e_i = signs[i] e_sigma[i]``, such that ``O (x) O``
    fixes W (in the frame, when there is one); the weight blocks they carry
    onto each other are ranked once per orbit.  Each is stored as two
    tuples of ints, and one that is not a permutation with signs of one
    length is refused with ValueError.
    """

    draw: Callable
    pairing: Callable
    frame: np.ndarray | None = None
    symmetries: tuple = ()

    def __post_init__(self):
        if self.frame is not None:
            object.__setattr__(self, "frame", np.asarray(self.frame, dtype=complex))
        object.__setattr__(self, "symmetries", tuple(map(_signed_permutation, self.symmetries)))


def _signed_permutation(generator):
    """``(sigma, signs)`` as two tuples of ints, refused unless a permutation with signs ±1 of one length."""
    sigma, signs = (tuple(int(v) for v in part) for part in generator)
    if sorted(sigma) != list(range(len(sigma))) or len(signs) != len(sigma) or not set(signs) <= {1, -1}:
        raise ValueError(f"a symmetry must be a permutation and signs of one length, got {generator!r}")
    return sigma, signs


@dataclass(frozen=True, eq=False)
class LinearMatrixMap:
    """A linear map M_n -> M_m held as its Choi matrix plus dimensions.

    ``face`` is a :class:`Face` or None (the face is harvested numerically);
    anything else is a TypeError.  It is a hint, which can cost speed but not
    change a verdict: drawn pairs and the identity are checked against W
    before use.  A frame that is not unitary to ``FRAME_RTOL * max(1, ||W||_F)``
    is refused with NotUnitary, one that does not fit with DimensionMismatch,
    as is a symmetry of a face that does not fit (see :class:`Face`).
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    face: Face | None = None

    def __post_init__(self):
        n, m = self.dim_in, self.dim_out
        if n < 1 or m < 1:
            raise DimensionMismatch("dimensions must be positive")
        W = require_hermitian(self.choi)
        if W.shape != (n * m, n * m):
            raise DimensionMismatch(
                f"Choi matrix shape {W.shape} does not match dims ({n}, {m})"
            )
        object.__setattr__(self, "choi", W)
        if not isinstance(self.face, Face | None):
            raise TypeError(f"face must be a Face or None, got {type(self.face).__name__}")
        if self.face is not None and self.face.frame is not None:
            _check_frame(self.face.frame, W, n, m)
        if self.face is not None and any(len(sigma) != n or n != m for sigma, _ in self.face.symmetries):
            raise DimensionMismatch(f"a face's symmetry does not fit a map M_{n} -> M_{m}")

    def __add__(self, other: "LinearMatrixMap") -> "LinearMatrixMap":
        return add(self, other)

    def __sub__(self, other: "LinearMatrixMap") -> "LinearMatrixMap":
        return add(self, scale(other, -1.0))

    def __rmul__(self, lam: float) -> "LinearMatrixMap":
        return scale(self, lam)


def _check_frame(V, W, n, m):
    """Refuse ``V`` unless it is a unitary that fits the map."""
    if n != m or V.shape != (n, n):
        raise DimensionMismatch(f"a frame of shape {V.shape} does not fit a map M_{n} -> M_{m}")
    bound = FRAME_RTOL * max(1.0, frobenius(W))
    defect = frobenius(V.conj().T @ V - np.eye(n))
    if not defect <= bound:
        raise NotUnitary(f"frame unitarity defect {defect:.3e} exceeds bound {bound:.3e}")


def choi_of(phi: LinearMatrixMap) -> np.ndarray:
    """The Choi matrix ``sum_ij e_ij (x) phi(e_ij)`` (a defensive copy)."""
    return phi.choi.copy()


def map_from_choi(W: np.ndarray, dim_in: int, dim_out: int) -> LinearMatrixMap:
    """Wrap a Hermitian ``nm x nm`` matrix as the map it represents."""
    return LinearMatrixMap(dim_in, dim_out, np.asarray(W, dtype=complex))


def choi_from_apply(fn, dim_in: int, dim_out: int, face=None) -> LinearMatrixMap:
    """Build a map from its action on matrix units.

    ``fn`` receives each ``e_ij`` (as an ``n x n`` array) and must return the
    ``m x m`` image.  This is how every catalog constructor evaluates its
    defining formula; ``face`` is passed through to the map.
    """
    n, m = dim_in, dim_out
    T = np.zeros((n, m, n, m), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            T[i, :, j, :] = np.asarray(fn(unit), dtype=complex)
    return LinearMatrixMap(n, m, T.reshape(n * m, n * m), face)


def apply(phi: LinearMatrixMap, X: np.ndarray) -> np.ndarray:
    """Evaluate the map on ``X`` via ``Tr_in(W (X^t (x) I))``."""
    X = np.asarray(X, dtype=complex)
    n, m = phi.dim_in, phi.dim_out
    if X.shape != (n, n):
        raise DimensionMismatch(f"expected a {n} x {n} input, got {X.shape}")
    T = phi.choi.reshape(n, m, n, m)
    return np.einsum("ikpl,ip->kl", T, X)


def add(phi: LinearMatrixMap, psi: LinearMatrixMap) -> LinearMatrixMap:
    if (phi.dim_in, phi.dim_out) != (psi.dim_in, psi.dim_out):
        raise DimensionMismatch("cannot add maps with different dimensions")
    return LinearMatrixMap(phi.dim_in, phi.dim_out, phi.choi + psi.choi)


def scale(phi: LinearMatrixMap, lam: float) -> LinearMatrixMap:
    return LinearMatrixMap(phi.dim_in, phi.dim_out, float(lam) * phi.choi)


def compose_with_transpose(phi: LinearMatrixMap) -> LinearMatrixMap:
    """The map ``X -> phi(X^t)``.

    Its Choi matrix is the input-side partial transpose of ``choi(phi)``,
    which is what the complete-copositivity check reduces to.
    """
    n, m = phi.dim_in, phi.dim_out
    T = phi.choi.reshape(n, m, n, m)
    return LinearMatrixMap(n, m, T.transpose(2, 1, 0, 3).reshape(n * m, n * m))


def product_vector(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Witness-coordinate embedding ``conj(x) (x) y`` of a map-level pair.

    The single place where the pairing conjugation happens.  Stacked inputs
    of shapes ``(..., n)`` and ``(..., m)`` broadcast to one embedding per
    pair, shape ``(..., n*m)``; every entry is the single product
    ``conj(x_i) * y_k``, so a stacked call and per-pair calls agree bitwise.
    """
    x = np.conj(np.asarray(x, dtype=complex))
    y = np.asarray(y, dtype=complex)
    z = x[..., :, np.newaxis] * y[..., np.newaxis, :]
    return z.reshape(z.shape[:-2] + (z.shape[-2] * z.shape[-1],))


def witness_pairing(W: np.ndarray, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """The real pairing of W with the pair's product state, ``<y|phi(P_x)|y>``.

    A single pair gives a float.  Stacked pairs, shaped as for
    :func:`product_vector`, give an array with one pairing per pair.  Every
    shape runs the same stacked matmuls, one BLAS ``gemv`` and dot per pair,
    so each entry equals its single-pair call bitwise.  NonRealPairing is
    raised if any pairing has an imaginary residue above the bound or
    a NaN one.
    """
    W = np.asarray(W, dtype=complex)
    z = product_vector(x, y)
    d = z.shape[-1]
    if W.shape != (d, d):
        raise DimensionMismatch(
            f"witness of shape {W.shape} does not pair with a product vector of length {d}"
        )
    bound = PAIRING_IMAG_TOL * max(1.0, frobenius(W))
    value = (z.conj()[..., np.newaxis, :] @ (W @ z[..., np.newaxis]))[..., 0, 0]
    imag = value.imag.ravel()
    imag = float(imag[np.argmax(np.abs(imag))]) if imag.size else 0.0
    if not abs(imag) <= bound:
        raise NonRealPairing(
            f"imaginary residue {imag:.3e} exceeds bound {bound:.3e}"
        )
    return value.real if value.ndim else float(value.real)


def ray_representative(W: np.ndarray) -> np.ndarray:
    """Deterministic representative of the ray through ``W``.

    Trace-positive matrices are scaled so ``Tr W = n*m``; otherwise the
    matrix is Frobenius normalized and its sign fixed by the first real
    coordinate exceeding ``RAY_TOL`` in magnitude.
    """
    W = np.asarray(W, dtype=complex)
    tr = float(np.trace(W).real)
    if tr > RAY_TOL * max(1.0, frobenius(W)):
        return W * (W.shape[0] / tr)
    norm = frobenius(W)
    if norm == 0.0:
        return W.copy()
    What = W / norm
    coords = hermitian_to_coords(What)
    idx = np.flatnonzero(np.abs(coords) > RAY_TOL)
    if idx.size and coords[idx[0]] < 0:
        What = -What
    return What


def is_ray_proportional(W1: np.ndarray, W2: np.ndarray) -> bool:
    """Whether two nonzero witnesses generate the same ray (positive scalars only)."""
    n1, n2 = frobenius(W1), frobenius(W2)
    if n1 == 0.0 or n2 == 0.0:
        return False
    return frobenius(W1 / n1 - W2 / n2) <= RAY_TOL
