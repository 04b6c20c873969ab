"""Constructors and analytic predicates for the map catalog.

The families: transposition, conjugation maps ``X -> V X V*`` and their
transposed twins ``X -> V X^t V*``, the reduction map, the generalized Choi
family on M_3, Breuer-Hall maps built from antisymmetric unitaries, and the
Robertson map they specialize to in M_4.

The constructors of the transposition, reduction, Breuer-Hall and
Robertson maps attach the map's closed form as its
:class:`conewitness.maps.Face`: a draw on the dual face, the family's
positivity identity, for Breuer-Hall the Youla frame of its unitary
(:func:`youla_form`), and signed permutations that fix its Choi matrix.
The Robertson and reduction maps are built once per process (per
dimension), with read-only Choi matrices.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .config import ANTISYM_ATOL
from .errors import (
    DimensionMismatch,
    NegativeParameter,
    NotAntisymmetric,
    NotPositiveMap,
    NotUnitary,
    OddDimension,
)
from .linalg import _row_norms, _unit_rows, frobenius, random_unitary
from .maps import Face, LinearMatrixMap, choi_from_apply

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


# --- closed-form dual faces ----------------------------------------------
#
# Each draw takes ``count`` and a generator and returns ``(X, Y)``, one pair
# per row, in the order of one ``random_unit_vector`` call per vector, ``x``
# before its ``y``.


def _unit_draws(n, count, rng):
    G = rng.standard_normal((count, 2, n))
    return _unit_rows(G[:, 0] + 1j * G[:, 1])


def _orthogonal_face(n, count, rng):
    """The transposition's face, ``y`` orthogonal to ``conj(x)``.

    A draw with no ``y`` off ``conj(x)`` is dropped, so fewer than
    ``count`` pairs may come back.
    """
    G = rng.standard_normal((count, 2, 2, n))
    X = _unit_rows(G[:, 0, 0] + 1j * G[:, 0, 1])
    Y = _unit_rows(G[:, 1, 0] + 1j * G[:, 1, 1])
    Y = Y - X.conj() * (X[:, np.newaxis, :] @ Y[:, :, np.newaxis])[:, 0]
    norms = _row_norms(Y)
    keep = norms >= 1e-8
    return X[keep], Y[keep] / norms[keep, np.newaxis]


def _diagonal_face(n, count, rng):
    """The reduction map's face, ``y = x``."""
    X = _unit_draws(n, count, rng)
    return X, X


def _unitary_face(U, count, rng):
    """The Breuer-Hall face: ``y = x`` and ``y = U conj(x)``, alternating by draw index."""
    X = _unit_draws(U.shape[0], count, rng)
    Y = X.copy()
    Y[1::2] = (U @ X[1::2].conj()[:, :, np.newaxis])[:, :, 0]
    return X, Y


# --- positivity identities -------------------------------------------------
#
# Each gives the family's pairing ``<y|phi(P_x)|y>`` at stacked pairs
# ``(X, Y)``, one pair per row, as a formula that is nonnegative by
# construction.


def _inner(A, B):
    """``<a, b>``, conjugate-linear in ``a``, for each pair of rows."""
    return np.sum(A.conj() * B, axis=-1)


def _transpose_pairing(X, Y):
    """``|<conj(x), y>|^2``, the transposition's pairing."""
    return np.abs(_inner(X.conj(), Y)) ** 2


def _reduction_pairing(X, Y):
    """``||x||^2 ||y||^2 - |<x, y>|^2``, the reduction map's pairing (Cauchy-Schwarz)."""
    return _inner(X, X).real * _inner(Y, Y).real - np.abs(_inner(X, Y)) ** 2


def _breuer_hall_pairing(U, X, Y):
    """``||x||^2 ||y||^2 - |<x, y>|^2 - |<U conj(x), y>|^2``, the pairing of ``BH_U``.

    ``x`` and ``U conj(x)`` are orthogonal (U is antisymmetric) and of equal
    norm (U is unitary), so Bessel's inequality makes it nonnegative.
    """
    return _reduction_pairing(X, Y) - np.abs(_inner(X.conj() @ U.T, Y)) ** 2


def _breuer_hall_face(U, frame=None):
    """The face of ``BH_U``, which the Robertson map shares with ``U = I_2 (x) sigma_y``."""
    draw = functools.partial(_unitary_face, U)
    return Face(draw, functools.partial(_breuer_hall_pairing, U), frame, _pair_symmetries(U.shape[0]))


# --- symmetries ------------------------------------------------------------
#
# Signed permutations (sigma, signs) of C^n, ``O e_i = signs[i] e_sigma[i]``,
# that generate a group of real orthogonal O with ``O (x) O`` fixing the
# family's Choi matrix (see :class:`conewitness.maps.Face`).


def _symmetric_group(n):
    """The swap (0 1) and the n-cycle, unsigned: every permutation fixes the transposition and reduction maps."""
    if n < 2:
        return ()
    return (((1, 0, *range(2, n)), (1,) * n), ((*range(1, n), 0), (1,) * n))


def _pair_symmetries(n):
    """Generators of the signed permutations O with ``O K O^t = K``, ``K = I (x) [[0, -1], [1, 0]]``.

    The swaps of adjacent index pairs ``(2j, 2j+1)`` and ``(2j+2, 2j+3)``
    permute K's 2 x 2 blocks, and the swap (0 1) with signs (-1, +1) turns
    the first block by a right angle, which commutes with it.  Such an O
    fixes ``BH_K``'s Choi matrix as ``O (x) O``, and the Robertson map's
    too, as its ``U = I_2 (x) sigma_y`` is ``iK``.
    """
    plus = (1,) * n
    swaps = []
    for j in range(0, n - 2, 2):
        sigma = list(range(n))
        sigma[j : j + 4] = [j + 2, j + 3, j, j + 1]
        swaps.append((tuple(sigma), plus))
    return (*swaps, ((1, 0, *range(2, n)), (-1, *plus[1:])))


# --- validation helpers ----------------------------------------------------


def require_unitary(U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise NotUnitary(f"expected a square matrix, got shape {U.shape}")
    defect = frobenius(U.conj().T @ U - np.eye(U.shape[0]))
    if not defect <= ANTISYM_ATOL:
        raise NotUnitary(f"unitarity defect {defect:.3e}")
    return U


def require_antisymmetric_unitary(U: np.ndarray) -> np.ndarray:
    """Validate ``U^t = -U`` and ``U^dag U = I``; even dimension is implied but checked."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {U.shape}")
    if U.shape[0] % 2 != 0:
        raise OddDimension("antisymmetric unitaries exist only in even dimension")
    if not frobenius(U + U.T) <= ANTISYM_ATOL:
        raise NotAntisymmetric(f"antisymmetry defect {frobenius(U + U.T):.3e}")
    require_unitary(U)
    return U


# --- constructors ----------------------------------------------------------


def transposition(n: int) -> LinearMatrixMap:
    """The transposition map ``X -> X^t`` on M_n."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    face = Face(functools.partial(_orthogonal_face, n), _transpose_pairing, None, _symmetric_group(n))
    return choi_from_apply(lambda E: E.T, n, n, face)


def ad_map(V: np.ndarray) -> LinearMatrixMap:
    """``X -> V X V*`` for any rectangular m x n matrix V.

    The Choi matrix is the rank-one projector onto ``sum_i e_i (x) V e_i``,
    which makes these the completely positive extreme rays.
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {V.shape}")
    m, n = V.shape
    return choi_from_apply(lambda E: V @ E @ V.conj().T, n, m)


def co_ad_map(V: np.ndarray) -> LinearMatrixMap:
    """``X -> V X^t V*``, the completely copositive twin of :func:`ad_map`."""
    V = np.asarray(V, dtype=complex)
    m, n = V.shape
    return choi_from_apply(lambda E: V @ E.T @ V.conj().T, n, m)


def reduction(n: int) -> LinearMatrixMap:
    """The reduction map ``R(X) = I tr X - X`` on M_n, built once per integer ``n``, read-only."""
    return _reduction(operator.index(n))


@functools.cache
def _reduction(n):
    if n < 2:
        raise DimensionMismatch("the reduction map needs n >= 2")
    eye = np.eye(n)
    face = Face(functools.partial(_diagonal_face, n), _reduction_pairing, None, _symmetric_group(n))
    phi = choi_from_apply(lambda E: eye * np.trace(E) - E, n, n, face)
    phi.choi.flags.writeable = False
    return phi


def choi_family(a: float, b: float, c: float) -> LinearMatrixMap:
    """The generalized Choi family on M_3.

    Diagonal output entries cycle (a, b, c) over the input diagonal;
    off-diagonal entries are negated.
    """
    _require_family_params(a, b, c)

    def act(X):
        d = np.array(
            [
                a * X[0, 0] + b * X[1, 1] + c * X[2, 2],
                c * X[0, 0] + a * X[1, 1] + b * X[2, 2],
                b * X[0, 0] + c * X[1, 1] + a * X[2, 2],
            ]
        )
        out = -X + np.diag(np.diagonal(X))
        return out + np.diag(d)

    return choi_from_apply(act, 3, 3)


def _require_family_params(a: float, b: float, c: float) -> None:
    if a < 0 or b < 0 or c < 0:
        raise NegativeParameter(f"family parameters must be nonnegative, got {(a, b, c)}")


def choi_family_is_positive(a: float, b: float, c: float) -> bool:
    """Whether ``Phi[a, b, c]`` is positive but not completely positive.

    For ``a, b, c >= 0`` the map is positive exactly when ``a + b + c >= 2``
    and, if ``a <= 1``, ``bc >= (1 - a)^2``, and completely positive exactly
    when ``a >= 2`` (Cho, Kye and Lee, Linear Algebra Appl. 171, 1992).
    This predicate is the positive region minus the CP one, so it returns
    False for the CP maps with ``a >= 2`` although they are positive.
    """
    _require_family_params(a, b, c)
    return a < 2 and a + b + c >= 2 and (a > 1 or b * c >= (1 - a) ** 2)


def choi_family_is_indecomposable(a: float, b: float, c: float) -> bool:
    """Analytic indecomposability test; only defined on the positive region."""
    if not choi_family_is_positive(a, b, c):
        raise NotPositiveMap(f"parameters {(a, b, c)} are outside the positive region")
    return b * c < (2 - a) ** 2 / 4


def choi_family_boundary_margin(a: float, b: float, c: float) -> float:
    """Smallest slack against the three analytic positivity surfaces.

    Measured in constraint values, not Euclidean parameter distance.  Grid
    cross-checks exclude points where this margin is below the resolution
    of the numeric certifier.
    """
    margins = [abs(a - 2.0), abs(a + b + c - 2.0)]
    if a <= 1.02:
        margins.append(abs(b * c - (1 - a) ** 2))
    return min(margins)


def breuer_hall(U: np.ndarray) -> LinearMatrixMap:
    """``X -> I tr X - X - U X^t U*`` for an antisymmetric unitary U.

    With ``U = V K V^t`` (:func:`youla_form`), ``BH_U = Ad_V o BH_K o Ad_V*``,
    so the map's face carries the frame ``V``, which takes it to ``BH_K``.
    """
    U = require_antisymmetric_unitary(U)
    n2 = U.shape[0]
    eye = np.eye(n2)
    Ud = U.conj().T
    face = _breuer_hall_face(U, youla_form(U))
    return choi_from_apply(lambda E: eye * np.trace(E) - E - U @ E.T @ Ud, n2, n2, face)


def youla_form(U: np.ndarray) -> np.ndarray:
    """A unitary V with ``V^dag U conj(V) = K = I (x) [[0, -1], [1, 0]]``, so ``U = V K V^t``.

    Columns come in pairs ``v, U conj(v)``: ``v_1 = e_1``, and each later
    ``v`` is the standard basis vector that keeps the most norm when
    Gram-Schmidt takes the columns so far off it (the one whose row of
    those columns is shortest, the first of equals), taken off them twice
    and normalized.  ``U conj(v)`` is orthogonal to v (``x`` is orthogonal
    to ``U conj(x)`` for antisymmetric U) and to every earlier pair, since
    ``<a, U conj(b)> = -<b, U conj(a)>``.  For ``U = K`` every step is exact
    and V is the identity.
    """
    U = require_antisymmetric_unitary(U)
    n2 = U.shape[0]
    V = np.zeros((n2, n2), dtype=complex)
    for j in range(0, n2, 2):
        Q = V[:, :j]
        v = np.eye(n2)[np.argmin(_row_norms(Q))]
        for _ in range(2):
            v = v - Q @ (Q.conj().T @ v)
        V[:, j] = v / np.linalg.norm(v)
        V[:, j + 1] = U @ V[:, j].conj()
    return V


@functools.cache
def robertson() -> LinearMatrixMap:
    """The Robertson map on M_4, written in 2 x 2 blocks, built once and read-only.

    Diagonal output blocks carry the trace of the opposite input block; the
    off-diagonal blocks are ``-(X_12 + R_2(X_21))`` and its mirror.
    """

    def r2(B):
        return np.eye(2) * np.trace(B) - B

    def act(X):
        X11, X12 = X[:2, :2], X[:2, 2:]
        X21, X22 = X[2:, :2], X[2:, 2:]
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = np.eye(2) * np.trace(X22)
        out[2:, 2:] = np.eye(2) * np.trace(X11)
        out[:2, 2:] = -(X12 + r2(X21))
        out[2:, :2] = -(X21 + r2(X12))
        return out

    phi = choi_from_apply(act, 4, 4, _breuer_hall_face(robertson_unitary()))
    phi.choi.flags.writeable = False
    return phi


def robertson_unitary() -> np.ndarray:
    """The antisymmetric unitary ``I_2 (x) sigma_y`` behind the Robertson map."""
    return np.kron(np.eye(2), SIGMA_Y)


def antisym_basis(V: np.ndarray, n2: int):
    """Basis of antisymmetric matrices ``V (e_ij - e_ji) V^t`` for i < j.

    The congruence by ``V^t`` (not the adjoint) is what preserves
    antisymmetry; each element has Frobenius norm sqrt(2), deliberately
    unnormalized so that summing ``D P D^dag`` over the basis reproduces
    the rank-deflated identity.
    """
    V = require_unitary(np.asarray(V, dtype=complex))
    if V.shape[0] != n2:
        raise DimensionMismatch(f"V has shape {V.shape}, expected {(n2, n2)}")
    out = []
    Vt = V.T
    for i in range(n2):
        for j in range(i + 1, n2):
            E = np.zeros((n2, n2), dtype=complex)
            E[i, j] = 1.0
            E[j, i] = -1.0
            out.append(V @ E @ Vt)
    return out


def random_antisymmetric_unitary(n2: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-conjugated antisymmetric unitary ``V (I (x) sigma_y) V^t``."""
    if n2 % 2 != 0:
        raise OddDimension("antisymmetric unitaries exist only in even dimension")
    V = random_unitary(n2, rng)
    J = np.kron(np.eye(n2 // 2), SIGMA_Y)
    return require_antisymmetric_unitary(V @ J @ V.T)
