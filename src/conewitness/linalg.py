"""Dense complex linear algebra kernel.

Everything downstream consumes these primitives: the Hermiticity check,
SVD-based null spaces, Haar-random unit vectors and unitaries, the real
parameterization of Hermitian matrices used by the face constraint systems
(its one index table and its one writer), and the weight blocks and
symmetry orbits that the null space is ranked in, read off W.

All randomized functions take an explicit ``numpy.random.Generator``; there
is no ambient RNG state anywhere in the library.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import HERMITIAN_RTOL, NULLSPACE_REL_TOL
from .errors import ConvergenceFailure, NonHermitianInput


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(A))


def _hermiticity(A):
    """Whether square ``A`` meets ``||A - A^H||_F <= HERMITIAN_RTOL * max(1, ||A||_F)``, and both sides.

    Weighed after an exact power-of-two scaling that brings every real and
    imaginary part below one, so no subtraction or norm overflows; the
    sides are scaled back for messages only, where they may read inf.
    """
    _, e = np.frexp(max(np.abs(A.real).max(initial=0.0), np.abs(A.imag).max(initial=0.0)))
    e = max(int(e), 0)
    S = A * 2.0**-e
    defect = frobenius(S - S.conj().T)
    bound = HERMITIAN_RTOL * max(2.0**-e, frobenius(S))
    with np.errstate(over="ignore"):
        return defect <= bound, float(np.ldexp(defect, e)), float(np.ldexp(bound, e))


def is_hermitian(A: np.ndarray) -> bool:
    A = np.asarray(A)
    return A.ndim == 2 and A.shape[0] == A.shape[1] and _hermiticity(A)[0]


def require_hermitian(A: np.ndarray) -> np.ndarray:
    """Return ``A`` as a complex array, or raise ``NonHermitianInput``.

    Matrices failing the check are rejected rather than symmetrized; silent
    symmetrization would mask construction bugs upstream.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {A.shape}")
    ok, defect, bound = _hermiticity(A)
    if not ok:
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds bound {bound:.3e}")
    return A


def _checked_blocks(blocks, cols):
    """``blocks``, or one block of every column, refused unless they partition ``range(cols)``."""
    if blocks is None:
        return [np.arange(cols)]
    if not len(blocks):
        raise ValueError("blocks must partition the columns, got no blocks")
    flat = np.concatenate(blocks)
    if flat.ndim != 1 or flat.dtype.kind not in "iu" or not min(map(len, blocks)):
        raise ValueError("every block must be a nonempty 1-D array of column indices")
    if flat.min() < 0 or flat.max() >= cols:
        raise ValueError(f"block column indices must lie in [0, {cols})")
    count = np.bincount(flat, minlength=cols)
    if count.max() > 1:
        raise ValueError(f"blocks overlap: column {int(np.argmax(count > 1))} is in more than one block")
    if count.min() == 0:
        raise ValueError(f"blocks miss column {int(np.argmin(count))}")
    return blocks


def svd_nullspace(M: np.ndarray, *, scale: float | None = None, blocks=None):
    """Numerical rank, null-space basis and largest singular value of a matrix.

    ``M`` may be real or complex; a complex ``M`` gets a complex basis.

    ``blocks``, a partition of the columns into nonempty index arrays, ranks
    each block's columns on their own: exact whenever the null space is the
    direct sum of its parts in the blocks (as :func:`_weight_blocks`
    guarantees), and far cheaper than one decomposition of every column.
    Blocks that do not partition the columns (overlapping, missing or
    out-of-range columns, an empty block, no blocks) raise ValueError.  The
    default is one block of every column, ``M`` itself.

    Singular values at most ``NULLSPACE_REL_TOL * scale`` count as zero;
    ``scale`` defaults to ``sigma_max``, the largest singular value of any
    block.  A caller that ranks one set of rows projected onto another
    set's null space passes the other set's ``sigma_max``, so that both
    ranks are cut at one absolute level.  A ``scale`` that is negative or
    not finite raises ValueError.

    Returns ``(rank, basis, sigma_max)`` where ``basis`` has orthonormal
    columns spanning the null space (shape ``(cols, cols - rank)``, block
    by block in the order given, each block's vectors zero off its columns)
    and ``sigma_max`` is the same whatever ``scale`` is.

    Each block is ranked on its own, values first.  A tall block is replaced
    by its ``R`` factor (``np.linalg.qr(mode="r")``), which has the same
    singular values and right singular vectors, so neither ``Q`` nor a
    rows x cols ``U`` is ever formed; then a values-only SVD gives its
    values.  ``sigma_max``, the cutoff and every rank are read from those
    values, and values that are not all finite raise ValueError.  A block
    with no value above the cutoff is null throughout, its basis the
    identity on its columns; a block of rank ``r`` below its width gets the
    rows of ``V^H`` past ``r`` from an SVD with vectors (the full ``V`` of a
    wide block); a block of full rank adds nothing.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex if np.iscomplexobj(M) else float))
    if M.size == 0:
        raise ValueError("svd_nullspace requires a nonempty matrix")
    if scale is not None and not 0.0 <= scale < np.inf:
        raise ValueError(f"scale must be nonnegative and finite, got {scale}")
    blocks = _checked_blocks(blocks, M.shape[1])
    try:
        copies = (M[:, cols] for cols in blocks)  # each freed as soon as its QR is taken
        Rs = [np.linalg.qr(R, mode="r") if R.shape[0] > R.shape[1] else R for R in copies]
        values = [np.linalg.svd(R, compute_uv=False) for R in Rs]
        if not all(np.isfinite(s).all() for s in values):
            raise ValueError("svd_nullspace requires finite entries")
        smax = max(float(s[0]) for s in values)
        cutoff = NULLSPACE_REL_TOL * (smax if scale is None else scale)
        ranks = [int(np.count_nonzero(s > cutoff)) for s in values]
        basis = np.zeros((M.shape[1], M.shape[1] - sum(ranks)), dtype=M.dtype)
        j = 0
        for cols, R, r in zip(blocks, Rs, ranks):
            width = R.shape[1]
            if r == 0:
                basis[cols, j : j + width] = np.eye(width)
            elif r < width:
                basis[cols, j : j + width - r] = np.linalg.svd(R, full_matrices=R.shape[0] < width)[2][r:].conj().T
            j += width - r
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return sum(ranks), basis, smax


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


@functools.lru_cache(maxsize=64)
def _column_reads(d, columns):
    """The entries that coordinate ``columns`` read, and where each column reads its entry.

    ``columns`` is the bytes of strictly ascending int64 coordinate
    indices, or None for every column.  Returns ``(a, b, parts)``: the row
    and column indices of the entries to form, a subset of
    :func:`_coordinate_entries` in its order, read-only, and for the
    diagonal, Re and Im columns in turn (in that order as the columns
    ascend) a pair ``(rows, at)``, the slice of the output columns they
    fill and the entries they read, a slice where those are contiguous,
    which :func:`_write_coords` takes.  Columns that are not strictly
    ascending in ``[0, d^2)`` raise ValueError.
    """
    a, b = _coordinate_entries(d)
    p = a.size - d
    cols = np.arange(d * d) if columns is None else np.frombuffer(columns, dtype=np.int64)
    if not cols.size or cols[0] < 0 or cols[-1] >= d * d or np.any(np.diff(cols) <= 0):
        raise ValueError(f"columns must be strictly ascending indices in [0, {d * d})")
    entry = np.where(cols < d + p, cols, cols - p)
    used = np.zeros(a.size, dtype=bool)
    used[entry] = True
    used = np.flatnonzero(used)
    cuts = [0, *np.searchsorted(cols, [d, d + p]).tolist(), cols.size]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        at = np.searchsorted(used, entry[lo:hi])
        if not at.size:
            at = slice(0, 0)
        elif at[-1] - at[0] == at.size - 1:
            at = slice(int(at[0]), int(at[-1]) + 1)
        else:
            at.flags.writeable = False
        parts.append((slice(lo, hi), at))
    a, b = a[used], b[used]
    a.flags.writeable = b.flags.writeable = False
    return a, b, tuple(parts)


def _write_coords(E, parts, out):
    """Write the coordinates of the entries ``E`` into ``out``, both along the first axis.

    ``E`` holds the entries :func:`_column_reads` lists, ``parts`` its
    ``(rows, at)`` pairs: the diagonal columns get ``E.real``, the Re and Im
    columns ``sqrt(2)`` times ``E.real`` and ``E.imag``, each read at its
    ``at`` and written in place, with no other temporary.
    """
    (diag, at), (re, at_re), (im, at_im) = parts
    out[diag] = E.real[at]
    np.multiply(_SQRT2, E.real[at_re], out=out[re])
    np.multiply(_SQRT2, E.imag[at_im], out=out[im])


def _integer_null_point(G) -> np.ndarray:
    """A generic point of the null space of the square integer matrix ``G``.

    Fraction-free elimination in Python integers brings ``G`` to reduced
    echelon form exactly, so no cutoff decides the null space.  The point
    is the sum of the null-space basis vectors (one per free column)
    weighted by the square roots of distinct primes, which are linearly
    independent over the rationals: a rational functional vanishes there
    only if it vanishes on the whole null space.
    """
    rows = G.tolist()
    p = len(rows)
    pivots = []
    for col in range(p):
        r = len(pivots)
        piv = next((t for t in range(r, p) if rows[t][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for t in range(p):
            f, g = rows[t][col], rows[r][col]
            if t != r and f:
                new = [g * x - f * y for x, y in zip(rows[t], rows[r])]
                div = math.gcd(*new) or 1
                rows[t] = [x // div for x in new]
        pivots.append(col)
    free = [c for c in range(p) if c not in pivots]
    primes = [q for q in range(2, 8 * p + 8) if all(q % t for t in range(2, math.isqrt(q) + 1))]
    point = np.zeros(p)
    for weight, f in zip(np.sqrt(primes), free):
        point[f] += weight
        for r, c in enumerate(pivots):
            point[c] -= weight * rows[r][f] / rows[r][c]
    return point


def _weight_blocks(W: np.ndarray, n: int, m: int, floor: float) -> tuple:
    """Coordinate columns of ``nm x nm`` Hermitian matrices, in blocks that split the face's null space.

    ``W`` is read to ``floor``: an entry is nonzero where
    ``|W[a, b]| > floor``, and ``W`` is real where every
    ``|Im W[a, b]| <= floor``.  A map's own Choi matrix is read exactly, at
    floor 0; one carried into a face's frame at that frame's floor, which
    the frame's round-off stays below.

    Give basis vector ``(i, k)`` the weight ``mu = alpha_i + beta_k``, with
    ``mu_a = mu_b`` wherever ``W[a, b]`` is nonzero.  The diagonal unitaries
    ``exp(i t mu)`` are then product unitaries that fix ``W``, so they map the
    dual face to itself and its null space N to itself, and entry ``(a, b)`` of a
    Hermitian matrix turns with weight ``mu_a - mu_b``.  N is therefore the
    direct sum of its parts in the classes ``{lambda, -lambda}`` of these
    weights, and each class can be ranked on its own columns.  The Re and Im
    columns of an entry share its class; the diagonal is weight 0.

    A real ``W`` fixes the face under ``(x, y) -> (conj(x), conj(y))``, so
    N is fixed under ``A -> conj(A)``, which keeps the diagonal and Re
    coordinates and negates the Im ones.  Each class then splits once
    more, into its diagonal and Re columns and its Im columns; the
    conjugation swaps ``lambda`` and ``-lambda``, so it keeps every class.

    Classes are keyed by ``|mu_a - mu_b|`` at one generic point of the
    weight space, found from W's zero pattern alone.  Keys closer than a gap
    far above round-off share a block: a merge of two classes is still
    exact, a split never happens.  A complex W with no zero entries gets one
    block.  Blocks come in key order, a real W's diagonal and Re part of a
    class before its Im part, each with its columns ascending.  They are
    computed once per zero pattern and reality and shared, so the arrays
    are read-only.
    """
    nonzero, real = np.abs(W) > floor, bool(np.abs(W.imag).max() <= floor)
    return _pattern_blocks(n, m, np.packbits(nonzero).tobytes(), real)


@functools.lru_cache(maxsize=64)
def _pattern_blocks(n, m, pattern, real):
    d = n * m
    nonzero = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=d * d)
    a, b = np.divmod(np.flatnonzero(nonzero), d)
    i, k = np.divmod(a, m)
    j, l = np.divmod(b, m)
    eye_n, eye_m = np.eye(n, dtype=np.int64), np.eye(m, dtype=np.int64)
    A = np.concatenate([eye_n[i] - eye_n[j], eye_m[k] - eye_m[l]], axis=1)
    point = _integer_null_point(A.T @ A)
    mu = (point[:n, np.newaxis] + point[n:]).ravel()
    ea, eb = _coordinate_entries(d)
    key = np.abs(mu[ea] - mu[eb])
    key = np.concatenate([key, key[d:]])
    order = np.argsort(key, kind="stable")
    gap = 1e-9 * max(1.0, float(key[order[-1]]))
    cuts = np.flatnonzero(np.diff(key[order]) > gap) + 1
    blocks = [np.sort(block) for block in np.split(order, cuts)]
    if real:
        # the Im columns are the last (d^2 - d) / 2
        im = (d * d + d) // 2
        blocks = [part for block in blocks for part in (block[block < im], block[block >= im]) if part.size]
    for block in blocks:
        block.flags.writeable = False
    return tuple(blocks)


@functools.cache
def _product_permutation(sigma, signs):
    """``O (x) O`` as a signed permutation ``(pi, sign)`` of the basis of ``C^n (x) C^n``.

    ``O e_i = signs[i] e_sigma[i]`` sends basis vector ``(i, k)``, index
    ``i*n + k``, to ``signs[i] signs[k]`` times ``(sigma[i], sigma[k])``.
    ``sigma`` and ``signs`` are tuples; the arrays are computed once per
    pair and read-only.
    """
    sigma, signs = np.array(sigma), np.array(signs)
    pi, sign = (sigma[:, np.newaxis] * sigma.size + sigma).ravel(), np.outer(signs, signs).ravel()
    pi.flags.writeable = sign.flags.writeable = False
    return pi, sign


def _symmetries_fixing(W, symmetries, floor):
    """The ``symmetries`` whose ``O (x) O`` fixes ``W`` to ``floor``, entry by entry.

    ``(O (x) O) W (O (x) O)^t`` has ``sign[a] sign[b] W[a, b]`` at
    ``(pi[a], pi[b])``; a NaN difference keeps no symmetry.
    """
    kept = []
    for sigma, signs in symmetries:
        pi, sign = _product_permutation(sigma, signs)
        if np.abs(W[pi][:, pi] * (sign[:, np.newaxis] * sign) - W).max() <= floor:
            kept.append((sigma, signs))
    return tuple(kept)


def _coordinate_permutation(pi, sign):
    """``A -> L A L^t`` on the coordinates of Hermitian matrices, ``L e_a = sign[a] e_pi[a]``.

    Entry ``(a, b)`` goes to ``(pi[a], pi[b])`` times ``sign[a] sign[b]``,
    and one carried below the diagonal is read conjugated, which negates
    its Im coordinate.  Returns ``(image, negated)``: coordinate ``c`` goes
    to coordinate ``image[c]``, negated where ``negated[c]``.
    """
    d = pi.size
    a, b = _coordinate_entries(d)
    p = a.size - d
    entry = np.empty((d, d), dtype=np.int64)
    entry[a, b] = entry[b, a] = np.arange(a.size)
    image = entry[pi[a], pi[b]]
    negated = sign[a] * sign[b] < 0
    below = pi[a] > pi[b]
    return np.concatenate([image, image[d:] + p]), np.concatenate([negated, (negated ^ below)[d:]])


class _Orbits(NamedTuple):
    """The weight blocks joined into orbits; see :func:`_weight_orbits`."""

    columns: np.ndarray  # the representatives' columns, ascending
    ranked: tuple  # each representative's columns, as positions in ``columns``
    owner: np.ndarray  # the representative of each position in ``columns``
    block_orbit: np.ndarray  # the orbit of each block
    orbits: tuple  # per orbit: (its blocks, their columns, source positions, negated or None)


def _weight_orbits(blocks, generators) -> _Orbits:
    """``blocks`` joined into orbits of ``generators``, each block with its way back to its orbit's first.

    Each generator ``(sigma, signs)`` is a signed permutation ``O`` of C^n,
    ``O e_i = signs[i] e_sigma[i]``, that the caller has found to fix W as
    ``O (x) O``.  It then maps the face, and so the face's null space N, to
    itself, acting on the coordinates of C^n (x) C^n's Hermitian matrices
    as a signed permutation (:func:`_coordinate_permutation`).  It also
    permutes W's torus-weight classes; a generator that does not carry
    every block onto a block (as with a partition coarser than the classes)
    is dropped.  The kept ones carry block t's part of N onto its image's,
    so only each orbit's first block, its representative, is ranked: every
    other block's basis is the representative's, its rows permuted and
    negated (:func:`_transported`).  Orbits are found by following one
    generator at a time from block to block, on index maps and signs, so
    no dense action is built and the group is never enumerated.

    Returns ``_Orbits``: the representatives' ``columns``, ascending, which
    are all the columns when every block is its own representative; the
    ``ranked`` blocks to pass to :func:`svd_nullspace`, each
    representative's columns as positions in ``columns``, in block order;
    the ``owner`` of each position, the index of its representative among
    ``ranked``; the orbit of each block; and per orbit, its blocks, their
    columns ``(blocks, width)``, the positions in ``columns`` each column
    reads and which of those reads are negated (None when none are).
    Cached per partition and generators, read-only.
    """
    flat = np.concatenate(blocks).astype(np.int64)
    return _block_orbits(tuple(map(len, blocks)), flat.tobytes(), tuple(generators))


@functools.lru_cache(maxsize=64)
def _block_orbits(widths, flat, generators):
    flat = np.frombuffer(flat, dtype=np.int64)
    starts = np.cumsum((0,) + widths[:-1])
    blocks = np.split(flat, starts[1:])
    owner = np.empty(flat.size, dtype=np.int64)
    owner[flat] = np.repeat(np.arange(len(widths)), widths)
    position = np.empty(flat.size, dtype=np.int64)
    position[flat] = np.arange(flat.size) - np.repeat(starts, widths)
    moves = []
    for sigma, signs in generators:
        image, negated = _coordinate_permutation(*_product_permutation(sigma, signs))
        to = owner[image[flat]]
        target = to[starts]
        if np.array_equal(to, np.repeat(target, widths)) and np.array_equal(
            np.sort(target), np.arange(len(widths))
        ):
            moves.append((image, negated, target))
    # each block's representative, and where and with which signs its
    # columns read the representative's
    source = [None] * len(widths)
    for t in range(len(widths)):
        if source[t] is not None:
            continue
        source[t] = (t, np.arange(widths[t]), np.zeros(widths[t], dtype=bool))
        queue = [t]
        for u in queue:
            r, reads, neg = source[u]
            for image, negated, target in moves:
                v = int(target[u])
                if source[v] is None:
                    at = position[image[blocks[u]]]
                    v_reads, v_neg = np.empty_like(reads), np.empty_like(neg)
                    v_reads[at] = reads
                    v_neg[at] = neg ^ negated[blocks[u]]
                    source[v] = (r, v_reads, v_neg)
                    queue.append(v)
    reps = [t for t, (r, _, _) in enumerate(source) if r == t]
    orbit_of = {r: i for i, r in enumerate(reps)}
    block_orbit = np.array([orbit_of[r] for r, _, _ in source])
    columns = np.sort(np.concatenate([blocks[r] for r in reps]))
    ranked = tuple(np.searchsorted(columns, blocks[r]) for r in reps)
    rep_of = np.empty(columns.size, dtype=np.int64)
    orbits = []
    for i, positions in enumerate(ranked):
        rep_of[positions] = i
        members = np.flatnonzero(block_orbit == i)
        neg = np.stack([source[t][2] for t in members])
        orbits.append((
            members,
            np.stack([blocks[t] for t in members]),
            positions[np.stack([source[t][1] for t in members])],
            neg if neg.any() else None,
        ))
    for array in (columns, rep_of, block_orbit, *ranked, *(x for o in orbits for x in o if x is not None)):
        array.flags.writeable = False
    return _Orbits(columns, ranked, rep_of, block_orbit, tuple(orbits))


def _transported(orbits: _Orbits, null: np.ndarray) -> np.ndarray:
    """Every block's null-space basis, scattered to full rows, from the representatives' ``null``.

    ``null`` is :func:`svd_nullspace`'s basis of the ``orbits.ranked``
    blocks of the rows on ``orbits.columns``: each representative's vectors
    in turn, zero off its positions, so a vector's first nonzero row names
    its representative.  Each block's vectors are its representative's,
    read at its source positions and negated where its orbit says, with no
    other floating-point operation, and the blocks come in order as
    :func:`svd_nullspace` scatters them.  With every block its own
    representative, ``null`` itself is the basis.
    """
    if len(orbits.ranked) == orbits.block_orbit.size:
        return null
    k = np.bincount(orbits.owner[np.argmax(null != 0, axis=0)], minlength=len(orbits.ranked))
    start = np.cumsum(k) - k
    per_block = k[orbits.block_orbit]
    offset = np.cumsum(per_block) - per_block
    size = sum(o[1].size for o in orbits.orbits)
    basis = np.zeros((size, int(per_block.sum())), dtype=null.dtype)
    for i, (members, cols, reads, negated) in enumerate(orbits.orbits):
        if k[i]:
            lanes = np.arange(k[i])
            part = null[reads[:, :, np.newaxis], start[i] + lanes]
            if negated is not None:
                np.negative(part, out=part, where=negated[:, :, np.newaxis])
            basis[cols[:, :, np.newaxis], offset[members, np.newaxis, np.newaxis] + lanes] = part
    return basis


def hermitian_to_coords(A: np.ndarray) -> np.ndarray:
    """Real coordinate vector(s) of Hermitian matrix(es), shape (..., d*d).

    Written by :func:`_write_coords` into a new array whose axes keep the
    memory order of the entries read (F-ordered for a stack ``(s, d, d)``),
    the layout on which the BLAS products of the coordinates keep their
    bits.
    """
    A = np.asarray(A, dtype=complex)
    d = A.shape[-1]
    a, b, parts = _column_reads(d, None)
    E = A[..., a, b]
    out = np.empty_like(E, dtype=float, shape=E.shape[:-1] + (d * d,))
    _write_coords(E.T, parts, out.T)
    return out


def coords_to_hermitian(coords: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coords`: ``(..., d*d)`` coordinates to ``(..., d, d)`` matrices."""
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
