"""Numeric exposedness certification for block-positive witnesses.

The pipeline: sample the dual face (product pairs with vanishing pairing),
assemble the linear constraint system those pairs impose on Hermitian
matrices, compute its null space, and search the null space for
block-positive elements off the witness ray.  A one-dimensional null space
certifies exposedness outright; a validated off-ray element refutes it;
anything else is merely consistent with exposedness, because the cone
search is incomplete by nature.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .catalog import (
    antisym_basis,
    breuer_hall,
    co_ad_map,
    reduction,
    require_antisymmetric_unitary,
    require_unitary,
)
from .config import (
    COUNTEREXAMPLE_FACE_TOL,
    FRAME_RTOL,
    IDENTITY_TOL,
    NULLSPACE_REL_TOL,
    RAY_TOL,
    VIOLATION_TOL,
    ZERO_TOL,
)
from .errors import (
    DimensionMismatch,
    InsufficientZeros,
    NotBlockPositive,
    NotUnitVector,
    OddDimension,
    UnstableDimension,
    ZeroWitness,
)
from .linalg import (
    _SQRT2,
    _coordinate_entries,
    _product_permutation,
    _transported,
    _weight_blocks,
    _weight_orbits,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    coords_to_hermitian,
    svd_nullspace,
)
from .maps import (
    LinearMatrixMap,
    apply,
    frame_conjugate,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    ray_representative,
    witness_pairing,
)
from .positivity import (
    BlockPositivityReport,
    ProductPair,
    SeeSawConfig,
    _sweep,
    is_block_positive,
    is_completely_copositive,
    is_completely_positive,
    seesaw_endpoints,
)


# complex entries per stationarity-assembly buffer (128 KiB): small enough
# that the allocator reuses them from its heap rather than mapping fresh pages
_ASSEMBLY_ENTRIES = 8192


@dataclass(frozen=True, eq=False)
class DualFaceSample:
    """Product pairs on which the map's pairing vanishes, one pair per row."""

    X: np.ndarray  # (k, n), phases fixed
    Y: np.ndarray  # (k, m), phases fixed
    values: np.ndarray  # (k,) pairings
    source: str  # "analytic" | "numeric"

    @property
    def pairs(self) -> list:
        """The rows as ``ProductPair`` objects, built on every read; perfbench counts them."""
        return [ProductPair(x, y, float(v)) for x, y, v in zip(self.X, self.Y, self.values)]


@dataclass(frozen=True, eq=False)
class ExposednessReport:
    nullspace_dim: int
    verdict: str  # CERTIFIED_EXPOSED | CONSISTENT_WITH_EXPOSED | NOT_EXPOSED
    counterexample: np.ndarray | None
    counterexample_report: BlockPositivityReport | None
    samples_used: int
    diagnostics: dict


@dataclass(frozen=True, eq=False)
class BHStructureReport:
    """Four structural facts behind the exposedness proof of these maps."""

    dim: int
    apply_residual: float
    remark1_residual: float
    orthogonality_value: float
    p2_value: float
    p2_witness: np.ndarray | None
    check_i: bool
    check_ii: bool
    check_iii: bool
    check_iv: bool
    passed: bool


def _accept(W_hat, X, Y):
    """The pairs whose pairing is zero to ``ZERO_TOL``, phases fixed, and their pairings."""
    values = witness_pairing(W_hat, X, Y)
    keep = np.abs(values) <= ZERO_TOL
    return fix_phase(X[keep]), fix_phase(Y[keep]), values[keep]


def dual_face_samples(
    phi: LinearMatrixMap,
    count: int,
    rng: np.random.Generator | None = None,
) -> DualFaceSample:
    """Collect ``count`` product pairs with pairing zero.

    A map with a closed-form ``face`` draws ``count`` pairs from it once;
    near-zero see-saw endpoints, polished, fill any pairs still missing.
    Maps whose pairing is bounded away from zero (interior Choi) cannot
    produce pairs and raise InsufficientZeros.
    """
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    n, m = phi.dim_in, phi.dim_out
    W_hat = ray_representative(phi.choi)

    X, Y, values = np.empty((0, n), complex), np.empty((0, m), complex), np.empty(0)
    if phi.face is not None:
        X, Y, values = _accept(W_hat, *phi.face.draw(count, rng))
        if values.size == count:
            return DualFaceSample(X, Y, values, source="analytic")

    # numeric harvest from see-saw endpoints
    phi_hat = map_from_choi(W_hat, n, m)
    T = W_hat.reshape(n, m, n, m)
    restarts = max(32, min(256, count))
    cfg = SeeSawConfig(restarts=restarts, max_iters=250)
    rounds = 0
    max_rounds = max(6, (4 * count) // restarts + 2)
    while values.size < count and rounds < max_rounds:
        Xe, Ye, vals, _, _ = seesaw_endpoints(phi_hat, cfg, rng)
        # a fixed polish makes near-zero endpoints stationary to round-off
        near = vals <= ZERO_TOL
        if near.any():
            Xe, Ye = Xe[near], Ye[near]
            for _ in range(64):
                Xe, Ye, _ = _sweep(T, Xe, Ye)
            found = _accept(W_hat, Xe, Ye)
            X, Y, values = (np.concatenate([a, b])[:count] for a, b in zip((X, Y, values), found))
        rounds += 1
        # a clearly positive global minimum will never yield zeros
        if not values.size and vals.min() > max(1e-3, 100 * ZERO_TOL):
            break
    if values.size < count:
        raise InsufficientZeros(
            f"found {values.size} of {count} zero pairs; "
            "the pairing may be bounded away from zero on product states"
        )
    return DualFaceSample(X, Y, values, source="numeric")


def stationarity_rows(X: np.ndarray, Y: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
    """First-order rows satisfied by every member of the double-dual face.

    A block-positive element that vanishes at a face pair attains a minimum
    there, so both partial contractions annihilate the pair's vectors:
    ``<w|A|z> = 0`` for w running over the coordinate slices ``e_i (x) y``
    and ``conj(x) (x) e_k``.  Each complex condition realifies into two
    Hermitian rows, the Hermitian parts of ``w z^H`` and ``i w z^H``.
    As ``z = sum_i conj(x_i) (e_i (x) y)``, a pair's value row is a real
    combination of its own rows, so these rows alone fix the null space;
    value rows alone leave the symmetric-monomial complement in it (already
    dimension 7 for the smallest reduction map) at any sample size.

    Rows come pair by pair, then slice by slice (the n slices
    ``e_i (x) y`` before the m slices ``conj(x) (x) e_k``), the real part
    of each condition before its imaginary part.  ``columns``, strictly
    ascending coordinate indices, gives only those columns, in that order;
    the default is every column.  Only the entries the columns read are
    formed, a chunk of pairs at a time in three complex buffers of at most
    ``_ASSEMBLY_ENTRIES`` entries each (at least one pair), updated in place
    and written straight into the rows: the complex operations of
    ``(w z^H + z w^H) / 2`` and ``(i w z^H - i z w^H) / 2`` in that order,
    so every bit, signed zeros included, is that of those expressions,
    whichever columns are asked for.  The rows come column-major.
    """
    n, m = X.shape[1], Y.shape[1]
    d = n * m
    if columns is not None:
        columns = np.asarray(columns)
        if columns.ndim != 1 or columns.dtype.kind not in "iu":
            raise ValueError("columns must be a 1-D array of coordinate indices")
        columns = columns.astype(np.int64).tobytes()
    a, b, parts = _column_reads(d, columns)
    (diag, at), (re, at_re), (im, at_im) = parts
    zc = product_vector(X, Y).conj().T[:, :, np.newaxis]  # (nm, k, 1)
    ws = np.concatenate(
        [
            product_vector(np.eye(n), Y[:, np.newaxis, :]),
            product_vector(X[:, np.newaxis, :], np.eye(m)),
        ],
        axis=1,
    ).transpose(2, 0, 1)  # (nm, k, n + m)
    # coordinate-major: the rows come column-major, the layout on which the
    # containment product C @ c keeps its bits, and each block's columns
    # are gathered from contiguous memory
    rows = np.empty((im.stop,) + ws.shape[1:] + (2,))
    step = max(1, _ASSEMBLY_ENTRIES // (a.size * ws.shape[2]))
    for lo in range(0, ws.shape[1], step):
        w, z = ws[:, lo : lo + step], zc[:, lo : lo + step]
        wz = np.take(w, a, axis=0)
        wz *= z[b]  # entry (a, b) of w z^H
        zw = np.take(w, b, axis=0)
        zw *= z[a]
        np.conjugate(zw, out=zw)  # entry (a, b) of z w^H
        skew = np.multiply(1j, wz)
        wz += zw
        wz /= 2  # the real part's entries
        np.multiply(1j, zw, out=zw)
        skew -= zw
        skew /= 2  # the imaginary part's entries
        for part, E in enumerate((wz, skew)):
            out = rows[:, lo : lo + step, :, part]
            out[diag] = E.real[at]
            np.multiply(_SQRT2, E.real[at_re], out=out[re])
            np.multiply(_SQRT2, E.imag[at_im], out=out[im])
    return rows.reshape(rows.shape[0], -1).T


@functools.lru_cache(maxsize=64)
def _column_reads(d, columns):
    """The entries that coordinate ``columns`` read, and where each column reads its entry.

    ``columns`` is the bytes of strictly ascending int64 coordinate
    indices, or None for every column.  Returns ``(a, b, parts)``: the row
    and column indices of the entries to form, read-only, and for the
    diagonal, Re and Im columns in turn (in that order as the columns
    ascend) a pair ``(rows, at)``, the slice of the output columns they
    fill and the entries they read, a slice where those are contiguous.
    Columns that are not strictly ascending in ``[0, d^2)`` raise ValueError.
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


def _stationarity_residuals(X, Y, H):
    """``stationarity_rows(X, Y) @ hermitian_to_coords(H).T``, without forming the rows.

    Row ``(w, z)`` realified pairs with a Hermitian ``H`` to the real and the
    imaginary part of ``<w|H|z>``, so the residuals need ``H z`` only:
    ``<e_i (x) y|H z>`` contracts it with ``conj(y)``, ``<conj(x) (x) e_k|H z>``
    with ``x``.  ``H`` is one ``(nm, nm)`` Hermitian matrix, which gives
    ``(rows,)``, or a stack ``(s, nm, nm)``, which gives ``(rows, s)``; rows
    come in the order :func:`stationarity_rows` gives them.
    """
    k, n, m = X.shape[0], X.shape[1], Y.shape[1]
    Hz = np.swapaxes(H @ product_vector(X, Y).T, -1, -2).reshape(H.shape[:-2] + (k, n, m))
    y_side = (Hz @ Y.conj()[:, :, np.newaxis])[..., 0]  # (..., k, n)
    x_side = (X[:, np.newaxis, :] @ Hz)[..., 0, :]  # (..., k, m)
    q = np.concatenate([y_side, x_side], axis=-1)
    residuals = np.stack([q.real, q.imag], axis=-1).reshape(H.shape[:-2] + (-1,))
    return np.moveaxis(residuals, 0, -1) if H.ndim == 3 else residuals


def _checked_sample_count(phi, sample_count):
    """``sample_count``, by default its floor, the fewest face pairs per sample.

    The floor is ``q = (nm)^2 // (2(n+m) - 3) + 4`` (the divisor estimates
    one pair's independent real rows), and ``3q`` on a harvested face,
    whose pairs cluster on a few orbits.
    """
    n, m = phi.dim_in, phi.dim_out
    k_min = (n * m) ** 2 // (2 * (n + m) - 3) + 4
    if phi.face is None:
        k_min *= 3
    k = k_min if sample_count is None else operator.index(sample_count)
    if k < k_min:
        raise ValueError(f"sample_count must be at least {k_min}")
    return k


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


def _nullspace_with_diagnostics(phi, k, rng):
    """Orthonormal null-space coordinate rows ``(dim, (nm)^2)`` of two ``k``-pair samples.

    A map whose face has a ``frame`` V is ranked in it: both samples' pairs
    are carried by ``V^dag``, the blocks are read off ``frame_conjugate(W, V)``
    with entries at most ``FRAME_RTOL * max(1, ||W||_F)`` as zero, and as
    real when every imaginary part is at most that, and the null space is
    carried back by ``H -> L^dag H L``.

    The face's ``symmetries`` join the weight blocks into orbits
    (:func:`conewitness.linalg._weight_orbits`), but only those that fix W
    where the blocks are read: exactly on a map with no frame, to the same
    floor in a frame, since a face is a hint attached to any W.  Rows are
    built and ranked for the orbits' representatives only; every other
    block's basis is its representative's, permuted and sign-flipped
    (:func:`conewitness.linalg._transported`).  A map with no face, or
    with no symmetry left, ranks every block, the same code path.
    """
    n, m = phi.dim_in, phi.dim_out
    d = n * m
    V = None if phi.face is None else phi.face.frame
    # the map's own Choi matrix, in the frame the rows are built in, and the
    # same matrix as its blocks read it: its zero entries and its reality
    W = phi.choi if V is None else frame_conjugate(phi.choi, V)
    pattern, floor = W, 0.0
    if V is not None:
        floor = FRAME_RTOL * max(1.0, frobenius(W))
        pattern = np.where(np.abs(W) > floor, W, 0.0)
        if np.abs(W.imag).max() <= floor:
            pattern = pattern.real
    blocks = _weight_blocks(pattern, n, m)
    symmetries = () if phi.face is None else phi.face.symmetries
    orbits = _weight_orbits(blocks, _symmetries_fixing(W, symmetries, floor))

    def pairs(sample):
        if V is None:
            return sample.X, sample.Y
        return sample.X @ V.conj(), sample.Y @ V.conj()

    # the first sample's stationarity rows, on the representatives' columns,
    # are ranked in their weight blocks, and V1, carried to every block,
    # spans their null space.  The second sample is ranked on C2 V1, its
    # residuals of V1's elements, so C2 is never formed; C2 V1 is cut at the
    # first sample's sigma_max.  Any rank it adds is refused, so the null
    # space of both samples is V1's span, and V1 is returned as ranked and
    # carried: no basis turned by round-off reaches the search
    first = dual_face_samples(phi, k, rng)
    C = stationarity_rows(*pairs(first), columns=orbits.columns)
    _, null, sigma_max = svd_nullspace(C, blocks=orbits.ranked)
    V1 = _transported(orbits, null)
    dim1 = V1.shape[1]

    c = hermitian_to_coords(ray_representative(W))
    c = c / np.linalg.norm(c)
    second = dual_face_samples(phi, k, rng)
    # the residuals of V1's elements and of W's ray, from one product
    R2 = _stationarity_residuals(*pairs(second), coords_to_hermitian(np.vstack([V1.T, c]), d))
    dim2 = dim1 - svd_nullspace(R2[:, :-1], scale=sigma_max)[0] if dim1 else 0
    if dim1 != dim2:
        raise UnstableDimension(
            f"nullspace dim {dim1} at {k} samples vs {dim2} at {2 * k}"
        )

    # W's residuals read the ranked rows themselves, so rows that are not
    # stationarity rows are caught; and W's ray must lie in the carried null
    # space, which a block partition the null space does not split, or a
    # transport that does not carry it, breaks
    containment = float(np.linalg.norm(np.concatenate([C @ c[orbits.columns], R2[:, -1]])))
    off_ray = float(np.linalg.norm(c - V1 @ (V1.T @ c)))
    for residual, bound in (
        (containment, 10 * NULLSPACE_REL_TOL * max(sigma_max, 1.0)),
        (off_ray, RAY_TOL),
    ):
        if not residual <= bound:
            raise UnstableDimension(
                f"sampled face excludes the map's own Choi (residual {residual:.3e})"
            )

    basis_coords = V1.T
    if V is not None:
        H = frame_conjugate(coords_to_hermitian(basis_coords, d), V.conj().T)
        basis_coords = hermitian_to_coords(H)
    diagnostics = {
        "dim_at_k": dim1,
        "dim_at_2k": dim2,
        "sigma_max": sigma_max,
        "choi_containment_residual": containment,
        "sample_count": 2 * k,
    }
    if len(blocks) > 1:
        diagnostics["weight_blocks"] = len(blocks)
        diagnostics["largest_block"] = max(map(len, blocks))
        if symmetries:
            diagnostics["weight_orbits"] = len(orbits.ranked)
    return dim2, basis_coords, diagnostics


def double_dual_nullspace(
    phi: LinearMatrixMap,
    sample_count: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Null space of the sampled face constraints, as Hermitian matrices.

    Rows are the first-order stationarity constraints of the sampled pairs
    (see :func:`stationarity_rows`), which every member of the double-dual
    face satisfies.  The dimension is recomputed on a doubled sample, the
    second sample ranked inside the first sample's null space on its
    stationarity residuals, with no rows assembled, and must agree
    (UnstableDimension otherwise).  As the second sample may add no rank,
    the basis returned is the first sample's null space exactly as ranked.
    The map's own Choi must satisfy both
    samples' rows and lie in the ranked null space (UnstableDimension
    otherwise).  The first sample is ranked one weight block of columns at
    a time, torus-weight classes split into Re and Im parts when W is real
    (see :func:`conewitness.linalg._weight_blocks`), one block per orbit
    of the face's symmetries that fix W, the others carried from it, and
    both ranks count singular values at most ``NULLSPACE_REL_TOL`` times
    the largest of its ranked blocks' as zero.  A map whose face has a
    ``frame`` is ranked in the blocks of its Choi matrix carried into the
    frame, and its null space carried back (see
    :class:`conewitness.maps.Face`).  A zero map is refused with
    ZeroWitness.
    """
    _require_ray(phi)
    if rng is None:
        rng = np.random.default_rng(0)
    k = _checked_sample_count(phi, sample_count)
    dim, rows, _ = _nullspace_with_diagnostics(phi, k, rng)
    return dim, coords_to_hermitian(rows, phi.dim_in * phi.dim_out)


def _require_ray(phi):
    """Refuse a map whose Choi matrix is zero to Frobenius norm: it has no ray."""
    if frobenius(phi.choi) == 0.0:
        raise ZeroWitness("the map's Choi matrix is zero, so it has no ray")


def cone_search_off_ray(
    phi: LinearMatrixMap,
    basis: np.ndarray,
    budget: int = 2000,
    rng: np.random.Generator | None = None,
) -> np.ndarray | None:
    """Search the span of ``basis`` for a block-positive element off the map's ray.

    ``basis`` holds orthonormal coordinate rows ``(dim, (nm)^2)``, as ranked.
    Every seed is the map's ray tilted by 0.1, 0.3 or 0.7 (in turn) along a
    random direction orthogonal to it, drawn in all ``(nm)^2`` coordinates
    and projected onto the span, so a candidate depends on the span alone
    and not on which orthonormal basis of it is passed.  A candidate is
    screened against the cutting planes found so far (a negative pairing is
    an exact refutation), then certified by :func:`_positivity`: a CP or
    coCP candidate by its spectrum, any other by the default see-saw, whose
    certified violation becomes a new cutting plane, and the violated
    candidate is repaired along it a few times before the next seed.  The
    first candidate the ladder certifies wins; None is a legitimate
    outcome and the only possible one when dim < 2.  A zero map raises
    ZeroWitness.
    """
    _require_ray(phi)
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n, m = phi.dim_in, phi.dim_out
    d = n * m
    basis = np.asarray(basis)
    if basis.ndim != 2 or basis.shape[1] != d * d:
        raise DimensionMismatch(f"basis of shape {basis.shape} is not rows (dim, {d * d})")
    dim = basis.shape[0]
    if dim < 2:
        return None
    if rng is None:
        rng = np.random.default_rng(0)

    c = hermitian_to_coords(ray_representative(phi.choi))
    c = c / np.linalg.norm(c)
    gamma_ray = basis @ c

    Q = np.empty((0, dim))  # cutting planes: pairing rows of certified violations
    reject_below = -10 * ZERO_TOL
    spent = 0
    tilts = itertools.cycle((0.1, 0.3, 0.7))
    while spent < budget:
        # a seed: the ray tilted along a random direction of the span, orthogonal to it
        u = basis @ rng.standard_normal(d * d)
        u -= gamma_ray * (gamma_ray @ u)
        gamma = gamma_ray + next(tilts) * (u / np.linalg.norm(u))
        gamma = gamma / np.linalg.norm(gamma)

        for _ in range(8):  # repair rounds for this seed
            if spent >= budget:
                break
            spent += 1
            vals = Q @ gamma
            worst, j = (float(vals.min()), int(vals.argmin())) if vals.size else (0.0, -1)
            if worst >= reject_below:
                cand = ray_representative(coords_to_hermitian(gamma @ basis, d))
                if is_ray_proportional(cand, phi.choi):
                    break
                _, positive, report = _positivity(map_from_choi(cand, n, m), rng)
                if positive:
                    return cand
                # cutting plane: remember this violation and repair along it
                z = product_vector(report.argmin.x, report.argmin.y)
                plane = hermitian_to_coords(np.outer(z, z.conj()))[np.newaxis] @ basis.T
                Q = np.vstack([Q, plane])
                worst, j = report.min_value, len(Q) - 1
            # repair: lift the violated pairing back to zero
            q = Q[j]
            qq = float(q @ q)
            if qq < 1e-14:
                break
            gamma = gamma - (worst / qq) * q
            norm = np.linalg.norm(gamma)
            if norm < 1e-12:
                break
            gamma = gamma / norm
    return None


@functools.cache
def _tomographic_pairs(n, m):
    """Every pair of ``x`` in ``{e_i} + {e_i + e_j} + {e_i + i e_j}`` (i < j) and ``y`` likewise.

    The ``n^2`` vectors' projectors span the Hermitian ``n x n`` matrices,
    so the ``n^2 m^2`` pairs' ``|z><z|`` span the Hermitian ``nm x nm``
    ones: two Hermitian matrices that pair alike at every pair are equal.
    Pairs come ``x``-major, as read-only arrays ``(n^2 m^2, n)`` and
    ``(n^2 m^2, m)``, built once per dimensions.
    """

    def vectors(d):
        eye = np.eye(d, dtype=complex)
        i, j = np.triu_indices(d, 1)
        return np.concatenate([eye, eye[i] + eye[j], eye[i] + 1j * eye[j]])

    X, Y = vectors(n), vectors(m)
    X, Y = np.repeat(X, len(Y), axis=0), np.tile(Y, (len(X), 1))
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def _positive_by_identity(phi):
    """Whether the map's Choi matrix pairs as its face's positivity identity.

    The identity is a formula that is nonnegative by construction (see
    :class:`conewitness.maps.Face`), and W's pairing is compared with it
    at :func:`_tomographic_pairs`, whose projectors span the Hermitian
    matrices: agreement to ``IDENTITY_TOL * max(1, ||W||_F)`` at every pair
    fixes W as the identity's matrix to that cutoff.  A map with no face
    fails.  Nothing is drawn from a random generator.
    """
    if phi.face is None:
        return False
    X, Y = _tomographic_pairs(phi.dim_in, phi.dim_out)
    gap = np.abs(witness_pairing(phi.choi, X, Y) - phi.face.pairing(X, Y))
    return float(gap.max()) <= IDENTITY_TOL * max(1.0, frobenius(phi.choi))


def _positivity(phi, rng):
    """Whether the map is positive, by the first rung of a ladder that settles it.

    Returns ``(kind, positive, evidence)``.  The exact rungs come first and
    only certify; the see-saw comes last and alone can refute:

    1. ``"identity"``: its Choi matrix pairs as its face's identity
       (:func:`_positive_by_identity`); a map with no closed-form face, such
       as a cone-search candidate, never takes this rung.  ``evidence`` is
       None.
    2. ``"cp"``: the Choi matrix is positive semidefinite
       (``is_completely_positive``);
    3. ``"cocp"``: its partial transpose is (``is_completely_copositive``).
       A CP or coCP map is positive, and ``evidence`` is that smallest
       eigenvalue, at least ``-PSD_ATOL * max(1, ||W||_F)`` and at least
       ``-VIOLATION_TOL``: every product pairing of the map is at least
       that eigenvalue, so the see-saw could not refute a map that this
       rung certifies.
    4. ``"see-saw"``: the default see-saw's verdict, ``evidence`` its
       BlockPositivityReport.

    Only the see-saw draws from ``rng``.
    """
    if _positive_by_identity(phi):
        return "identity", True, None
    for kind, spectral in (("cp", is_completely_positive), ("cocp", is_completely_copositive)):
        positive, lam = spectral(phi)
        if positive and lam >= -VIOLATION_TOL:
            return kind, True, lam
    verdict, report = is_block_positive(phi, SeeSawConfig(), rng)
    return "see-saw", verdict == "EVIDENCE_BP", report


def exposedness_report(
    phi: LinearMatrixMap,
    sample_count: int | None = None,
    budget: int = 2000,
    rng: np.random.Generator | None = None,
) -> ExposednessReport:
    """Full verdict pipeline for a block-positive map.

    The map is first settled positive by :func:`_positivity`: by its
    closed-form face's identity, by complete positivity or copositivity,
    or else by the default see-saw, which raises NotBlockPositive when it
    finds a violation.  ``diagnostics.positivity`` names the rung:
    ``"identity"``, ``"cp"``, ``"cocp"`` or ``"see-saw"``.
    Two samples of ``sample_count`` face pairs fix the null space (default
    and floor in :func:`_checked_sample_count`), and the cone search tries
    at most ``budget`` candidates in it.
    CERTIFIED_EXPOSED needs linear dimension one.  NOT_EXPOSED needs a
    counterexample that survives independent re-validation: off the map's
    ray, positive by the ladder's ``"cp"``, ``"cocp"`` or ``"see-saw"`` rung
    (``diagnostics.counterexample_certificate``), and vanishing on freshly
    drawn face pairs.  A spectral certificate states its smallest
    eigenvalue as ``diagnostics.counterexample_min_eigenvalue`` and leaves
    ``counterexample_report`` None; the see-saw's report is embedded, with
    ``diagnostics.counterexample_min_pairing``.
    A zero map raises ZeroWitness before any see-saw.
    """
    _require_ray(phi)
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if rng is None:
        rng = np.random.default_rng(0)
    k = _checked_sample_count(phi, sample_count)

    positivity, positive, bp_report = _positivity(phi, rng)
    if not positive:
        raise NotBlockPositive(f"map has a product pair with pairing {bp_report.min_value:.6e}")

    dim, basis, diagnostics = _nullspace_with_diagnostics(phi, k, rng)
    diagnostics["positivity"] = positivity
    verdict, cand, cand_report = "CERTIFIED_EXPOSED", None, None
    if dim != 1:
        verdict = "CONSISTENT_WITH_EXPOSED"
        cand = cone_search_off_ray(phi, basis, budget, rng)
        if cand is not None:
            ok, certificate = _validate_counterexample(phi, cand, rng)
            if ok:
                verdict = "NOT_EXPOSED"
                kind, _, evidence = certificate
                diagnostics["counterexample_certificate"] = kind
                if kind == "see-saw":
                    cand_report = evidence
                    diagnostics["counterexample_min_pairing"] = evidence.min_value
                else:
                    diagnostics["counterexample_min_eigenvalue"] = evidence
            else:
                diagnostics["rejected_candidate"] = True
                cand, cand_report = None, None
    return ExposednessReport(
        nullspace_dim=dim,
        verdict=verdict,
        counterexample=cand,
        counterexample_report=cand_report,
        samples_used=diagnostics["sample_count"],
        diagnostics=diagnostics,
    )


def _validate_counterexample(phi, cand, rng):
    """Re-check a candidate independently of the search that found it: ``(ok, certificate)``.

    The candidate must lie off the map's ray (else ``(False, None)``), be
    positive by :func:`_positivity`, whose ``(kind, positive, evidence)``
    is the certificate, and vanish on a fresh face sample to
    ``COUNTEREXAMPLE_FACE_TOL``.
    """
    n, m = phi.dim_in, phi.dim_out
    if is_ray_proportional(cand, phi.choi):
        return False, None
    certificate = _positivity(map_from_choi(cand, n, m), rng)
    if not certificate[1]:
        return False, certificate
    fresh = dual_face_samples(phi, max(64, 2 * n * m), rng)
    residual = float(np.max(np.abs(witness_pairing(cand / frobenius(cand), fresh.X, fresh.Y))))
    return residual <= COUNTEREXAMPLE_FACE_TOL, certificate


def optimality_spanning_check(
    phi: LinearMatrixMap,
    sample_count: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[bool, int]:
    """Whether the face's product vectors span the whole product space.

    A spanning face leaves no room to subtract a completely positive map,
    which is the usual optimality notion for entanglement witnesses.  A
    sample of fewer than ``nm`` pairs cannot span and is refused.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = phi.dim_in * phi.dim_out
    k = 2 * d * d if sample_count is None else operator.index(sample_count)
    if k < d:
        raise ValueError(f"sample_count must be at least {d}")
    sample = dual_face_samples(phi, k, rng)
    Z = product_vector(sample.X, sample.Y)
    span_dim, _, _ = svd_nullspace(Z)
    return span_dim == d, span_dim


def _checked_unit_vector(x, n2):
    """``x`` as a complex vector, refused unless it is a unit vector of length ``n2``."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n2,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({n2},)")
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-9:
        raise NotUnitVector(f"x has norm {np.linalg.norm(x)!r}")
    return x


def verify_lemma1(V: np.ndarray, x: np.ndarray) -> float:
    """Residual of the rank-deflation identity behind the exposedness proof.

    Summing ``D |conj(x)><conj(x)| D^dag`` over the antisymmetric basis
    attached to V must give ``I - |x><x|`` for every unit x.
    """
    V = require_unitary(np.asarray(V, dtype=complex))
    n2 = V.shape[0]
    if n2 % 2 != 0:
        raise OddDimension("the identity is stated in even dimension")
    x = _checked_unit_vector(x, n2)
    P_bar = np.outer(x.conj(), x)
    S = np.zeros((n2, n2), dtype=complex)
    for D in antisym_basis(V, n2):
        S += D @ P_bar @ D.conj().T
    target = np.eye(n2) - np.outer(x, x.conj())
    return float(frobenius(S - target))


def verify_bh_structure(
    U: np.ndarray, x: np.ndarray
) -> BHStructureReport | list[BHStructureReport]:
    """Check the four structural facts the exposedness argument rests on.

    (i) the map sends |x><x| to the two-projector deflation,
    (ii) it and its conjugation twin sum to the reduction map,
    (iii) x is orthogonal to U conj(x),
    (iv) the sign-flipped alternative is refuted by an explicit vector
    orthogonal to both kernel directions, where its expectation is -1.

    ``x`` is one unit vector, which gives one report, or a stack ``(k, n)``
    of them, which gives a list of ``k`` reports.  The three Choi matrices
    and check (ii), which depend on U alone, are computed once per call, the
    reduction map's once per dimension.
    """
    U = require_antisymmetric_unitary(np.asarray(U, dtype=complex))
    n2 = U.shape[0]
    X = np.asarray(x)
    stacked = X.ndim == 2
    X = [_checked_unit_vector(v, n2) for v in (X if stacked else [X])]

    phi = breuer_hall(U)
    twin = co_ad_map(U)
    remark1_residual = float(frobenius(phi.choi + twin.choi - reduction(n2).choi))
    reports = [_bh_structure_at(phi, U, v, remark1_residual) for v in X]
    return reports if stacked else reports[0]


def _bh_structure_at(phi, U, x, remark1_residual):
    """The checks of :func:`verify_bh_structure` at one unit vector ``x``."""
    n2 = U.shape[0]
    P_x = np.outer(x, x.conj())
    u = U @ x.conj()
    P_u = np.outer(u, u.conj())
    eye = np.eye(n2)

    lhs = apply(phi, P_x)
    rhs = (eye - P_x) - P_u
    apply_residual = float(frobenius(lhs - rhs))

    orthogonality_value = float(abs(np.vdot(x, u)))

    p2_witness = None
    p2_value = 0.0
    for k in range(n2):
        e = np.zeros(n2, dtype=complex)
        e[k] = 1.0
        v = e - x * np.vdot(x, e) - u * np.vdot(u, e)
        norm = np.linalg.norm(v)
        if norm > 0.3:
            p2_witness = v / norm
            break
    if p2_witness is not None:
        Q = P_u - (eye - P_x)
        p2_value = float(np.real(np.vdot(p2_witness, Q @ p2_witness)))

    check_i = apply_residual <= 1e-11
    check_ii = remark1_residual <= 1e-12
    check_iii = orthogonality_value <= 1e-12
    check_iv = p2_witness is not None and p2_value < -0.5
    return BHStructureReport(
        dim=n2,
        apply_residual=apply_residual,
        remark1_residual=remark1_residual,
        orthogonality_value=orthogonality_value,
        p2_value=p2_value,
        p2_witness=p2_witness,
        check_i=check_i,
        check_ii=check_ii,
        check_iii=check_iii,
        check_iv=check_iv,
        passed=check_i and check_ii and check_iii and check_iv,
    )
