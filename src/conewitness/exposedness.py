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

import operator
from dataclasses import dataclass

import numpy as np

from .catalog import (
    BreuerHall,
    Reduction,
    Robertson,
    Transposition,
    antisym_basis,
    breuer_hall,
    build_map,
    co_ad_map,
    reduction,
    require_antisymmetric_unitary,
    require_unitary,
    robertson_unitary,
)
from .config import COUNTEREXAMPLE_FACE_TOL, NULLSPACE_REL_TOL, ZERO_TOL
from .errors import (
    DimensionMismatch,
    InsufficientZeros,
    NotBlockPositive,
    NotUnitVector,
    OddDimension,
    UnstableDimension,
)
from .linalg import (
    _coordinate_entries,
    _entries_to_coords,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    coords_to_hermitian,
    random_unit_vector,
    svd_nullspace,
)
from .maps import (
    LinearMatrixMap,
    apply,
    choi_of,
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
    _y_side,
    is_block_positive,
    seesaw_endpoints,
)


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


# the cone search's quick certifier; the full see-saw confirms what survives it
SEARCH_SEESAW = SeeSawConfig(restarts=24, max_iters=200, stop_below=-1e-6)


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


def _analytic_candidates(desc, count, n, rng):
    """``count`` draws ``(X, Y)`` from the closed-form face description, one pair per row.

    Breuer-Hall and Robertson alternate ``y = x`` and ``y = U conj(x)`` by
    draw index; a transposition draw with no ``y`` off ``conj(x)`` is dropped.
    Draws come in the order of one ``random_unit_vector`` call per vector,
    ``x`` before its ``y``.
    """
    if isinstance(desc, Transposition):
        G = rng.standard_normal((count, 2, 2, n))
        X = _unit_rows(G[:, 0, 0] + 1j * G[:, 0, 1])
        Y = _unit_rows(G[:, 1, 0] + 1j * G[:, 1, 1])
        # remove the component along conj(x); the face is y orthogonal to it
        Y = Y - X.conj() * (X[:, np.newaxis, :] @ Y[:, :, np.newaxis])[:, 0]
        norms = _row_norms(Y)
        keep = norms >= 1e-8
        return X[keep], Y[keep] / norms[keep, np.newaxis]
    G = rng.standard_normal((count, 2, n))
    X = _unit_rows(G[:, 0] + 1j * G[:, 1])
    if isinstance(desc, Reduction):
        return X, X
    U = desc.U if isinstance(desc, BreuerHall) else robertson_unitary()
    Y = X.copy()
    Y[1::2] = (U @ X[1::2].conj()[:, :, np.newaxis])[:, :, 0]
    return X, Y


def _closed_form_face(desc) -> bool:
    """Whether the descriptor's dual face has a closed form to draw from."""
    return isinstance(desc, (Transposition, Reduction, BreuerHall, Robertson))


def _accept(W_hat, X, Y):
    """The pairs whose pairing is zero to ``ZERO_TOL``, phases fixed, and their pairings."""
    values = witness_pairing(W_hat, X, Y)
    keep = np.abs(values) <= ZERO_TOL
    return fix_phase(X[keep]), fix_phase(Y[keep]), values[keep]


def dual_face_samples(
    desc,
    count: int,
    rng: np.random.Generator | None = None,
    *,
    phi: LinearMatrixMap | None = None,
) -> DualFaceSample:
    """Collect ``count`` product pairs with pairing zero.

    Descriptors with a known face draw ``count`` closed-form pairs once;
    near-zero see-saw endpoints, polished, fill any pairs still missing.
    Maps whose pairing is bounded away from zero (interior Choi) cannot
    produce pairs and raise InsufficientZeros.  A caller that has already
    built ``desc`` passes the map as ``phi``.
    """
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if phi is None:
        phi = build_map(desc)
    n, m = phi.dim_in, phi.dim_out
    W_hat = ray_representative(phi.choi)

    X, Y, values = np.empty((0, n), complex), np.empty((0, m), complex), np.empty(0)
    if _closed_form_face(desc):
        X, Y, values = _accept(W_hat, *_analytic_candidates(desc, count, n, rng))
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


def stationarity_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
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
    of each condition before its imaginary part.  Only the entries the
    coordinates read are formed.
    """
    n, m = X.shape[1], Y.shape[1]
    d = n * m
    zc = product_vector(X, Y).conj()[:, np.newaxis, :]  # (k, 1, nm)
    ws = np.concatenate(
        [
            product_vector(np.eye(n), Y[:, np.newaxis, :]),
            product_vector(X[:, np.newaxis, :], np.eye(m)),
        ],
        axis=1,
    )  # (k, n + m, nm)
    a, b = _coordinate_entries(d)
    wz = ws[..., a] * zc[..., b]  # entry (a, b) of w z^H
    wz_h = (ws[..., b] * zc[..., a]).conj()  # entry (a, b) of z w^H
    parts = np.stack([(wz + wz_h) / 2, (1j * wz - 1j * wz_h) / 2], axis=-2)
    return _entries_to_coords(parts, d).reshape(-1, d * d)


def _checked_sample_count(desc, phi, sample_count):
    """``sample_count``, by default its floor, the fewest face pairs per sample.

    The floor is ``q = (nm)^2 // (2(n+m) - 3) + 4`` (the divisor estimates
    one pair's independent real rows), and ``3q`` on a harvested face,
    whose pairs cluster on a few orbits.
    """
    n, m = phi.dim_in, phi.dim_out
    k_min = (n * m) ** 2 // (2 * (n + m) - 3) + 4
    if not _closed_form_face(desc):
        k_min *= 3
    k = k_min if sample_count is None else operator.index(sample_count)
    if k < k_min:
        raise ValueError(f"sample_count must be at least {k_min}")
    return k


def _nullspace_with_diagnostics(desc, phi, k, rng):
    """Orthonormal null-space coordinate rows ``(dim, (nm)^2)`` of two ``k``-pair samples."""
    n, m = phi.dim_in, phi.dim_out
    d = n * m

    # both blocks of stationarity rows are copied into one column-major
    # matrix, which LAPACK reads as is; the first block is its top half.
    # The null space of both blocks is V1 null(C2 V1), with V1 spanning the
    # first block's: the second block is ranked only inside V1, cut at the
    # first block's norm, so no row of the first block is decomposed twice
    r = 2 * (n + m) * k
    C = np.empty((2 * r, d * d), order="F")
    first = dual_face_samples(desc, k, rng, phi=phi)
    C[:r] = stationarity_rows(first.X, first.Y)
    rank1, V1, sigma_max = svd_nullspace(C[:r])
    dim1 = d * d - rank1

    second = dual_face_samples(desc, k, rng, phi=phi)
    C[r:] = stationarity_rows(second.X, second.Y)
    basis_coords = V1
    if dim1:
        _, V2, _ = svd_nullspace(C[r:] @ V1, scale=sigma_max)
        basis_coords = V1 @ V2
    dim2 = basis_coords.shape[1]
    if dim1 != dim2:
        raise UnstableDimension(
            f"nullspace dim {dim1} at {k} samples vs {dim2} at {2 * k}"
        )

    c = hermitian_to_coords(ray_representative(phi.choi))
    c = c / np.linalg.norm(c)
    containment = float(np.linalg.norm(C @ c))
    if containment > 10 * NULLSPACE_REL_TOL * max(sigma_max, 1.0):
        raise UnstableDimension(
            f"sampled face excludes the map's own Choi (residual {containment:.3e})"
        )

    diagnostics = {
        "dim_at_k": dim1,
        "dim_at_2k": dim2,
        "sigma_max": sigma_max,
        "choi_containment_residual": containment,
        "sample_count": 2 * k,
    }
    return dim2, basis_coords.T, diagnostics, first


def double_dual_nullspace(
    desc,
    sample_count: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Null space of the sampled face constraints, as Hermitian matrices.

    Rows are the first-order stationarity constraints of the sampled pairs
    (see :func:`stationarity_rows`), which every member of the double-dual
    face satisfies.  The dimension is recomputed on a doubled sample, the
    second sample ranked inside the first sample's null space, and must
    agree (UnstableDimension otherwise); the map's own Choi must lie
    inside.  Both ranks count singular values at most
    ``NULLSPACE_REL_TOL`` times the first sample's largest as zero.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    phi = build_map(desc)
    k = _checked_sample_count(desc, phi, sample_count)
    dim, rows, _, _ = _nullspace_with_diagnostics(desc, phi, k, rng)
    return dim, coords_to_hermitian(rows, phi.dim_in * phi.dim_out)


def _probe_vectors(phi, face_x, rng):
    """Product vectors used to refute candidates cheaply.

    Face-kernel probes matter most: at a face point x the contracted
    witness has a kernel, and any null-space direction that dips negative
    somewhere on that kernel circle is caught by a single inner product.
    The face points are the first rows of ``face_x``.
    """
    n, m = phi.dim_in, phi.dim_out
    T = phi.choi.reshape(n, m, n, m)
    scale = max(1.0, frobenius(phi.choi))
    probes = []

    X = face_x[:48]
    W, V = np.linalg.eigh(_y_side(T, X))
    for x, w, v in zip(X, W, V):
        kernel = v[:, w <= 1e-7 * scale]
        kdim = kernel.shape[1]
        if kdim == 0:
            continue
        for col in range(kdim):
            probes.append(product_vector(x, kernel[:, col]))
        if kdim >= 2:
            coeff = rng.standard_normal((6, kdim)) + 1j * rng.standard_normal((6, kdim))
            ys = coeff @ kernel.T
            ys /= np.linalg.norm(ys, axis=1, keepdims=True)
            for y in ys:
                probes.append(product_vector(x, y))
        # slightly off-face probes guard directions negative just outside
        for delta in (0.03, 0.2):
            y = kernel[:, 0] + delta * random_unit_vector(m, rng)
            probes.append(product_vector(x, y / np.linalg.norm(y)))

    # random probes, drawn in the order of one random_unit_vector per x and y
    G = rng.standard_normal((128, 2 * (n + m)))
    x = _unit_rows(G[:, :n] + 1j * G[:, n : 2 * n])
    y = _unit_rows(G[:, 2 * n : 2 * n + m] + 1j * G[:, 2 * n + m :])
    return np.concatenate([np.reshape(probes, (-1, n * m)), product_vector(x, y)])


def _pairings(Z, basis):
    """Pairing ``<z|B_i|z> = coords(z z^H) . B_i`` of every product vector row z and basis row.

    Only the entries of ``z z^H`` the coordinates read are formed.  The
    product is spelled ``np.multiply``: ``*`` may reuse its right-hand
    temporary and swap the operands, and a complex product's bits depend on
    operand order.
    """
    d = Z.shape[1]
    a, b = _coordinate_entries(d)
    return _entries_to_coords(np.multiply(Z[:, a], Z[:, b].conj()), d) @ basis.T


def cone_search_off_ray(
    phi: LinearMatrixMap,
    basis: np.ndarray,
    face_x: np.ndarray,
    budget: int = 2000,
    rng: np.random.Generator | None = None,
) -> np.ndarray | None:
    """Search the span of ``basis`` for a block-positive element off the map's ray.

    ``basis`` holds orthonormal coordinate rows ``(dim, (nm)^2)``, as ranked.
    Candidates are screened against product-vector probes built on the
    face points ``face_x`` (a negative probe pairing is an exact
    refutation), then certified by see-saw; certified violations feed back
    as new probe rows, and the violated candidate is repaired along the
    cutting direction a few times before giving up on it.  First surviving
    candidate wins; None is a legitimate outcome and the only possible one
    when dim < 2.
    """
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

    Q = _pairings(_probe_vectors(phi, face_x, rng), basis)
    reject_below = -10 * ZERO_TOL
    spent = 0
    seed_index = 0
    while spent < budget:
        # alternate anchored perturbations of the ray with blind directions
        u = rng.standard_normal(dim)
        if seed_index % 2 == 0:
            u -= gamma_ray * (gamma_ray @ u)
            norm = np.linalg.norm(u)
            if norm < 1e-12:
                seed_index += 1
                continue
            eps = (0.1, 0.3, 0.7)[(seed_index // 2) % 3]
            gamma = gamma_ray + eps * (u / norm)
        else:
            gamma = u
        gamma = gamma / np.linalg.norm(gamma)
        seed_index += 1

        for _ in range(8):  # repair rounds for this seed
            if spent >= budget:
                break
            spent += 1
            vals = Q @ gamma
            j = int(np.argmin(vals))
            worst = float(vals[j])
            if worst >= reject_below:
                cand = ray_representative(coords_to_hermitian(gamma @ basis, d))
                if is_ray_proportional(cand, phi.choi):
                    break
                cand_map = map_from_choi(cand, n, m)
                verdict, report = is_block_positive(cand_map, SEARCH_SEESAW, rng)
                if verdict != "CERTIFIED_NOT_BP":
                    confirm_verdict, _ = is_block_positive(cand_map, SeeSawConfig(), rng)
                    if confirm_verdict == "EVIDENCE_BP":
                        return cand
                    break
                # cutting plane: remember this violation and repair along it
                z = product_vector(report.argmin.x, report.argmin.y)
                Q = np.vstack([Q, _pairings(z[np.newaxis], basis)])
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


def exposedness_report(
    desc,
    sample_count: int | None = None,
    budget: int = 2000,
    rng: np.random.Generator | None = None,
) -> ExposednessReport:
    """Full verdict pipeline; requires the map to look block-positive first.

    Two samples of ``sample_count`` face pairs fix the null space (default
    and floor in :func:`_checked_sample_count`), and the cone search tries
    at most ``budget`` candidates in it.
    CERTIFIED_EXPOSED needs linear dimension one.  NOT_EXPOSED needs a
    counterexample that survives independent re-validation: block-positive
    evidence, off the map's ray, and vanishing on freshly drawn face pairs.
    """
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if rng is None:
        rng = np.random.default_rng(0)
    phi = build_map(desc)
    k = _checked_sample_count(desc, phi, sample_count)

    verdict_bp, bp_report = is_block_positive(phi, SeeSawConfig(), rng)
    if verdict_bp != "EVIDENCE_BP":
        raise NotBlockPositive(
            f"map has a product pair with pairing {bp_report.min_value:.6e}"
        )

    dim, basis, diagnostics, samples = _nullspace_with_diagnostics(desc, phi, k, rng)
    verdict, cand, cand_report = "CERTIFIED_EXPOSED", None, None
    if dim != 1:
        verdict = "CONSISTENT_WITH_EXPOSED"
        cand = cone_search_off_ray(phi, basis, samples.X, budget, rng)
        if cand is not None:
            ok, cand_report = _validate_counterexample(desc, phi, cand, rng)
            if ok:
                verdict = "NOT_EXPOSED"
                diagnostics["counterexample_min_pairing"] = cand_report.min_value
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


def _validate_counterexample(desc, phi, cand, rng):
    """Re-check a candidate independently of the search that found it."""
    n, m = phi.dim_in, phi.dim_out
    if is_ray_proportional(cand, phi.choi):
        return False, None
    cand_map = map_from_choi(cand, n, m)
    verdict, report = is_block_positive(cand_map, SeeSawConfig(), rng)
    if verdict != "EVIDENCE_BP":
        return False, report
    fresh = dual_face_samples(desc, max(64, 2 * n * m), rng, phi=phi)
    residual = float(np.max(np.abs(witness_pairing(cand / frobenius(cand), fresh.X, fresh.Y))))
    return residual <= COUNTEREXAMPLE_FACE_TOL, report


def optimality_spanning_check(
    desc,
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
    phi = build_map(desc)
    d = phi.dim_in * phi.dim_out
    k = 2 * d * d if sample_count is None else operator.index(sample_count)
    if k < d:
        raise ValueError(f"sample_count must be at least {d}")
    sample = dual_face_samples(desc, k, rng, phi=phi)
    Z = product_vector(sample.X, sample.Y)
    span_dim, _, _ = svd_nullspace(Z)
    return span_dim == d, span_dim


def _checked_unit_vector(x, n2):
    """``x`` as a complex vector, refused unless it is a unit vector of length ``n2``."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n2,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({n2},)")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
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


def verify_bh_structure(U: np.ndarray, x: np.ndarray) -> BHStructureReport:
    """Check the four structural facts the exposedness argument rests on.

    (i) the map sends |x><x| to the two-projector deflation,
    (ii) it and its conjugation twin sum to the reduction map,
    (iii) x is orthogonal to U conj(x),
    (iv) the sign-flipped alternative is refuted by an explicit vector
    orthogonal to both kernel directions, where its expectation is -1.
    """
    U = require_antisymmetric_unitary(np.asarray(U, dtype=complex))
    n2 = U.shape[0]
    x = _checked_unit_vector(x, n2)

    phi = breuer_hall(U)
    P_x = np.outer(x, x.conj())
    u = U @ x.conj()
    P_u = np.outer(u, u.conj())
    eye = np.eye(n2)

    lhs = apply(phi, P_x)
    rhs = (eye - P_x) - P_u
    apply_residual = float(frobenius(lhs - rhs))

    twin = co_ad_map(U)
    remark1_residual = float(
        frobenius(choi_of(phi) + choi_of(twin) - choi_of(reduction(n2)))
    )

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
