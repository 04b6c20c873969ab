"""Dual-face sampling, null spaces, cone search, and the exposedness verdicts."""

import json
import pickle
import warnings

import numpy as np
import pytest

from conewitness.catalog import (
    SIGMA_Y,
    breuer_hall,
    choi_family,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    require_antisymmetric_unitary,
    require_unitary,
    robertson,
    robertson_unitary,
    transposition,
    youla_form,
)
from conewitness.config import ANTISYM_ATOL, NULLSPACE_REL_TOL, PSD_ATOL, VIOLATION_TOL, ZERO_TOL
from conewitness.errors import (
    ConeWitnessError,
    DimensionMismatch,
    InsufficientZeros,
    NotAntisymmetric,
    NotBlockPositive,
    NotUnitVector,
    NotUnitary,
    OddDimension,
    UnstableDimension,
    ZeroWitness,
)
from conewitness.linalg import (
    _column_reads,
    _coordinate_entries,
    _weight_blocks,
    _weight_orbits,
    _write_coords,
    coords_to_hermitian,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    random_unit_vector,
    random_unitary,
    svd_nullspace,
)
from conewitness.maps import (
    Face,
    LinearMatrixMap,
    choi_of,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    ray_representative,
    witness_pairing,
)
from conewitness.positivity import SeeSawConfig, is_block_positive
from conewitness import cli, exposedness
from conewitness.exposedness import (
    DualFaceSample,
    cone_search_off_ray,
    double_dual_nullspace,
    dual_face_samples,
    exposedness_report,
    optimality_spanning_check,
    stationarity_rows,
    verify_bh_structure,
    verify_lemma1,
)


def _with_frame(phi, frame=None):
    """``phi`` with its face's frame replaced by ``frame``; by default left off."""
    face = Face(phi.face.draw, phi.face.pairing, frame)
    return LinearMatrixMap(phi.dim_in, phi.dim_out, phi.choi, face)


def random_hermitian(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


# ---------------------------------------------------------------------------
# dual face sampling


def test_transposition_face_pairs():
    sample = dual_face_samples(transposition(3), 100, np.random.default_rng(0))
    assert sample.source == "analytic"
    assert len(sample.pairs) == 100
    for pair in sample.pairs:
        # the face of the transposition is <conj(x)|y> = 0
        assert abs(pair.x @ pair.y) < 1e-12
        assert abs(pair.value) <= 1e-9


def test_reduction_face_pairs_are_diagonal():
    sample = dual_face_samples(reduction(3), 50, np.random.default_rng(1))
    assert len(sample.pairs) == 50
    for pair in sample.pairs:
        assert abs(abs(np.vdot(pair.x, pair.y)) - 1.0) < 1e-10
        assert abs(pair.value) <= 1e-9


def test_breuer_hall_face_pairs_hit_both_circles():
    rng = np.random.default_rng(2)
    U = random_antisymmetric_unitary(4, rng)
    sample = dual_face_samples(breuer_hall(U), 40, rng)
    saw_x, saw_ux = False, False
    for pair in sample.pairs:
        overlap_x = abs(np.vdot(pair.y, pair.x))
        overlap_u = abs(np.vdot(pair.y, U @ pair.x.conj()))
        assert max(overlap_x, overlap_u) > 1.0 - 1e-9
        saw_x = saw_x or overlap_x > 0.5
        saw_ux = saw_ux or overlap_u > 0.5
        assert abs(pair.value) <= 1e-9
    assert saw_x and saw_ux


def _assert_rows_are_pairs(sample, k, n, m):
    """The stacked arrays have one row per pair, equal to the pairs view bitwise."""
    assert sample.X.shape == (k, n) and sample.Y.shape == (k, m)
    assert sample.values.shape == (k,)
    pairs = sample.pairs
    assert len(pairs) == k
    for x, y, v, pair in zip(sample.X, sample.Y, sample.values, pairs):
        assert np.array_equal(x, pair.x) and np.array_equal(y, pair.y)
        assert type(pair.value) is float and v == pair.value


def test_analytic_face_pairs_match_per_pair_reference(monkeypatch):
    """The batched sampler keeps the per-pair RNG order and bits; a rejected row is dropped."""

    def per_pair(phi, kind, U, count, n, rng):
        W_hat = ray_representative(choi_of(phi))
        pairs = []
        for i in range(count):
            x = random_unit_vector(n, rng)
            if kind == "transposition":
                y = random_unit_vector(n, rng)
                y = y - x.conj() * (x @ y)
                y = y / np.linalg.norm(y)
            elif kind == "reduction" or i % 2 == 0:
                y = x
            else:
                y = U @ x.conj()
            assert abs(witness_pairing(W_hat, x, y)) <= ZERO_TOL
            pairs.append((fix_phase(x), fix_phase(y)))
        return pairs

    U = random_antisymmetric_unitary(4, np.random.default_rng(8))
    cases = [
        (transposition(3), "transposition", None, 3),
        (reduction(4), "reduction", None, 4),
        (robertson(), "breuer-hall", robertson_unitary(), 4),
        (breuer_hall(U), "breuer-hall", U, 4),
    ]
    for phi, kind, U_face, n in cases:
        sample = dual_face_samples(phi, 60, np.random.default_rng(9))
        assert sample.source == "analytic"
        _assert_rows_are_pairs(sample, 60, n, n)
        want = per_pair(phi, kind, U_face, 60, n, np.random.default_rng(9))
        for pair, (x, y) in zip(sample.pairs, want):
            assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)

    # a closed-form row whose pairing is over the bound is dropped, not
    # redrawn, and the harvest fills the shortfall
    pairing = exposedness.witness_pairing

    def reject_row_5_once(W, X, Y):
        values = pairing(W, X, Y)
        if not calls:
            values[5] = 1.0
        calls.append(len(values))
        return values

    monkeypatch.setattr(exposedness, "witness_pairing", reject_row_5_once)
    for phi, kind, U_face, n in cases[:3]:
        calls = []
        sample = dual_face_samples(phi, 60, np.random.default_rng(9))
        assert sample.source == "numeric" and calls[0] == 60 and len(calls) > 1
        _assert_rows_are_pairs(sample, 60, n, n)
        want = per_pair(phi, kind, U_face, 60, n, np.random.default_rng(9))
        kept = want[:5] + want[6:]
        for x, y, (x_want, y_want) in zip(sample.X, sample.Y, kept):
            assert np.array_equal(x, x_want) and np.array_equal(y, y_want)
        W_hat = ray_representative(choi_of(phi))
        assert abs(pairing(W_hat, sample.X[59], sample.Y[59])) <= ZERO_TOL


def test_breuer_hall_face_accepts_u_inside_antisymmetry_bound():
    """A U whose antisymmetry defect is just inside its bound keeps the face closed-form."""
    rng = np.random.default_rng(12)
    U0 = random_antisymmetric_unitary(4, rng)
    # a unitary rotation away from antisymmetry, scaled to just inside the bound
    H = random_hermitian(4, rng)
    lam, Q = np.linalg.eigh(H)

    def rotated(eps):
        return U0 @ (Q * np.exp(1j * eps * lam)) @ Q.conj().T

    slope = frobenius(rotated(1e-6) + rotated(1e-6).T) / 1e-6
    U = rotated(0.45 * ANTISYM_ATOL / slope)
    assert 0.1 * ANTISYM_ATOL < frobenius(U + U.T) <= ANTISYM_ATOL
    sample = dual_face_samples(breuer_hall(U), 200, np.random.default_rng(13))
    assert sample.source == "analytic"
    assert sample.values.shape == (200,) and np.max(np.abs(sample.values)) <= ZERO_TOL


def test_numeric_harvest_for_plain_choi_input():
    W = choi_of(co_ad_map(np.eye(3)))  # transposition, but built with no closed-form face
    sample = dual_face_samples(map_from_choi(W, 3, 3), 30, np.random.default_rng(3))
    assert sample.source == "numeric"
    _assert_rows_are_pairs(sample, 30, 3, 3)
    W_hat = ray_representative(W)
    for pair in sample.pairs:
        assert abs(witness_pairing(W_hat, pair.x, pair.y)) <= 1e-9


def test_interior_choi_has_no_zeros(monkeypatch):
    # with no see-saw endpoint near zero, the harvest polishes nothing
    def no_polish(*args):
        raise AssertionError("the harvest polished an empty stack")

    monkeypatch.setattr(exposedness, "_sweep", no_polish)
    # phi(X) = Tr(X) I has pairing 1 on every product pair
    with pytest.raises(InsufficientZeros):
        dual_face_samples(map_from_choi(np.eye(4), 2, 2), 5, np.random.default_rng(4))
    # M_1 has no transposition face to draw from, and no zeros to harvest
    with pytest.raises(InsufficientZeros):
        dual_face_samples(transposition(1), 3, np.random.default_rng(4))
    with pytest.raises(ValueError):
        dual_face_samples(reduction(3), 0)


def test_degenerate_transposition_draw_is_dropped():
    """A draw with y along conj(x) has no face vector to normalize; the harvest replaces it."""

    class DegenerateRow2:
        def __init__(self):
            self.rng, self.first = np.random.default_rng(14), True

        def standard_normal(self, shape):
            G = self.rng.standard_normal(shape)
            if self.first:  # x = y = e_1, so y - conj(x) (x . y) is exactly zero
                self.first = False
                G[2] = 0.0
                G[2, 0, 0, 0] = G[2, 1, 0, 0] = 1.0
            return G

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = dual_face_samples(transposition(3), 20, DegenerateRow2())
    assert sample.source == "numeric"
    _assert_rows_are_pairs(sample, 20, 3, 3)
    assert np.all(np.isfinite(sample.X)) and np.all(np.isfinite(sample.Y))
    assert np.max(np.abs(sample.values)) <= ZERO_TOL


# ---------------------------------------------------------------------------
# constraint rows


def test_value_rows_equal_witness_pairing():
    rng = np.random.default_rng(5)
    sample = dual_face_samples(reduction(3), 20, rng)
    C = _per_pair_rows(sample.X, sample.Y)[0]
    assert C.shape == (20, 81)

    # row functional equals the pairing for arbitrary Hermitian W
    for _ in range(5):
        W = random_hermitian(9, rng)
        want = witness_pairing(W, sample.X, sample.Y)
        assert np.max(np.abs(C @ hermitian_to_coords(W) - want)) < 1e-12 * max(1.0, frobenius(W))

    # rank-one projector onto the pair's product vector scores 1
    z = product_vector(sample.X[0], sample.Y[0])
    P = np.outer(z, z.conj())
    assert abs(C[0] @ hermitian_to_coords(P) - 1.0) < 1e-12

    # the sampled map itself sits on the face
    w_coords = hermitian_to_coords(ray_representative(choi_of(co_ad_map(np.eye(3)))))
    sample_tau = dual_face_samples(transposition(3), 20, rng)
    C_tau = _per_pair_rows(sample_tau.X, sample_tau.Y)[0]
    assert np.max(np.abs(C_tau @ w_coords)) < 1e-9


def test_stationarity_rows_annihilate_the_map():
    rng = np.random.default_rng(6)
    for phi in (transposition(2), reduction(3), robertson()):
        sample = dual_face_samples(phi, 10, rng)
        n, m = phi.dim_in, phi.dim_out
        S = stationarity_rows(sample.X, sample.Y)
        assert S.shape == (2 * 10 * (n + m), (n * m) ** 2)
        coords = hermitian_to_coords(ray_representative(choi_of(phi)))
        assert np.max(np.abs(S @ coords)) < 1e-9


def _per_pair_rows(X, Y):
    """Value and stationarity rows of ``(X, Y)``, built one pair at a time from product_vector.

    A pair's value row is the coordinate vector of the projector onto its
    product vector, so its dot with coords(W) is W's pairing at the pair.
    """
    value_rows, stat_rows = [], []
    n, m = X.shape[1], Y.shape[1]
    eye_n, eye_m = np.eye(n), np.eye(m)
    for x, y in zip(X, Y):
        z = product_vector(x, y)
        value_rows.append(np.outer(z, z.conj()))
        ws = [product_vector(eye_n[i], y) for i in range(n)]
        ws += [product_vector(x, eye_m[k]) for k in range(m)]
        for w in ws:
            zw = np.outer(w, z.conj())
            stat_rows.append((zw + zw.conj().T) / 2)
            stat_rows.append((1j * zw - 1j * zw.conj().T) / 2)
    return hermitian_to_coords(np.stack(value_rows)), hermitian_to_coords(np.stack(stat_rows))


def test_constraint_rows_match_per_pair_reference():
    rng = np.random.default_rng(7)
    U = random_antisymmetric_unitary(4, rng)
    W = choi_of(co_ad_map(np.eye(3)))  # transposition, but built with no closed-form face
    for phi, n, m, source in (
        (breuer_hall(U), 4, 4, "analytic"),
        (map_from_choi(W, 3, 3), 3, 3, "numeric"),
    ):
        sample = dual_face_samples(phi, 12, rng)
        assert sample.source == source
        assert sample.X.shape == (12, n) and sample.Y.shape == (12, m)
        want_stat = _per_pair_rows(sample.X, sample.Y)[1]
        assert np.array_equal(stationarity_rows(sample.X, sample.Y), want_stat)


def _stationarity_rows_reference(X, Y):
    """The stationarity rows as plain complex expressions, one temporary per operation."""
    n, m = X.shape[1], Y.shape[1]
    d = n * m
    zc = product_vector(X, Y).conj()[:, np.newaxis, :]
    ws = np.concatenate(
        [product_vector(np.eye(n), Y[:, np.newaxis, :]), product_vector(X[:, np.newaxis, :], np.eye(m))],
        axis=1,
    )
    a, b = _coordinate_entries(d)
    wz = ws[..., a] * zc[..., b]
    wz_h = (ws[..., b] * zc[..., a]).conj()
    parts = np.stack([(wz + wz_h) / 2, (1j * wz - 1j * wz_h) / 2], axis=-2)
    upper = parts[..., d:]
    coords = [parts[..., :d].real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    return np.concatenate(coords, axis=-1).reshape(-1, d * d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: reduction(3),
        lambda: reduction(4),
        lambda: transposition(3),
        robertson,
        lambda: breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(1234))),
    ],
    ids=["reduction-3", "reduction-4", "transpose-3", "robertson", "haar-bh4"],
)
def test_stationarity_rows_are_the_complex_expressions_bit_for_bit(make):
    """The rows built in place carry every bit of the plain complex expressions, signed zeros included."""
    phi = make()
    sample = dual_face_samples(phi, 23, np.random.default_rng(5))
    X, Y = sample.X, sample.Y
    V = phi.face.frame
    if V is not None:  # the pairs as ranked, carried into the Youla frame
        X, Y = X @ V.conj(), Y @ V.conj()
    got, want = stationarity_rows(X, Y), _stationarity_rows_reference(X, Y)
    assert got.shape == want.shape == (2 * 23 * (phi.dim_in + phi.dim_out), (phi.dim_in * phi.dim_out) ** 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.any((want == 0.0) & np.signbit(want))


# ---------------------------------------------------------------------------
# null spaces


def test_nullspace_dims_small_catalog():
    dim, basis = double_dual_nullspace(transposition(2), rng=np.random.default_rng(7))
    assert dim == 1
    assert basis.shape == (1, 4, 4)
    dim, _ = double_dual_nullspace(reduction(2), rng=np.random.default_rng(8))
    assert dim == 1


def test_nullspace_dim_reduction3_is_coad_span():
    rng = np.random.default_rng(9)
    dim, basis = double_dual_nullspace(reduction(3), rng=rng)
    assert dim == 9
    # every co-ad of an antisymmetric matrix satisfies the face constraints
    K = hermitian_to_coords(basis)
    for _ in range(6):
        A = np.zeros((3, 3), dtype=complex)
        iu = np.triu_indices(3, k=1)
        vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        A[iu] = vals
        A -= A.T
        c = hermitian_to_coords(choi_of(co_ad_map(A)))
        c = c / np.linalg.norm(c)
        residual = np.linalg.norm(c - K.T @ (K @ c))
        assert residual < 1e-8


def test_nullspace_rejects_undersampling(monkeypatch):
    with pytest.raises(ValueError):
        double_dual_nullspace(transposition(2), sample_count=6)

    # the report refuses an undersized sample before its see-saw runs
    def no_seesaw(*args, **kwargs):
        raise AssertionError("block-positivity check ran")

    monkeypatch.setattr(exposedness, "is_block_positive", no_seesaw)
    with pytest.raises(ValueError, match=r"sample_count must be at least 23$"):
        exposedness_report(reduction(4), sample_count=10)


def test_nullspace_basis_bits_match_stacked_c_order_blocks():
    """The basis is V1, the representatives' C-order blocks ranked one by one and carried to their orbits, bit for bit.

    The second sample adds no rank.
    """
    U = random_antisymmetric_unitary(4, np.random.default_rng(3))
    # the Haar BH_4 with its frame left off: a complex W with no zero entry is one block
    one_block = _with_frame(breuer_hall(U))
    for phi, n, n_blocks, n_orbits in ((robertson(), 4, 26, 12), (one_block, 4, 1, 1), (reduction(3), 3, 20, 8)):
        d = n * n
        k = d * d // (4 * n - 3) + 4  # face pairs per sample
        rng = np.random.default_rng(11)
        first, second = (dual_face_samples(phi, k, rng) for _ in range(2))
        C1 = _per_pair_rows(first.X, first.Y)[1]
        # the first sample's rows, ranked one representative block of
        # columns at a time and cut at the largest block's norm; each
        # block's basis is its representative's rows, read and negated as
        # its orbit records, scattered back to full rows
        weight_blocks = _weight_blocks(phi.choi, n, n, 0.0)
        assert len(weight_blocks) == n_blocks
        assert exposedness._symmetries_fixing(phi.choi, phi.face.symmetries, 0.0) == phi.face.symmetries
        orbits = _weight_orbits(weight_blocks, phi.face.symmetries)
        assert len(orbits.ranked) == n_orbits
        reps = [orbits.columns[positions] for positions in orbits.ranked]
        sigma_max = max(svd_nullspace(C1[:, cols])[2] for cols in reps)
        nulls = [svd_nullspace(C1[:, cols], scale=sigma_max)[1] for cols in reps]
        parts = []
        for t, cols in enumerate(weight_blocks):
            i = orbits.block_orbit[t]
            members, _, reads, negated = orbits.orbits[i]
            row = list(members).index(t)
            null = nulls[i][np.searchsorted(orbits.ranked[i], reads[row])]
            if negated is not None:
                null[negated[row]] *= -1.0
            part = np.zeros((d * d, null.shape[1]))
            part[cols] = null
            parts.append(part)
        V1 = np.hstack(parts)
        # the second sample, ranked on its residuals of V1's elements, only
        # confirms V1's dimension; V1 itself is the basis
        R2 = exposedness._stationarity_residuals(second.X, second.Y, coords_to_hermitian(V1.T, d))
        rank2, _, _ = svd_nullspace(R2, scale=sigma_max)
        dim, basis = double_dual_nullspace(phi, rng=np.random.default_rng(11))
        assert rank2 == 0 and dim == V1.shape[1]
        assert np.array_equal(basis, coords_to_hermitian(V1.T, d))


@pytest.mark.parametrize("n, m", [(3, 3), (4, 4), (2, 3)])
def test_stationarity_residuals_equal_the_assembled_rows(n, m):
    """The second sample's residuals equal stationarity_rows @ coords(H).T, for one H and a stack."""
    rng = np.random.default_rng(10 * n + m)
    d = n * m
    k = 9
    X = fix_phase(np.stack([random_unit_vector(n, rng) for _ in range(k)]))
    Y = fix_phase(np.stack([random_unit_vector(m, rng) for _ in range(k)]))
    samples = [(X, Y)]
    if n == m == 4:
        # pairs of a Haar BH_4's face carried into its Youla frame, as ranked
        phi = breuer_hall(random_antisymmetric_unitary(4, rng))
        sample = dual_face_samples(phi, k, rng)
        V = phi.face.frame
        samples.append((sample.X @ V.conj(), sample.Y @ V.conj()))
    H = np.stack([random_hermitian(d, rng) * scale for scale in (1e-3, 1.0, 40.0)])
    for X, Y in samples:
        C = stationarity_rows(X, Y)
        for h in (H[2], H):
            got = exposedness._stationarity_residuals(X, Y, h)
            want = C @ hermitian_to_coords(h).T
            assert got.shape == want.shape
            norms = np.linalg.norm(h, axis=(-2, -1))
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, norms))


def test_a_complex_w_is_never_split_and_a_forced_split_is_refused(monkeypatch, capsys):
    """The unframed Haar BH_4 stays one block; a Re/Im split its null space does not respect is refused."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    phi = _with_frame(breuer_hall(U))
    assert np.any(phi.choi.imag) and np.all(phi.choi != 0)
    assert len(_weight_blocks(phi.choi, 4, 4, 0.0)) == 1
    rep = exposedness_report(phi, rng=np.random.default_rng(0))
    assert (rep.verdict, rep.nullspace_dim) == ("CERTIFIED_EXPOSED", 1)
    assert "weight_blocks" not in rep.diagnostics
    # W's real part has W's zero pattern but splits every class: the ranked
    # null space misses W's ray, though W annihilates every ranked row
    split = _weight_blocks(phi.choi.real, 4, 4, 0.0)
    assert len(split) == 2
    monkeypatch.setattr(exposedness, "_weight_blocks", lambda W, n, m, floor: split)
    with pytest.raises(UnstableDimension, match=r"^sampled face excludes the map's own Choi \(residual \S+\)$"):
        exposedness_report(phi, rng=np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(3))
def test_projected_nullspace_spans_stacked_nullspace(seed):
    """Ranking the second block inside the first block's null space finds the stacked system's."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    for phi in (
        robertson(),
        reduction(3),
        reduction(4),
        transposition(3),
        breuer_hall(U),
        choi_family(1.0, 0.0, 1.0),
    ):
        k = exposedness._checked_sample_count(phi, None)
        rng = np.random.default_rng(seed)
        samples = [dual_face_samples(phi, k, rng) for _ in range(2)]
        C = np.vstack([stationarity_rows(s.X, s.Y) for s in samples])
        rank, B_old, _ = svd_nullspace(C)
        dim, basis = double_dual_nullspace(phi, rng=np.random.default_rng(seed))
        B_new = hermitian_to_coords(basis).T
        assert dim == B_old.shape[1] == C.shape[1] - rank
        assert np.linalg.norm(B_new - B_old @ (B_old.T @ B_new), 2) <= 1e-10


def _one_block(W, n, m, floor):
    """Every coordinate column in one block: the rank of the whole first sample."""
    return [np.arange((n * m) ** 2)]


@pytest.mark.parametrize("seed", range(3))
def test_blocked_nullity_equals_one_block_nullity(seed, monkeypatch):
    """Weight blocks give the one-block nullity, on closed-form, harvested and file-read faces."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    maps = (
        transposition(3),
        reduction(3),
        reduction(4),
        robertson(),
        breuer_hall(robertson_unitary()),
        breuer_hall(U),
        choi_family(1.0, 0.0, 1.0),
        HA_KYE,
        map_from_choi(choi_of(reduction(3)), 3, 3),
    )
    counts = [len(_weight_blocks(phi.choi, phi.dim_in, phi.dim_out, 0.0)) for phi in maps]
    # every W here is real but the Haar BH_4's, so its classes split in two
    assert counts == [20, 20, 56, 26, 26, 1, 20, 20, 20]
    blocked = [double_dual_nullspace(phi, rng=np.random.default_rng(seed))[0] for phi in maps]
    monkeypatch.setattr(exposedness, "_weight_blocks", _one_block)
    whole = [double_dual_nullspace(phi, rng=np.random.default_rng(seed))[0] for phi in maps]
    assert blocked == whole == [1, 9, 36, 1, 1, 1, 14, 1, 9]


def test_haar_breuer_hall_is_ranked_in_its_youla_frame(tmp_path, capsys, monkeypatch):
    """A complex W with no zero entry is one block; its Youla frame gives BH_K's 26 and the one-block verdicts."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    phi = breuer_hall(U)
    assert np.all(phi.choi != 0)
    assert len(_weight_blocks(phi.choi, 4, 4, 0.0)) == 1
    u_file = tmp_path / "u.json"
    u_file.write_text(cli.canonical_json(cli.matrix_to_obj(U)))
    assert cli.main(["exposedness", "breuer-hall", "--u", str(u_file), "--seed", "7"]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["weight_blocks"] == 26 and diag["largest_block"] == 26
    framed = [exposedness_report(phi, rng=np.random.default_rng(seed)) for seed in range(5)]
    monkeypatch.setattr(exposedness, "_weight_blocks", _one_block)
    off = _with_frame(phi)
    whole = [exposedness_report(off, rng=np.random.default_rng(seed)) for seed in range(5)]
    assert [(r.verdict, r.nullspace_dim) for r in framed] == [
        (r.verdict, r.nullspace_dim) for r in whole
    ] == [("CERTIFIED_EXPOSED", 1)] * 5
    assert "weight_blocks" not in whole[0].diagnostics


def test_a_zero_map_is_refused_before_any_sample(monkeypatch):
    """A zero Choi matrix has no ray: ZeroWitness before any see-saw or face sample, with no warning."""

    def never(*args, **kwargs):
        raise AssertionError("a zero map reached the see-saw or the face sampler")

    monkeypatch.setattr(exposedness, "dual_face_samples", never)
    monkeypatch.setattr(exposedness, "is_block_positive", never)
    zero = map_from_choi(np.zeros((9, 9)), 3, 3)
    bh2 = breuer_hall(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert not np.any(bh2.choi)
    for call in (
        lambda: double_dual_nullspace(zero),
        lambda: exposedness_report(zero),
        lambda: exposedness_report(bh2),
        lambda: cone_search_off_ray(zero, np.eye(2, 81)),
    ):
        with pytest.raises(ZeroWitness, match="Choi matrix is zero"):
            call()
    assert issubclass(ZeroWitness, ConeWitnessError)


def test_a_frame_is_a_hint_that_never_changes_a_verdict():
    """A unitary frame that does not sparsify W costs speed only; one that is not unitary, or does not fit, is refused."""
    V = random_unitary(4, np.random.default_rng(3))
    # reduction is unitarily covariant: its W carried by any V is its own W
    rep = exposedness_report(_with_frame(reduction(4), V), rng=np.random.default_rng(0))
    assert (rep.verdict, rep.nullspace_dim, rep.diagnostics["weight_blocks"]) == ("NOT_EXPOSED", 36, 56)
    U = random_antisymmetric_unitary(4, np.random.default_rng(7))
    phi = breuer_hall(U)
    assert np.array_equal(phi.face.frame, youla_form(U))
    # another BH_4's Youla frame leaves this W dense: one block, the unframed verdict
    other = breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(8))).face.frame
    framed, unframed = (
        exposedness_report(_with_frame(phi, frame), rng=np.random.default_rng(0))
        for frame in (other, None)
    )
    assert (framed.verdict, framed.nullspace_dim) == (unframed.verdict, unframed.nullspace_dim)
    assert (framed.verdict, framed.nullspace_dim) == ("CERTIFIED_EXPOSED", 1)
    assert "weight_blocks" not in framed.diagnostics
    with pytest.raises(NotUnitary):
        _with_frame(phi, 2 * phi.face.frame)
    with pytest.raises(DimensionMismatch):
        _with_frame(phi, np.eye(3))


def test_a_haar_breuer_hall_map_pickles_with_its_frame_in_its_face():
    """The unpickled Haar BH_4 carries its Youla frame in its face and gives the same report bytes."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    phi = breuer_hall(U)
    copy = pickle.loads(pickle.dumps(phi))
    assert np.array_equal(copy.face.frame, youla_form(U))
    reports = [
        cli.canonical_json(exposedness_report(m, rng=np.random.default_rng(7))) for m in (phi, copy)
    ]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["diagnostics"]["weight_blocks"] == 26


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: require_unitary(np.full((4, 4), np.nan)), NotUnitary, id="unitary"),
        pytest.param(
            lambda: require_antisymmetric_unitary(np.full((4, 4), np.nan)),
            NotAntisymmetric,
            id="antisymmetric-unitary",
        ),
        pytest.param(lambda: verify_lemma1(np.eye(4), np.full(4, np.nan)), NotUnitVector, id="unit-vector"),
        pytest.param(lambda: _with_frame(reduction(4), np.full((4, 4), np.nan)), NotUnitary, id="frame"),
    ],
)
def test_nan_input_is_refused_with_its_documented_error(call, error):
    """A NaN defect is no pass: every check is ``not defect <= bound``."""
    with pytest.raises(error):
        call()


def test_haar_breuer_hall6_nullspace_in_its_youla_frame():
    """A Haar BH_6 has BH_K's nullity 15, carried back: the map's own Choi is in the span."""
    U = random_antisymmetric_unitary(6, np.random.default_rng(1234))
    phi = breuer_hall(U)
    dim, basis = double_dual_nullspace(phi, rng=np.random.default_rng(0))
    assert dim == 15
    rows = hermitian_to_coords(basis)
    c = hermitian_to_coords(phi.choi)
    assert np.linalg.norm(c - rows.T @ (rows @ c)) <= 1e-10 * np.linalg.norm(c)
    # each element stays first-order stationary on fresh pairs of the map's own face
    sample = dual_face_samples(phi, 20, np.random.default_rng(1))
    assert np.max(np.abs(stationarity_rows(sample.X, sample.Y) @ rows.T)) <= 1e-10


@pytest.mark.parametrize("k, count, widest", [(3, 43, 96), (4, 113, 168)])
def test_breuer_hall_weight_blocks_come_from_w_alone(k, count, widest, monkeypatch):
    """BH_6 and BH_8 with U = I_k (x) sigma_y: the partition needs no decomposition of any matrix.

    ``count`` torus-weight classes, the widest ``widest`` columns wide; W is
    real, so each class comes as two blocks, its diagonal and Re columns
    and then its Im columns.
    """

    def no_decomposition(*args, **kwargs):
        raise AssertionError("a matrix was decomposed")

    monkeypatch.setattr(np.linalg, "svd", no_decomposition)
    monkeypatch.setattr(np.linalg, "qr", no_decomposition)
    n = 2 * k
    d = n * n
    blocks = _weight_blocks(breuer_hall(np.kron(np.eye(k), SIGMA_Y)).choi, n, n, 0.0)
    assert len(blocks) == 2 * count
    assert max(len(blocks[t]) + len(blocks[t + 1]) for t in range(0, len(blocks), 2)) == widest
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d * d))
    # an entry's Im column sits in the block right after its Re column's,
    # the other half of the same class, and the diagonal is weight 0
    p = (d * d - d) // 2
    owner = np.empty(d * d, dtype=int)
    for t, cols in enumerate(blocks):
        owner[cols] = t
    assert np.all(owner[d : d + p] % 2 == 0)
    assert np.array_equal(owner[d : d + p] + 1, owner[d + p :])
    assert np.all(owner[:d] == 0)


def test_filling_a_zero_of_w_coarsens_the_blocks_and_keeps_the_nullity(monkeypatch):
    """A partition from a W with one zero pair filled is a union of classes, so it is still exact."""
    phi = reduction(3)
    W = phi.choi.copy()
    a, b = 1, 3  # entry ((0, 1), (1, 0)) of R_3's Choi matrix
    assert W[a, b] == 0 == W[b, a]
    W[a, b] = W[b, a] = 0.5
    fine, coarse = _weight_blocks(phi.choi, 3, 3, 0.0), _weight_blocks(W, 3, 3, 0.0)
    assert len(coarse) < len(fine)
    owner = np.empty(81, dtype=int)
    for t, cols in enumerate(coarse):
        owner[cols] = t
    assert all(np.all(owner[cols] == owner[cols[0]]) for cols in fine)
    dim = double_dual_nullspace(phi, rng=np.random.default_rng(0))[0]
    monkeypatch.setattr(exposedness, "_weight_blocks", lambda *args: coarse)
    assert double_dual_nullspace(phi, rng=np.random.default_rng(0))[0] == dim == 9


def test_robertson_face_gets_right_vectors_for_one_block_only(monkeypatch):
    """Robertson's face is one ray: of its 26 blocks only one is decomposed with vectors.

    Its basis is that block's own SVD with vectors, bit for bit.  The
    second sample's rank reads its 1 x 1 residual matrix's value alone,
    which is at most the cutoff, so it needs no vectors either.
    """
    phi = robertson()
    k = exposedness._checked_sample_count(phi, None)
    sample = dual_face_samples(phi, k, np.random.default_rng(0))
    C = stationarity_rows(sample.X, sample.Y)
    blocks = _weight_blocks(phi.choi, 4, 4, 0.0)
    assert len(blocks) == 26
    vector_svds = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            vector_svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rank, basis, sigma_max = svd_nullspace(C, blocks=blocks)
    assert rank == 255 and vector_svds == [(26, 26)]
    cutoff = NULLSPACE_REL_TOL * sigma_max
    parts = []
    for cols in blocks:
        R = np.linalg.qr(C[:, cols], mode="r")
        r = np.count_nonzero(np.linalg.svd(R, compute_uv=False) > cutoff)
        part = np.zeros((256, len(cols) - r))
        part[cols] = np.linalg.svd(R)[2][r:].T
        parts.append(part)
    want = np.hstack(parts)
    assert np.array_equal(basis.view(np.uint64), want.view(np.uint64))

    vector_svds.clear()
    assert double_dual_nullspace(phi, rng=np.random.default_rng(0))[0] == 1
    assert vector_svds == [(26, 26)]


def test_full_rank_first_block_is_refused_without_a_second_decomposition(monkeypatch):
    """A first block of full rank leaves nothing to project; the containment check refuses."""
    noise = np.random.default_rng(0)
    rows = exposedness.stationarity_rows
    monkeypatch.setattr(
        exposedness,
        "stationarity_rows",
        lambda X, Y, columns=None: noise.standard_normal(rows(X, Y, columns).shape),
    )
    calls = []
    qr, svd = np.linalg.qr, np.linalg.svd

    def counting_qr(a, *args, **kwargs):
        calls.append(("qr", a.shape))
        return qr(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    with pytest.raises(UnstableDimension, match="excludes the map's own Choi"):
        double_dual_nullspace(reduction(3), rng=np.random.default_rng(0))
    # one QR and one values-only SVD per representative block of the first
    # sample, no vectors and nothing of the second's
    phi = reduction(3)
    orbits = _weight_orbits(_weight_blocks(phi.choi, 3, 3, 0.0), phi.face.symmetries)
    widths = [len(positions) for positions in orbits.ranked]
    assert len(widths) == 8 and sum(widths) == orbits.columns.size == 37
    assert calls == [("qr", (2 * 6 * 13, w)) for w in widths] + [("svd", (w, w), False) for w in widths]


@pytest.mark.parametrize(
    "build, dim, n_orbits",
    [
        pytest.param(lambda: reduction(4), 36, 10, id="reduction-4"),
        pytest.param(robertson, 1, 12, id="robertson"),
        pytest.param(
            lambda: breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(1234))), 1, 12, id="haar-bh4"
        ),
        pytest.param(lambda: breuer_hall(np.kron(np.eye(3), SIGMA_Y)), 15, 14, id="bh6"),
    ],
)
def test_orbit_transport_is_exact_and_spans_each_blocks_own_null_space(build, dim, n_orbits, monkeypatch):
    """Every block's basis is its representative's rows under the recorded signed permutation, bit for bit.

    Each carried basis spans the null space that ranking the block's own
    columns gives, and the nullities of all blocks sum to the map's.
    """
    phi = build()
    calls, samples = [], []
    transported, sample_face = exposedness._transported, exposedness.dual_face_samples

    def recording_transport(orbits, null):
        calls.append((orbits, null, transported(orbits, null)))
        return calls[-1][-1]

    def recording_samples(*args):
        samples.append(sample_face(*args))
        return samples[-1]

    monkeypatch.setattr(exposedness, "_transported", recording_transport)
    monkeypatch.setattr(exposedness, "dual_face_samples", recording_samples)
    k = exposedness._checked_sample_count(phi, None)
    got, _, diag = exposedness._nullspace_with_diagnostics(phi, k, np.random.default_rng(0))
    ((orbits, null, V1),) = calls
    assert got == dim == V1.shape[1]
    assert diag["weight_orbits"] == len(orbits.ranked) == n_orbits
    # each orbit's nullity, and where each block's vectors sit in V1
    nullity = np.bincount(orbits.owner[np.argmax(null != 0, axis=0)], minlength=n_orbits)
    per_block = nullity[orbits.block_orbit]
    assert per_block.sum() == dim
    offset = np.cumsum(per_block) - per_block
    X, Y = samples[0].X, samples[0].Y
    if phi.face.frame is not None:
        X, Y = X @ phi.face.frame.conj(), Y @ phi.face.frame.conj()
    C = stationarity_rows(X, Y)
    for i, (members, cols, reads, negated) in enumerate(orbits.orbits):
        lanes = np.arange(nullity[i])
        rep = V1[cols[0][:, np.newaxis], offset[members[0]] + lanes]
        for row, t in enumerate(members):
            block = V1[cols[row][:, np.newaxis], offset[t] + lanes]
            want = rep[np.searchsorted(orbits.ranked[i], reads[row])]
            if negated is not None:
                want[negated[row]] = -want[negated[row]]
            assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
            own = svd_nullspace(C[:, cols[row]], scale=diag["sigma_max"])[1]
            assert own.shape[1] == nullity[i]
            assert np.linalg.norm(own - block @ (block.T @ own)) <= 1e-10


def test_symmetries_that_do_not_fix_w_are_dropped(monkeypatch):
    """A face's symmetries that do not fix W rank every block, with the verdict and nullity of no symmetries.

    Reduction-3's face on ``R_3 + 0.1 co_ad(A)``, A real antisymmetric,
    still vanishes on y = x but breaks S_3.  ``(D (x) I) R_3 (D (x) I)``
    keeps R_3's zero pattern, which S_3 permutes, but its face (harvested,
    as y = x misses it) is not symmetric: forcing the symmetries on it
    carries a wrong basis, which the second sample refuses.
    """
    R = reduction(3)
    A = np.random.default_rng(5).standard_normal((3, 3))
    D = np.kron(np.diag([1.0, 1.5, 2.0]), np.eye(3))
    scaled = LinearMatrixMap(3, 3, D @ R.choi @ D, R.face)
    for W in (R.choi + 0.1 * co_ad_map(A - A.T).choi, scaled.choi):
        phi = LinearMatrixMap(3, 3, W, R.face)
        plain = LinearMatrixMap(3, 3, W, Face(R.face.draw, R.face.pairing))
        assert exposedness._symmetries_fixing(W, R.face.symmetries, 0.0) == ()
        got, want = (exposedness_report(m, rng=np.random.default_rng(0)) for m in (phi, plain))
        assert (got.verdict, got.nullspace_dim) == (want.verdict, want.nullspace_dim) == ("NOT_EXPOSED", 9)
        assert got.diagnostics.pop("weight_orbits") == want.diagnostics["weight_blocks"]
        assert got.diagnostics == want.diagnostics
        assert np.array_equal(got.counterexample, want.counterexample)
    assert want.diagnostics["weight_blocks"] == 20
    monkeypatch.setattr(exposedness, "_symmetries_fixing", lambda W, symmetries, floor: symmetries)
    with pytest.raises(UnstableDimension, match=r"^nullspace dim 9 at 13 samples vs \d+ at 26$"):
        exposedness_report(scaled, rng=np.random.default_rng(0))


def test_a_nan_containment_residual_is_refused(monkeypatch):
    """A NaN residual is no pass: the containment check is ``not residual <= bound``."""
    residuals = exposedness._stationarity_residuals

    def nan_for_w(X, Y, H):
        R = residuals(X, Y, H)
        R[:, -1] = np.nan  # W's residuals, the last column
        return R

    monkeypatch.setattr(exposedness, "_stationarity_residuals", nan_for_w)
    with pytest.raises(UnstableDimension, match=r"^sampled face excludes the map's own Choi \(residual nan\)$"):
        double_dual_nullspace(reduction(3), rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "build, dim, n_orbits",
    [
        *(
            pytest.param(lambda n=n: reduction(n), dim, orbits, id=f"reduction-{n}")
            for n, dim, orbits in ((3, 9, 8), (4, 36, 10), (5, 100, 10))
        ),
        *(
            pytest.param(lambda n=n: transposition(n), 1, orbits, id=f"transpose-{n}")
            for n, orbits in ((3, 8), (4, 10), (5, 10))
        ),
    ],
)
def test_closed_form_nullity_curve(build, dim, n_orbits):
    """Reduction-n has nullity C(n, 2)^2 and transposition-n nullity 1, at n = 3, 4 and 5."""
    phi = build()
    k = exposedness._checked_sample_count(phi, None)
    got, _, diag = exposedness._nullspace_with_diagnostics(phi, k, np.random.default_rng(0))
    assert (got, diag["dim_at_k"], diag["weight_orbits"]) == (dim, dim, n_orbits)


def test_stationarity_rows_on_columns_are_the_full_rows_columns_bit_for_bit():
    """Rows on ascending columns are those columns of the full rows, signed zeros included; other columns are refused."""
    rng = np.random.default_rng(4)
    phi = breuer_hall(random_antisymmetric_unitary(4, rng))
    sample = dual_face_samples(phi, 9, rng)
    X, Y = sample.X @ phi.face.frame.conj(), sample.Y @ phi.face.frame.conj()
    C = stationarity_rows(X, Y)
    reduction_orbits = _weight_orbits(_weight_blocks(reduction(4).choi, 4, 4, 0.0), reduction(4).face.symmetries)
    for cols in (
        reduction_orbits.columns,
        np.sort(rng.choice(256, size=40, replace=False)),
        np.arange(256),
        [0],
        [255],
        np.arange(16, 136),
    ):
        got = stationarity_rows(X, Y, cols)
        assert got.flags.f_contiguous
        assert np.array_equal(got.view(np.uint64), C[:, cols].view(np.uint64))
    for bad in ([3, 2], [0, 0], [-1], [256], [], np.array([0.5]), np.eye(2, dtype=int)):
        with pytest.raises(ValueError):
            stationarity_rows(X, Y, bad)


def test_nullspace_dimension_change_is_refused(monkeypatch, capsys):
    """A second sample off the face leaves no null space; the report refuses, the CLI exits 2."""
    sample_face = exposedness.dual_face_samples

    def second_sample_off_face(phi, count, rng=None):
        sample = sample_face(phi, count, rng)
        calls.append(count)
        if len(calls) != 2:
            return sample
        noise = noise_rng.standard_normal((count, 2, phi.dim_out))
        Y = noise[:, 0] + 1j * noise[:, 1]
        Y = fix_phase(Y / np.linalg.norm(Y, axis=1, keepdims=True))
        return DualFaceSample(sample.X, Y, sample.values, sample.source)

    message = "nullspace dim 9 at 13 samples vs 0 at 26"
    monkeypatch.setattr(exposedness, "dual_face_samples", second_sample_off_face)
    calls, noise_rng = [], np.random.default_rng(0)
    with pytest.raises(UnstableDimension, match=f"^{message}$"):
        exposedness_report(reduction(3), rng=np.random.default_rng(0))
    assert calls == [13, 13]

    calls, noise_rng = [], np.random.default_rng(0)
    capsys.readouterr()
    assert cli.main(["exposedness", "reduction", "--n", "3", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_constraint_monotonicity():
    """Adding pairs never grows the null space."""
    rng = np.random.default_rng(10)
    sample = dual_face_samples(transposition(2), 64, rng)
    C_half = _per_pair_rows(sample.X[:32], sample.Y[:32])[0]
    C_full = _per_pair_rows(sample.X, sample.Y)[0]
    rank_half, _, _ = svd_nullspace(C_half)
    rank_full, _, _ = svd_nullspace(C_full)
    assert 16 - rank_full <= 16 - rank_half


# ---------------------------------------------------------------------------
# cone search and verdicts


def test_cone_search_finds_reduction3_counterexample():
    rng = np.random.default_rng(11)
    phi = reduction(3)
    dim, basis = double_dual_nullspace(phi, rng=rng)
    cand = cone_search_off_ray(phi, hermitian_to_coords(basis), budget=2000, rng=rng)
    assert cand is not None
    assert not is_ray_proportional(cand, choi_of(phi))
    verdict, _ = is_block_positive(map_from_choi(cand, 3, 3), SeeSawConfig(), rng)
    assert verdict == "EVIDENCE_BP"


def test_cone_search_trivial_when_dim_one():
    rng = np.random.default_rng(12)

    phi = reduction(2)
    dim, basis = double_dual_nullspace(reduction(2), rng=rng)
    rows = hermitian_to_coords(basis)
    assert cone_search_off_ray(phi, rows, budget=100, rng=rng) is None


def test_cone_search_reads_no_face_sample(monkeypatch):
    """The search draws no face pairs; a report draws two samples and one for validation."""
    phi = reduction(3)
    dim, basis = double_dual_nullspace(phi, rng=np.random.default_rng(11))
    monkeypatch.setattr(exposedness, "dual_face_samples", _must_not_run)
    rng = np.random.default_rng(11)
    cand = cone_search_off_ray(phi, hermitian_to_coords(basis), budget=2000, rng=rng)
    assert dim == 9 and cand is not None and not is_ray_proportional(cand, phi.choi)
    monkeypatch.undo()
    draws = []
    sampler = exposedness.dual_face_samples
    monkeypatch.setattr(
        exposedness, "dual_face_samples", lambda *args: draws.append(args[1]) or sampler(*args)
    )
    rep = exposedness_report(phi, rng=np.random.default_rng(7))
    assert rep.verdict == "NOT_EXPOSED" and len(draws) == 3


def test_probe_pairings_equal_witness_pairing_per_basis_element():
    """A cutting plane's pairings equal W's pairing with each basis element at each product vector."""
    phi = reduction(4)
    rng = np.random.default_rng(5)
    dim, basis = double_dual_nullspace(phi, rng=rng)
    rows = hermitian_to_coords(basis)
    X = np.stack([random_unit_vector(4, rng) for _ in range(40)])
    Y = np.stack([random_unit_vector(4, rng) for _ in range(40)])
    Z = product_vector(X, Y)
    want = np.stack([witness_pairing(coords_to_hermitian(r, 16), X, Y) for r in rows], axis=1)
    # the cone search's plane: one (1, d^2) row of coordinates per product vector
    got = np.concatenate([hermitian_to_coords(np.outer(z, z.conj()))[np.newaxis] @ rows.T for z in Z])
    assert dim == 36 and got.shape == (len(Z), dim)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the full outer product gives, bitwise, the coordinates of the entries
    # z_a conj(z_b) that the coordinates read, formed one by one
    a, b, parts = _column_reads(16, None)
    read = np.empty((len(Z), 256))
    _write_coords(np.multiply(Z[:, a], Z[:, b].conj()).T, parts, read.T)
    assert np.array_equal(got, np.concatenate([c[np.newaxis] @ rows.T for c in read]))


def test_a_refuted_candidate_becomes_a_cutting_plane_and_the_search_goes_on(monkeypatch):
    """The search's one certifier refutes a candidate: its argmin becomes a cutting plane.

    The first in-search certification is forced to CERTIFIED_NOT_BP; the
    search goes on, and the report still finds a validated counterexample,
    off the refuted candidate's ray.  The ladder's spectral rungs are made
    to decline, as every counterexample of the reduction map is coCP, so
    that each certification reaches the see-saw.
    """
    phi = reduction(3)
    real = exposedness.is_block_positive
    to_coords = exposedness.hermitian_to_coords
    calls, refuted, converted = [], [], []

    def decline(spectral):
        return lambda cand_map: (False, spectral(cand_map)[1])

    def refute_first_candidate(cand_map, config, rng):
        verdict, report = real(cand_map, config, rng)
        assert config == SeeSawConfig()
        if not refuted:
            calls.append("refuted")
            refuted.append((cand_map.choi, report.argmin))
            return "CERTIFIED_NOT_BP", report
        calls.append(verdict)
        return verdict, report

    def recording_coords(A):
        converted.append(np.array(A))
        return to_coords(A)

    monkeypatch.setattr(exposedness, "is_block_positive", refute_first_candidate)
    monkeypatch.setattr(exposedness, "hermitian_to_coords", recording_coords)
    for name in ("is_completely_positive", "is_completely_copositive"):
        monkeypatch.setattr(exposedness, name, decline(getattr(exposedness, name)))
    rep = exposedness_report(phi, rng=np.random.default_rng(0))
    assert rep.verdict == "NOT_EXPOSED" and rep.nullspace_dim == 9
    assert rep.diagnostics["counterexample_certificate"] == "see-saw"
    # the reduction map is positive by its identity, so no see-saw runs for
    # it: the refuted candidate, at least one more search certification, and
    # the validation of the counterexample
    assert rep.diagnostics["positivity"] == "identity"
    assert calls[0] == "refuted" and len(calls) >= 3
    assert set(calls[1:]) == {"EVIDENCE_BP"}
    # the cutting plane is the refuted candidate's argmin z, as |z><z|
    cand, argmin = refuted[0]
    z = product_vector(argmin.x, argmin.y)
    assert any(A.shape == (9, 9) and np.array_equal(A, np.outer(z, z.conj())) for A in converted)
    assert not is_ray_proportional(rep.counterexample, cand)


def test_choi_101_at_budget_two_takes_the_cut_and_repair_path(monkeypatch):
    """At budget 2 and seed 0, the search's certifier refutes one candidate and accepts its repair."""
    phi = choi_family(1.0, 0.0, 1.0)
    real = exposedness.is_block_positive
    calls = []

    def recording(cand_map, config, rng):
        verdict, report = real(cand_map, config, rng)
        calls.append((verdict, cand_map.choi))
        return verdict, report

    monkeypatch.setattr(exposedness, "is_block_positive", recording)
    rep = exposedness_report(phi, budget=2, rng=np.random.default_rng(0))
    assert (rep.verdict, rep.nullspace_dim) == ("NOT_EXPOSED", 14)
    assert rep.diagnostics["counterexample_certificate"] == "see-saw"
    # the precondition, the search's two certifications, the validation
    verdicts = [verdict for verdict, _ in calls]
    assert verdicts == ["EVIDENCE_BP", "CERTIFIED_NOT_BP", "EVIDENCE_BP", "EVIDENCE_BP"]
    cut, repaired, validated = (choi for _, choi in calls[1:])
    assert np.array_equal(repaired, validated) and np.array_equal(rep.counterexample, repaired)
    assert not is_ray_proportional(cut, repaired)


@pytest.mark.parametrize(
    "phi, budget",
    [
        pytest.param(reduction(3), 2000, id="reduction-3"),
        pytest.param(reduction(4), 2000, id="reduction-4"),
        pytest.param(choi_family(1.0, 0.0, 1.0), 2, id="choi-101-budget-2"),
    ],
)
def test_cone_search_candidate_depends_on_the_span_alone(phi, budget):
    """A basis turned by a random orthogonal matrix gives the same candidate to round-off."""
    dim, basis = double_dual_nullspace(phi, rng=np.random.default_rng(0))
    rows = hermitian_to_coords(basis)
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((dim, dim)))
    cand, turned = (cone_search_off_ray(phi, B, budget, np.random.default_rng(2)) for B in (rows, Q @ rows))
    assert cand is not None and turned is not None
    assert frobenius(cand - turned) <= 1e-12


def test_report_searches_the_rows_double_dual_nullspace_converts(monkeypatch):
    """The cone search gets the ranked coordinate rows; the public basis is them as matrices."""
    seen = {}
    nullspace = exposedness._nullspace_with_diagnostics
    search = exposedness.cone_search_off_ray

    def recording_nullspace(phi, k, rng):
        seen["state"] = rng.bit_generator.state
        return nullspace(phi, k, rng)

    def recording_search(phi, basis, *args):
        seen["rows"] = basis
        return search(phi, basis, *args)

    monkeypatch.setattr(exposedness, "_nullspace_with_diagnostics", recording_nullspace)
    monkeypatch.setattr(exposedness, "cone_search_off_ray", recording_search)
    rep = exposedness_report(reduction(3), rng=np.random.default_rng(3))
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    dim, basis = double_dual_nullspace(reduction(3), rng=rng)
    assert seen["rows"].shape == (dim, 81) and rep.nullspace_dim == dim
    assert np.array_equal(basis, coords_to_hermitian(seen["rows"], 9))


def test_cone_search_refuses_hermitian_basis():
    phi = reduction(3)
    dim, basis = double_dual_nullspace(reduction(3), rng=np.random.default_rng(4))
    for bad in (basis, basis[:1], hermitian_to_coords(basis)[:, :80]):
        with pytest.raises(DimensionMismatch, match="is not rows"):
            cone_search_off_ray(phi, bad, budget=10, rng=np.random.default_rng(4))


def test_exposedness_verdicts():
    rep = exposedness_report(reduction(2), rng=np.random.default_rng(13))
    assert rep.verdict == "CERTIFIED_EXPOSED"
    assert rep.nullspace_dim == 1
    assert rep.counterexample is None

    rep = exposedness_report(transposition(2), rng=np.random.default_rng(14))
    assert rep.verdict != "NOT_EXPOSED"

    rep = exposedness_report(reduction(3), rng=np.random.default_rng(15))
    assert rep.verdict == "NOT_EXPOSED"
    assert rep.nullspace_dim == 9
    W_prime = rep.counterexample
    assert W_prime is not None
    # re-validate the counterexample from scratch
    assert not is_ray_proportional(W_prime, choi_of(reduction(3)))
    fresh = dual_face_samples(reduction(3), 64, np.random.default_rng(16))
    C = _per_pair_rows(fresh.X, fresh.Y)[0]
    coords = hermitian_to_coords(W_prime)
    coords = coords / np.linalg.norm(coords)
    assert np.max(np.abs(C @ coords)) <= 1e-8
    verdict, _ = is_block_positive(
        map_from_choi(W_prime, 3, 3), SeeSawConfig(), np.random.default_rng(17)
    )
    assert verdict == "EVIDENCE_BP"


def test_rejected_candidate_leaves_no_counterexample(monkeypatch):
    # the search finds a candidate on reduction(3) at this seed (see
    # test_exposedness_verdicts); a failed re-validation must withhold it
    # and the certifier report that came with it
    validate = exposedness._validate_counterexample

    def reject(*args):
        _, report = validate(*args)
        assert report is not None
        return False, report

    monkeypatch.setattr(exposedness, "_validate_counterexample", reject)
    rep = exposedness_report(reduction(3), rng=np.random.default_rng(15))
    assert rep.verdict == "CONSISTENT_WITH_EXPOSED"
    assert rep.counterexample is None
    assert rep.counterexample_report is None
    assert rep.diagnostics["rejected_candidate"] is True


def test_exposedness_breuer_hall_and_robertson_not_refuted():
    rng = np.random.default_rng(18)
    U = random_antisymmetric_unitary(4, rng)
    rep = exposedness_report(breuer_hall(U), rng=np.random.default_rng(19))
    assert rep.verdict != "NOT_EXPOSED"
    rep = exposedness_report(robertson(), rng=np.random.default_rng(20))
    assert rep.verdict != "NOT_EXPOSED"


def test_exposedness_requires_block_positivity():
    phi = choi_family(0.5, 0.3, 0.7)
    with pytest.raises(NotBlockPositive):
        exposedness_report(phi, rng=np.random.default_rng(21))
    # a closed-form face attached to it changes nothing: W misses the face's
    # identity, so the see-saw decides
    faced = LinearMatrixMap(3, 3, phi.choi, face=reduction(3).face)
    with pytest.raises(NotBlockPositive):
        exposedness_report(faced, rng=np.random.default_rng(21))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tomographic_pairs_span_the_hermitian_matrices(n):
    X, Y = exposedness._tomographic_pairs(n, n)
    Z = product_vector(X, Y)
    rows = hermitian_to_coords(Z[:, :, np.newaxis] * Z[:, np.newaxis, :].conj())
    assert rows.shape == ((n * n) ** 2, (n * n) ** 2)
    assert np.linalg.matrix_rank(rows) == (n * n) ** 2


def test_closed_form_maps_are_positive_by_their_identity(monkeypatch):
    """No see-saw runs before the exposedness pipeline of a closed-form map."""

    def never(*args, **kwargs):
        raise AssertionError("the see-saw ran")

    monkeypatch.setattr(exposedness, "is_block_positive", never)
    haar = breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(1234)))
    for phi in (transposition(3), robertson(), haar):
        rep = exposedness_report(phi, rng=np.random.default_rng(0))
        assert rep.verdict == "CERTIFIED_EXPOSED"
        assert rep.diagnostics["positivity"] == "identity"


@pytest.mark.parametrize(
    "phi, verdict, rung",
    [
        pytest.param(reduction(3), "NOT_EXPOSED", "cocp", id="reduction-3"),
        pytest.param(transposition(3), "CERTIFIED_EXPOSED", "cocp", id="transpose-3"),
        pytest.param(
            breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(1234))),
            "CERTIFIED_EXPOSED",
            "see-saw",
            id="haar-bh-4",
        ),
    ],
)
def test_a_face_off_its_identity_falls_back_to_the_seesaw(phi, verdict, rung):
    """W + eps I fails its face's identity, so the rest of the ladder decides, and the verdict stays.

    The reduction map and the transposition are coCP, and stay so with
    eps I added; a Breuer-Hall map is neither CP nor coCP, so the see-saw
    decides.
    """
    d = phi.dim_in * phi.dim_out
    rep = exposedness_report(phi, rng=np.random.default_rng(0))
    assert (rep.verdict, rep.diagnostics["positivity"]) == (verdict, "identity")
    W = phi.choi + 1e-10 * np.eye(d)
    off = LinearMatrixMap(phi.dim_in, phi.dim_out, W, face=phi.face)
    rep = exposedness_report(off, rng=np.random.default_rng(0))
    assert (rep.verdict, rep.diagnostics["positivity"]) == (verdict, rung)


@pytest.mark.parametrize("seed", range(5))
def test_reduction_counterexamples_are_cocp_with_no_seesaw(seed, monkeypatch):
    """The reduction map's face holds coCP maps (Lemma 1): no see-saw runs in its reports.

    Read from a file, as a bare Choi matrix with no closed-form face, the
    map itself is settled positive as coCP too.
    """

    def never(*args, **kwargs):
        raise AssertionError("the see-saw ran")

    monkeypatch.setattr(exposedness, "is_block_positive", never)
    read = map_from_choi(reduction(3).choi, 3, 3)
    for phi, dim, positivity in (
        (reduction(3), 9, "identity"),
        (reduction(4), 36, "identity"),
        (read, 9, "cocp"),
    ):
        rep = exposedness_report(phi, rng=np.random.default_rng(seed))
        assert (rep.verdict, rep.nullspace_dim) == ("NOT_EXPOSED", dim)
        assert rep.diagnostics["positivity"] == positivity
        assert rep.diagnostics["counterexample_certificate"] == "cocp"
        assert rep.counterexample_report is None
        assert "counterexample_min_pairing" not in rep.diagnostics
        # the stated eigenvalue is the smallest of the counterexample's partial transpose
        W = rep.counterexample
        d = phi.dim_in
        pt = W.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
        lam = rep.diagnostics["counterexample_min_eigenvalue"]
        assert lam == np.linalg.eigvalsh(pt)[0] and lam >= -1e-10 * max(1.0, frobenius(W))


@pytest.mark.parametrize("large", [False, True], ids=["relative", "large-scale"])
@pytest.mark.parametrize("side", ["cp", "cocp"])
def test_the_spectral_rungs_refuse_a_slightly_negative_eigenvalue(side, large, monkeypatch):
    """An eigenvalue of -1e-6 ||W||_F on the checked side sends the candidate to the see-saw.

    So does one of -1e-8 at ||W||_F = 1e3: it passes the relative PSD
    cutoff (-1e-7), but lies below -VIOLATION_TOL, where the see-saw could
    refute.
    """
    rng = np.random.default_rng(6)
    G = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    B = G @ G.conj().T  # rank 4: five zero eigenvalues
    if large:
        B *= 1e3 / frobenius(B)
    v = np.linalg.eigh(B)[1][:, 0]
    seesaw = []
    monkeypatch.setattr(
        exposedness, "is_block_positive", lambda *args: seesaw.append(args) or ("EVIDENCE_BP", None)
    )

    def ladder(B):
        W = B if side == "cp" else B.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
        return exposedness._positivity(map_from_choi(W, 3, 3), np.random.default_rng(0))

    # at the boundary the rung certifies, and nothing reaches the see-saw
    kind, positive, lam = ladder(B)
    assert (kind, positive, seesaw) == (side, True, [])
    assert lam >= max(-1e-10 * frobenius(B), -VIOLATION_TOL)
    dip = 1e-8 if large else 1e-6 * frobenius(B)
    B_off = B - dip * np.outer(v, v.conj())
    lam_off = np.linalg.eigvalsh(B_off)[0]
    assert lam_off <= -0.99 * dip
    if large:
        assert lam_off > -PSD_ATOL * frobenius(B_off) and lam_off < -VIOLATION_TOL
    kind, positive, _ = ladder(B_off)
    assert (kind, positive, len(seesaw)) == ("see-saw", True, 1)


def test_exposedness_determinism():
    a = exposedness_report(reduction(3), rng=np.random.default_rng(22))
    b = exposedness_report(reduction(3), rng=np.random.default_rng(22))
    assert a.verdict == b.verdict
    assert a.nullspace_dim == b.nullspace_dim
    assert np.array_equal(a.counterexample, b.counterexample)


def test_exposedness_diagnostics_contract():
    rep = exposedness_report(reduction(2), rng=np.random.default_rng(23))
    diag = rep.diagnostics
    assert diag["dim_at_k"] == diag["dim_at_2k"] == 1
    assert diag["choi_containment_residual"] <= 10 * 1e-8 * max(diag["sigma_max"], 1.0)
    assert rep.samples_used == diag["sample_count"]
    # R_2's W is real: three weight classes, each split into its diagonal
    # and Re columns and its Im columns, the widest 5 of the 16 columns
    assert diag["weight_blocks"] == 6 and diag["largest_block"] == 5


# a + b + c = 2 and bc = (1 - a)^2 with a = 1/2: exposed (Ha and Kye, OSID 2011)
HA_KYE = choi_family(0.5, 0.19098300562505255, 1.3090169943749475)


@pytest.mark.parametrize(
    "phi, seed, expected, budget",
    [
        pytest.param(HA_KYE, 0, "CERTIFIED_EXPOSED", 2000, id="ha-kye-0"),
        pytest.param(HA_KYE, 1, "CERTIFIED_EXPOSED", 2000, id="ha-kye-1"),
        pytest.param(HA_KYE, 2, "CERTIFIED_EXPOSED", 2000, id="ha-kye-2"),
        pytest.param(HA_KYE, 19, "CERTIFIED_EXPOSED", 2000, id="ha-kye-19"),
        pytest.param(HA_KYE, 32, "CERTIFIED_EXPOSED", 2000, id="ha-kye-32"),
        pytest.param(
            map_from_choi(choi_of(robertson()), 4, 4),
            0,
            "CERTIFIED_EXPOSED",
            2000,
            id="raw-choi-robertson-0",
        ),
        pytest.param(
            map_from_choi(choi_of(reduction(3)), 3, 3),
            0,
            "NOT_EXPOSED",
            2000,
            id="raw-choi-reduction3-0",
        ),
        # the first candidate is cut, and the repaired one is the counterexample
        # (test_choi_101_at_budget_two_takes_the_cut_and_repair_path pins the
        # path): a budget of two leaves no other way to reach the verdict
        pytest.param(
            choi_family(1.0, 0.0, 1.0), 0, "NOT_EXPOSED", 2, id="choi-101-0"
        ),
    ],
)
def test_numeric_harvest_literature_verdicts(phi, seed, expected, budget):
    """Verdicts decided through the numeric face harvest match the literature."""
    rep = exposedness_report(phi, budget=budget, rng=np.random.default_rng(seed))
    assert rep.verdict == expected


@pytest.mark.parametrize("seed", range(4))
def test_polished_harvest_pairs_are_stationary(seed):
    """The harvest's polish puts each pair's stationarity residual far below the rank cutoff."""
    sample = dual_face_samples(HA_KYE, 39, np.random.default_rng(seed))
    assert sample.source == "numeric"
    w = hermitian_to_coords(ray_representative(choi_of(HA_KYE)))
    assert np.max(np.abs(stationarity_rows(sample.X, sample.Y) @ w)) <= 1e-10


def test_value_rows_add_no_rank_to_stationarity_rows():
    """A pair's value row is a real combination of its own stationarity rows."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(31))
    for phi, k in (
        (robertson(), 23),
        (reduction(3), 13),
        (breuer_hall(U), 23),
        (choi_family(1.0, 0.0, 1.0), 39),
    ):
        sample = dual_face_samples(phi, k, np.random.default_rng(32))
        S = stationarity_rows(sample.X, sample.Y)
        C = _per_pair_rows(sample.X, sample.Y)[0]
        rank_s, _, _ = svd_nullspace(S)
        rank_sc, _, _ = svd_nullspace(np.vstack([S, C]))
        assert rank_s < S.shape[1] and rank_sc == rank_s


# ---------------------------------------------------------------------------
# optimality and the structural verifiers


def test_optimality_spanning():
    assert optimality_spanning_check(reduction(2), rng=np.random.default_rng(24)) == (True, 4)
    assert optimality_spanning_check(reduction(3), rng=np.random.default_rng(25)) == (True, 9)
    with pytest.raises(InsufficientZeros):
        optimality_spanning_check(
            map_from_choi(np.eye(4), 2, 2), rng=np.random.default_rng(26)
        )


def test_optimality_refuses_a_sample_too_small_to_span(monkeypatch):
    """Fewer than nm pairs cannot span C^n (x) C^m, so the question is refused, not answered."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("face sampled")

    monkeypatch.setattr(exposedness, "dual_face_samples", no_sampling)
    for phi, count, floor in (
        (reduction(3), 4, 9), (robertson(), 10, 16), (robertson(), 15, 16)
    ):
        with pytest.raises(ValueError, match=rf"sample_count must be at least {floor}$"):
            optimality_spanning_check(phi, sample_count=count)
    monkeypatch.undo()
    # the floor itself is accepted, and spans on the reduction's face
    assert optimality_spanning_check(reduction(3), 9, np.random.default_rng(24)) == (True, 9)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a stage ran on a refused input")


def test_report_sample_count_must_be_an_integer(monkeypatch):
    monkeypatch.setattr(exposedness, "is_block_positive", _must_not_run)
    with pytest.raises(TypeError):
        exposedness_report(reduction(3), sample_count=13.9)
    monkeypatch.undo()
    dim, _ = double_dual_nullspace(reduction(3), np.int64(13), np.random.default_rng(9))
    assert dim == 9


def test_optimality_sample_count_must_be_an_integer(monkeypatch):
    monkeypatch.setattr(exposedness, "dual_face_samples", _must_not_run)
    with pytest.raises(TypeError):
        optimality_spanning_check(reduction(3), sample_count=81.7)
    monkeypatch.undo()
    spans = optimality_spanning_check(reduction(3), np.int64(9), np.random.default_rng(24))
    assert spans == (True, 9)


def test_budget_must_be_an_integer(monkeypatch):
    phi = reduction(3)
    dim, basis = double_dual_nullspace(reduction(3), rng=np.random.default_rng(4))
    rows = hermitian_to_coords(basis)
    with pytest.raises(TypeError):
        cone_search_off_ray(phi, rows, budget=2.5, rng=np.random.default_rng(4))
    assert cone_search_off_ray(phi, rows, np.int64(0), np.random.default_rng(4)) is None
    monkeypatch.setattr(exposedness, "is_block_positive", _must_not_run)
    with pytest.raises(TypeError):
        exposedness_report(reduction(3), budget=2.5)


def test_face_sample_count_must_be_an_integer():
    with pytest.raises(TypeError):
        dual_face_samples(reduction(3), 2.5, np.random.default_rng(0))
    sample = dual_face_samples(reduction(3), np.int64(5), np.random.default_rng(0))
    assert sample.X.shape == (5, 3) and sample.source == "analytic"


def test_verify_lemma1():
    assert verify_lemma1(np.eye(2), np.array([1.0, 0.0])) < 1e-12
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(20):
        V = random_unitary(4, rng)
        x = random_unit_vector(4, rng)
        worst = max(worst, verify_lemma1(V, x))
    assert worst < 1e-10
    with pytest.raises(NotUnitVector):
        verify_lemma1(np.eye(2), np.array([2.0, 0.0]))
    with pytest.raises(OddDimension):
        verify_lemma1(np.eye(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotUnitary):
        verify_lemma1(np.ones((2, 2)), np.array([1.0, 0.0]))


def test_verify_bh_structure_robertson_unitary():
    U = robertson_unitary()
    x = np.zeros(4, dtype=complex)
    x[0] = 1.0
    rep = verify_bh_structure(U, x)
    assert rep.passed
    assert rep.check_i and rep.check_ii and rep.check_iii and rep.check_iv
    assert rep.apply_residual < 1e-11
    assert rep.remark1_residual < 1e-12
    assert abs(rep.orthogonality_value) < 1e-12
    assert rep.p2_value < -0.5
    # the refuting vector is orthogonal to both kernel directions
    assert abs(np.vdot(rep.p2_witness, x)) < 1e-9
    assert abs(np.vdot(rep.p2_witness, U @ x.conj())) < 1e-9


def test_verify_bh_structure_random_and_contrived_x():
    rng = np.random.default_rng(28)
    U = random_antisymmetric_unitary(6, rng)
    x = random_unit_vector(6, rng)
    rep = verify_bh_structure(U, x)
    assert rep.passed
    # orthogonality holds even when x is built from U itself
    e1 = np.zeros(6, dtype=complex)
    e1[0] = 1.0
    mix = e1 + U @ e1.conj()
    mix = mix / np.linalg.norm(mix)
    rep = verify_bh_structure(U, mix)
    assert abs(rep.orthogonality_value) < 1e-12


def test_verify_bh_structure_on_a_stack_builds_the_maps_once(monkeypatch):
    """A stack of x gives one report per row, each the bytes of its own call, from one set of Choi matrices."""
    rng = np.random.default_rng(29)
    U = random_antisymmetric_unitary(6, rng)
    X = np.stack([random_unit_vector(6, rng) for _ in range(4)])
    singles = [cli.canonical_json(verify_bh_structure(U, x)) for x in X]
    builds = []
    build = exposedness.breuer_hall
    monkeypatch.setattr(exposedness, "breuer_hall", lambda U: builds.append(U) or build(U))
    reps = verify_bh_structure(U, X)
    assert [cli.canonical_json(rep) for rep in reps] == singles
    assert len(builds) == 1
    with pytest.raises(DimensionMismatch):
        verify_bh_structure(U, X[:, :4])


def test_reduction4_decomposes_into_breuer_hall_pair():
    """A counterexample for the n=4 reduction exists by explicit decomposition."""
    rng = np.random.default_rng(29)
    U = random_antisymmetric_unitary(4, rng)
    W_prime = 2.0 * choi_of(breuer_hall(U))
    W_second = 2.0 * choi_of(co_ad_map(U))
    assert frobenius(W_prime + W_second - 2.0 * choi_of(reduction(4))) < 1e-12
    for W in (W_prime, W_second):
        verdict, _ = is_block_positive(map_from_choi(W, 4, 4), SeeSawConfig(), rng)
        assert verdict == "EVIDENCE_BP"
    # and the pair witnesses non-extremeness: both sit on the face of R4
    sample = dual_face_samples(reduction(4), 32, rng)
    C = _per_pair_rows(sample.X, sample.Y)[0]
    for W in (W_prime, W_second):
        coords = hermitian_to_coords(W)
        coords = coords / np.linalg.norm(coords)
        assert np.max(np.abs(C @ coords)) < 1e-8


def test_exposedness_reduction4():
    rep = exposedness_report(reduction(4), rng=np.random.default_rng(30))
    assert rep.verdict == "NOT_EXPOSED"
    assert rep.nullspace_dim == 36


def test_breuer_hall6_nullspace_dimension():
    """BH_6 with U = I_3 (x) sigma_y: nullity 15, the dimension C(6, 4) of the 4-form maps."""
    U = np.kron(np.eye(3), SIGMA_Y)
    dim, basis = double_dual_nullspace(breuer_hall(U), rng=np.random.default_rng(0))
    assert dim == 15
    assert basis.shape == (15, 36, 36)


def test_breuer_hall6_is_not_exposed():
    """BH_6 with U = I_3 (x) sigma_y is NOT_EXPOSED at seeds 0-4: nullity 15, a counterexample off W's ray."""
    phi = breuer_hall(np.kron(np.eye(3), SIGMA_Y))
    for seed in range(5):
        rep = exposedness_report(phi, rng=np.random.default_rng(seed))
        assert rep.verdict == "NOT_EXPOSED"
        assert rep.nullspace_dim == 15
        assert rep.diagnostics["weight_blocks"] == 86
        assert not is_ray_proportional(rep.counterexample, phi.choi)
