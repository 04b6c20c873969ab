"""Dual-face sampling, null spaces, cone search, and the exposedness verdicts."""

import warnings

import numpy as np
import pytest

from conewitness.catalog import (
    BreuerHall,
    ChoiFamily,
    FromChoi,
    Reduction,
    Robertson,
    SIGMA_Y,
    Transposition,
    build_map,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    robertson,
    robertson_unitary,
)
from conewitness.config import ANTISYM_ATOL, ZERO_TOL
from conewitness.errors import (
    DimensionMismatch,
    InsufficientZeros,
    NotBlockPositive,
    NotUnitVector,
    NotUnitary,
    OddDimension,
    UnstableDimension,
)
from conewitness.linalg import (
    coords_to_hermitian,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    random_unit_vector,
    random_unitary,
    svd_nullspace,
)
from conewitness.maps import (
    choi_of,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    ray_representative,
    witness_pairing,
)
from conewitness.positivity import SeeSawConfig, is_block_positive
from conewitness import exposedness
from conewitness.exposedness import (
    cone_search_off_ray,
    double_dual_nullspace,
    dual_face_samples,
    exposedness_report,
    optimality_spanning_check,
    stationarity_rows,
    verify_bh_structure,
    verify_lemma1,
)


def random_hermitian(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


# ---------------------------------------------------------------------------
# dual face sampling


def test_transposition_face_pairs():
    sample = dual_face_samples(Transposition(n=3), 100, np.random.default_rng(0))
    assert sample.source == "analytic"
    assert len(sample.pairs) == 100
    for pair in sample.pairs:
        # the face of the transposition is <conj(x)|y> = 0
        assert abs(pair.x @ pair.y) < 1e-12
        assert abs(pair.value) <= 1e-9


def test_reduction_face_pairs_are_diagonal():
    sample = dual_face_samples(Reduction(n=3), 50, np.random.default_rng(1))
    assert len(sample.pairs) == 50
    for pair in sample.pairs:
        assert abs(abs(np.vdot(pair.x, pair.y)) - 1.0) < 1e-10
        assert abs(pair.value) <= 1e-9


def test_breuer_hall_face_pairs_hit_both_circles():
    rng = np.random.default_rng(2)
    U = random_antisymmetric_unitary(4, rng)
    sample = dual_face_samples(BreuerHall(U=U), 40, rng)
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

    def per_pair(desc, U, count, n, rng):
        W_hat = ray_representative(choi_of(build_map(desc)))
        pairs = []
        for i in range(count):
            x = random_unit_vector(n, rng)
            if isinstance(desc, Transposition):
                y = random_unit_vector(n, rng)
                y = y - x.conj() * (x @ y)
                y = y / np.linalg.norm(y)
            elif isinstance(desc, Reduction) or i % 2 == 0:
                y = x
            else:
                y = U @ x.conj()
            assert abs(witness_pairing(W_hat, x, y)) <= ZERO_TOL
            pairs.append((fix_phase(x), fix_phase(y)))
        return pairs

    U = random_antisymmetric_unitary(4, np.random.default_rng(8))
    cases = [
        (Transposition(n=3), None, 3),
        (Reduction(n=4), None, 4),
        (Robertson(), robertson_unitary(), 4),
        (BreuerHall(U=U), U, 4),
    ]
    for desc, U_desc, n in cases:
        sample = dual_face_samples(desc, 60, np.random.default_rng(9))
        assert sample.source == "analytic"
        _assert_rows_are_pairs(sample, 60, n, n)
        want = per_pair(desc, U_desc, 60, n, np.random.default_rng(9))
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
    for desc, U_desc, n in cases[:3]:
        calls = []
        sample = dual_face_samples(desc, 60, np.random.default_rng(9))
        assert sample.source == "numeric" and calls[0] == 60 and len(calls) > 1
        _assert_rows_are_pairs(sample, 60, n, n)
        want = per_pair(desc, U_desc, 60, n, np.random.default_rng(9))
        kept = want[:5] + want[6:]
        for x, y, (x_want, y_want) in zip(sample.X, sample.Y, kept):
            assert np.array_equal(x, x_want) and np.array_equal(y, y_want)
        W_hat = ray_representative(choi_of(build_map(desc)))
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
    sample = dual_face_samples(BreuerHall(U=U), 200, np.random.default_rng(13))
    assert sample.source == "analytic"
    assert sample.values.shape == (200,) and np.max(np.abs(sample.values)) <= ZERO_TOL


def test_numeric_harvest_for_plain_choi_input():
    W = choi_of(co_ad_map(np.eye(3)))  # transposition, but hidden from dispatch
    sample = dual_face_samples(FromChoi(W=W, dim_in=3, dim_out=3), 30, np.random.default_rng(3))
    assert sample.source == "numeric"
    _assert_rows_are_pairs(sample, 30, 3, 3)
    W_hat = ray_representative(W)
    for pair in sample.pairs:
        assert abs(witness_pairing(W_hat, pair.x, pair.y)) <= 1e-9


def test_interior_choi_has_no_zeros():
    # phi(X) = Tr(X) I has pairing 1 on every product pair
    with pytest.raises(InsufficientZeros):
        dual_face_samples(FromChoi(W=np.eye(4), dim_in=2, dim_out=2), 5, np.random.default_rng(4))
    # M_1 has no transposition face to draw from, and no zeros to harvest
    with pytest.raises(InsufficientZeros):
        dual_face_samples(Transposition(n=1), 3, np.random.default_rng(4))
    with pytest.raises(ValueError):
        dual_face_samples(Reduction(n=3), 0)


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
        sample = dual_face_samples(Transposition(n=3), 20, DegenerateRow2())
    assert sample.source == "numeric"
    _assert_rows_are_pairs(sample, 20, 3, 3)
    assert np.all(np.isfinite(sample.X)) and np.all(np.isfinite(sample.Y))
    assert np.max(np.abs(sample.values)) <= ZERO_TOL


# ---------------------------------------------------------------------------
# constraint rows


def test_value_rows_equal_witness_pairing():
    rng = np.random.default_rng(5)
    sample = dual_face_samples(Reduction(n=3), 20, rng)
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
    sample_tau = dual_face_samples(Transposition(n=3), 20, rng)
    C_tau = _per_pair_rows(sample_tau.X, sample_tau.Y)[0]
    assert np.max(np.abs(C_tau @ w_coords)) < 1e-9


def test_stationarity_rows_annihilate_the_map():
    rng = np.random.default_rng(6)
    for desc in (Transposition(n=2), Reduction(n=3), Robertson()):
        sample = dual_face_samples(desc, 10, rng)
        from conewitness.catalog import build_map

        phi = build_map(desc)
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
    W = choi_of(co_ad_map(np.eye(3)))  # transposition, but hidden from dispatch
    for desc, n, m, source in (
        (BreuerHall(U=U), 4, 4, "analytic"),
        (FromChoi(W=W, dim_in=3, dim_out=3), 3, 3, "numeric"),
    ):
        sample = dual_face_samples(desc, 12, rng)
        assert sample.source == source
        assert sample.X.shape == (12, n) and sample.Y.shape == (12, m)
        want_stat = _per_pair_rows(sample.X, sample.Y)[1]
        assert np.array_equal(stationarity_rows(sample.X, sample.Y), want_stat)


# ---------------------------------------------------------------------------
# null spaces


def test_nullspace_dims_small_catalog():
    dim, basis = double_dual_nullspace(Transposition(n=2), rng=np.random.default_rng(7))
    assert dim == 1
    assert basis.shape == (1, 4, 4)
    dim, _ = double_dual_nullspace(Reduction(n=2), rng=np.random.default_rng(8))
    assert dim == 1


def test_nullspace_dim_reduction3_is_coad_span():
    rng = np.random.default_rng(9)
    dim, basis = double_dual_nullspace(Reduction(n=3), rng=rng)
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
        double_dual_nullspace(Transposition(n=2), sample_count=6)

    # the report refuses an undersized sample before its see-saw runs
    def no_seesaw(*args, **kwargs):
        raise AssertionError("block-positivity check ran")

    monkeypatch.setattr(exposedness, "is_block_positive", no_seesaw)
    with pytest.raises(ValueError, match=r"sample_count must be at least 23$"):
        exposedness_report(Reduction(n=4), sample_count=10)


def test_nullspace_basis_bits_match_stacked_c_order_blocks():
    """One column-major system gives the bits of C-order blocks, the second ranked inside the first."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(3))
    for desc, n in ((Robertson(), 4), (BreuerHall(U=U), 4), (Reduction(n=3), 3)):
        d = n * n
        k = d * d // (4 * n - 3) + 4  # face pairs per block
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(2):
            sample = dual_face_samples(desc, k, rng)
            blocks.append(_per_pair_rows(sample.X, sample.Y)[1])
        rank1, V1, sigma_max = svd_nullspace(blocks[0])
        # a product's bits follow its operands' layout, and the library's
        # second block is a row slice of its column-major system
        C2_V1 = np.asfortranarray(blocks[1]) @ V1
        _, V2, _ = svd_nullspace(C2_V1, scale=sigma_max)
        dim, basis = double_dual_nullspace(desc, rng=np.random.default_rng(11))
        assert dim == V2.shape[1] <= d * d - rank1
        assert np.array_equal(basis, coords_to_hermitian((V1 @ V2).T, d))


@pytest.mark.parametrize("seed", range(3))
def test_projected_nullspace_spans_stacked_nullspace(seed):
    """Ranking the second block inside the first block's null space finds the stacked system's."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
    for desc in (
        Robertson(),
        Reduction(n=3),
        Reduction(n=4),
        Transposition(n=3),
        BreuerHall(U=U),
        ChoiFamily(a=1.0, b=0.0, c=1.0),
    ):
        phi = build_map(desc)
        k = exposedness._checked_sample_count(desc, phi, None)
        rng = np.random.default_rng(seed)
        samples = [dual_face_samples(desc, k, rng, phi=phi) for _ in range(2)]
        C = np.vstack([stationarity_rows(s.X, s.Y) for s in samples])
        rank, B_old, _ = svd_nullspace(C)
        dim, basis = double_dual_nullspace(desc, rng=np.random.default_rng(seed))
        B_new = hermitian_to_coords(basis).T
        assert dim == B_old.shape[1] == C.shape[1] - rank
        assert np.linalg.norm(B_new - B_old @ (B_old.T @ B_new), 2) <= 1e-10


def test_full_rank_first_block_is_refused_without_a_second_decomposition(monkeypatch):
    """A first block of full rank leaves nothing to project; the containment check refuses."""
    noise = np.random.default_rng(0)
    rows = exposedness.stationarity_rows
    monkeypatch.setattr(
        exposedness, "stationarity_rows", lambda X, Y: noise.standard_normal(rows(X, Y).shape)
    )
    shapes = []
    rank = exposedness.svd_nullspace

    def counting_rank(M, *args, **kwargs):
        shapes.append(M.shape)
        return rank(M, *args, **kwargs)

    monkeypatch.setattr(exposedness, "svd_nullspace", counting_rank)
    with pytest.raises(UnstableDimension, match="excludes the map's own Choi"):
        double_dual_nullspace(Reduction(n=3), rng=np.random.default_rng(0))
    assert shapes == [(2 * 6 * 13, 81)]


def test_constraint_monotonicity():
    """Adding pairs never grows the null space."""
    rng = np.random.default_rng(10)
    sample = dual_face_samples(Transposition(n=2), 64, rng)
    C_half = _per_pair_rows(sample.X[:32], sample.Y[:32])[0]
    C_full = _per_pair_rows(sample.X, sample.Y)[0]
    rank_half, _, _ = svd_nullspace(C_half)
    rank_full, _, _ = svd_nullspace(C_full)
    assert 16 - rank_full <= 16 - rank_half


# ---------------------------------------------------------------------------
# cone search and verdicts


def test_cone_search_finds_reduction3_counterexample():
    rng = np.random.default_rng(11)
    phi_desc = Reduction(n=3)
    from conewitness.catalog import build_map

    phi = build_map(phi_desc)
    dim, basis = double_dual_nullspace(phi_desc, rng=rng)
    face_x = dual_face_samples(phi_desc, 162, rng).X
    cand = cone_search_off_ray(phi, hermitian_to_coords(basis), face_x, budget=2000, rng=rng)
    assert cand is not None
    assert not is_ray_proportional(cand, choi_of(phi))
    verdict, _ = is_block_positive(map_from_choi(cand, 3, 3), SeeSawConfig(), rng)
    assert verdict == "EVIDENCE_BP"


def test_cone_search_trivial_when_dim_one():
    rng = np.random.default_rng(12)
    from conewitness.catalog import build_map

    phi = build_map(Reduction(n=2))
    dim, basis = double_dual_nullspace(Reduction(n=2), rng=rng)
    face_x = dual_face_samples(Reduction(n=2), 32, rng).X
    rows = hermitian_to_coords(basis)
    assert cone_search_off_ray(phi, rows, face_x, budget=100, rng=rng) is None


def test_probe_pairings_equal_witness_pairing_per_basis_element():
    """The value-row pairings equal W's pairing with each basis element at each probe."""
    desc = Reduction(n=4)
    phi = build_map(desc)
    rng = np.random.default_rng(5)
    dim, basis = double_dual_nullspace(desc, rng=rng)
    rows = hermitian_to_coords(basis)
    face_x = dual_face_samples(desc, 60, rng).X
    Z = exposedness._probe_vectors(phi, face_x, rng)
    # each probe is a product vector conj(x) (x) y: its 4 x 4 reshape has rank one
    u, s, vh = np.linalg.svd(Z.reshape(-1, 4, 4))
    assert np.max(s[:, 1]) < 1e-12
    X, Y = u[:, :, 0].conj(), s[:, :1] * vh[:, 0]
    assert np.max(np.abs(product_vector(X, Y) - Z)) < 1e-12
    want = np.stack([witness_pairing(coords_to_hermitian(r, 16), X, Y) for r in rows], axis=1)
    got = exposedness._pairings(Z, rows)
    assert dim == 36 and got.shape == (len(Z), dim)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the entries read from z z^H give the full outer products' coordinates, bitwise
    outer = Z[:, :, np.newaxis] * Z[:, np.newaxis, :].conj()
    assert np.array_equal(got, hermitian_to_coords(outer) @ rows.T)


def test_report_searches_the_rows_double_dual_nullspace_converts(monkeypatch):
    """The cone search gets the ranked coordinate rows; the public basis is them as matrices."""
    seen = {}
    nullspace = exposedness._nullspace_with_diagnostics
    search = exposedness.cone_search_off_ray

    def recording_nullspace(desc, phi, k, rng):
        seen["state"] = rng.bit_generator.state
        return nullspace(desc, phi, k, rng)

    def recording_search(phi, basis, *args):
        seen["rows"] = basis
        return search(phi, basis, *args)

    monkeypatch.setattr(exposedness, "_nullspace_with_diagnostics", recording_nullspace)
    monkeypatch.setattr(exposedness, "cone_search_off_ray", recording_search)
    rep = exposedness_report(Reduction(n=3), rng=np.random.default_rng(3))
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    dim, basis = double_dual_nullspace(Reduction(n=3), rng=rng)
    assert seen["rows"].shape == (dim, 81) and rep.nullspace_dim == dim
    assert np.array_equal(basis, coords_to_hermitian(seen["rows"], 9))


def test_cone_search_refuses_hermitian_basis():
    phi = build_map(Reduction(n=3))
    dim, basis = double_dual_nullspace(Reduction(n=3), rng=np.random.default_rng(4))
    face_x = dual_face_samples(Reduction(n=3), 13, np.random.default_rng(4)).X
    for bad in (basis, basis[:1], hermitian_to_coords(basis)[:, :80]):
        with pytest.raises(DimensionMismatch, match="is not rows"):
            cone_search_off_ray(phi, bad, face_x, budget=10, rng=np.random.default_rng(4))


def test_exposedness_verdicts():
    rep = exposedness_report(Reduction(n=2), rng=np.random.default_rng(13))
    assert rep.verdict == "CERTIFIED_EXPOSED"
    assert rep.nullspace_dim == 1
    assert rep.counterexample is None

    rep = exposedness_report(Transposition(n=2), rng=np.random.default_rng(14))
    assert rep.verdict != "NOT_EXPOSED"

    rep = exposedness_report(Reduction(n=3), rng=np.random.default_rng(15))
    assert rep.verdict == "NOT_EXPOSED"
    assert rep.nullspace_dim == 9
    W_prime = rep.counterexample
    assert W_prime is not None
    # re-validate the counterexample from scratch
    from conewitness.catalog import reduction

    assert not is_ray_proportional(W_prime, choi_of(reduction(3)))
    fresh = dual_face_samples(Reduction(n=3), 64, np.random.default_rng(16))
    C = _per_pair_rows(fresh.X, fresh.Y)[0]
    coords = hermitian_to_coords(W_prime)
    coords = coords / np.linalg.norm(coords)
    assert np.max(np.abs(C @ coords)) <= 1e-8
    verdict, _ = is_block_positive(
        map_from_choi(W_prime, 3, 3), SeeSawConfig(), np.random.default_rng(17)
    )
    assert verdict == "EVIDENCE_BP"


def test_rejected_candidate_leaves_no_counterexample(monkeypatch):
    # the search finds a candidate on Reduction(3) at this seed (see
    # test_exposedness_verdicts); a failed re-validation must withhold it
    # and the certifier report that came with it
    validate = exposedness._validate_counterexample

    def reject(*args):
        _, report = validate(*args)
        assert report is not None
        return False, report

    monkeypatch.setattr(exposedness, "_validate_counterexample", reject)
    rep = exposedness_report(Reduction(n=3), rng=np.random.default_rng(15))
    assert rep.verdict == "CONSISTENT_WITH_EXPOSED"
    assert rep.counterexample is None
    assert rep.counterexample_report is None
    assert rep.diagnostics["rejected_candidate"] is True


def test_exposedness_breuer_hall_and_robertson_not_refuted():
    rng = np.random.default_rng(18)
    U = random_antisymmetric_unitary(4, rng)
    rep = exposedness_report(BreuerHall(U=U), rng=np.random.default_rng(19))
    assert rep.verdict != "NOT_EXPOSED"
    rep = exposedness_report(Robertson(), rng=np.random.default_rng(20))
    assert rep.verdict != "NOT_EXPOSED"


def test_exposedness_requires_block_positivity():
    with pytest.raises(NotBlockPositive):
        exposedness_report(ChoiFamily(a=0.5, b=0.3, c=0.7), rng=np.random.default_rng(21))


def test_exposedness_determinism():
    a = exposedness_report(Reduction(n=3), rng=np.random.default_rng(22))
    b = exposedness_report(Reduction(n=3), rng=np.random.default_rng(22))
    assert a.verdict == b.verdict
    assert a.nullspace_dim == b.nullspace_dim
    assert np.array_equal(a.counterexample, b.counterexample)


def test_exposedness_diagnostics_contract():
    rep = exposedness_report(Reduction(n=2), rng=np.random.default_rng(23))
    diag = rep.diagnostics
    assert diag["dim_at_k"] == diag["dim_at_2k"] == 1
    assert diag["choi_containment_residual"] <= 10 * 1e-8 * max(diag["sigma_max"], 1.0)
    assert rep.samples_used == diag["sample_count"]


# a + b + c = 2 and bc = (1 - a)^2 with a = 1/2: exposed (Ha and Kye, OSID 2011)
HA_KYE = ChoiFamily(a=0.5, b=0.19098300562505255, c=1.3090169943749475)


@pytest.mark.parametrize(
    "desc, seed, expected, budget",
    [
        pytest.param(HA_KYE, 0, "CERTIFIED_EXPOSED", 2000, id="ha-kye-0"),
        pytest.param(HA_KYE, 1, "CERTIFIED_EXPOSED", 2000, id="ha-kye-1"),
        pytest.param(HA_KYE, 2, "CERTIFIED_EXPOSED", 2000, id="ha-kye-2"),
        pytest.param(HA_KYE, 19, "CERTIFIED_EXPOSED", 2000, id="ha-kye-19"),
        pytest.param(HA_KYE, 32, "CERTIFIED_EXPOSED", 2000, id="ha-kye-32"),
        pytest.param(
            FromChoi(W=choi_of(robertson()), dim_in=4, dim_out=4),
            0,
            "CERTIFIED_EXPOSED",
            2000,
            id="raw-choi-robertson-0",
        ),
        pytest.param(
            FromChoi(W=choi_of(reduction(3)), dim_in=3, dim_out=3),
            0,
            "NOT_EXPOSED",
            2000,
            id="raw-choi-reduction3-0",
        ),
        # the first candidate is cut, and the repaired one is the counterexample:
        # a budget of two leaves no other way to reach the verdict
        pytest.param(
            ChoiFamily(a=1.0, b=0.0, c=1.0), 0, "NOT_EXPOSED", 2, id="choi-101-0"
        ),
    ],
)
def test_numeric_harvest_literature_verdicts(desc, seed, expected, budget):
    """Verdicts decided through the numeric face harvest match the literature."""
    rep = exposedness_report(desc, budget=budget, rng=np.random.default_rng(seed))
    assert rep.verdict == expected


@pytest.mark.parametrize("seed", range(4))
def test_polished_harvest_pairs_are_stationary(seed):
    """The harvest's polish puts each pair's stationarity residual far below the rank cutoff."""
    sample = dual_face_samples(HA_KYE, 39, np.random.default_rng(seed))
    assert sample.source == "numeric"
    w = hermitian_to_coords(ray_representative(choi_of(build_map(HA_KYE))))
    assert np.max(np.abs(stationarity_rows(sample.X, sample.Y) @ w)) <= 1e-10


def test_value_rows_add_no_rank_to_stationarity_rows():
    """A pair's value row is a real combination of its own stationarity rows."""
    U = random_antisymmetric_unitary(4, np.random.default_rng(31))
    for desc, k in (
        (Robertson(), 23),
        (Reduction(n=3), 13),
        (BreuerHall(U=U), 23),
        (ChoiFamily(a=1.0, b=0.0, c=1.0), 39),
    ):
        sample = dual_face_samples(desc, k, np.random.default_rng(32))
        S = stationarity_rows(sample.X, sample.Y)
        C = _per_pair_rows(sample.X, sample.Y)[0]
        rank_s, _, _ = svd_nullspace(S)
        rank_sc, _, _ = svd_nullspace(np.vstack([S, C]))
        assert rank_s < S.shape[1] and rank_sc == rank_s


# ---------------------------------------------------------------------------
# optimality and the structural verifiers


def test_optimality_spanning():
    assert optimality_spanning_check(Reduction(n=2), rng=np.random.default_rng(24)) == (True, 4)
    assert optimality_spanning_check(Reduction(n=3), rng=np.random.default_rng(25)) == (True, 9)
    with pytest.raises(InsufficientZeros):
        optimality_spanning_check(
            FromChoi(W=np.eye(4), dim_in=2, dim_out=2), rng=np.random.default_rng(26)
        )


def test_optimality_refuses_a_sample_too_small_to_span(monkeypatch):
    """Fewer than nm pairs cannot span C^n (x) C^m, so the question is refused, not answered."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("face sampled")

    monkeypatch.setattr(exposedness, "dual_face_samples", no_sampling)
    for desc, count, floor in (
        (Reduction(n=3), 4, 9), (Robertson(), 10, 16), (Robertson(), 15, 16)
    ):
        with pytest.raises(ValueError, match=rf"sample_count must be at least {floor}$"):
            optimality_spanning_check(desc, sample_count=count)
    monkeypatch.undo()
    # the floor itself is accepted, and spans on the reduction's face
    assert optimality_spanning_check(Reduction(n=3), 9, np.random.default_rng(24)) == (True, 9)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a stage ran on a refused input")


def test_report_sample_count_must_be_an_integer(monkeypatch):
    monkeypatch.setattr(exposedness, "is_block_positive", _must_not_run)
    with pytest.raises(TypeError):
        exposedness_report(Reduction(n=3), sample_count=13.9)
    monkeypatch.undo()
    dim, _ = double_dual_nullspace(Reduction(n=3), np.int64(13), np.random.default_rng(9))
    assert dim == 9


def test_optimality_sample_count_must_be_an_integer(monkeypatch):
    monkeypatch.setattr(exposedness, "dual_face_samples", _must_not_run)
    with pytest.raises(TypeError):
        optimality_spanning_check(Reduction(n=3), sample_count=81.7)
    monkeypatch.undo()
    spans = optimality_spanning_check(Reduction(n=3), np.int64(9), np.random.default_rng(24))
    assert spans == (True, 9)


def test_budget_must_be_an_integer(monkeypatch):
    phi = build_map(Reduction(n=3))
    dim, basis = double_dual_nullspace(Reduction(n=3), rng=np.random.default_rng(4))
    rows = hermitian_to_coords(basis)
    face_x = dual_face_samples(Reduction(n=3), 13, np.random.default_rng(4)).X
    with pytest.raises(TypeError):
        cone_search_off_ray(phi, rows, face_x, budget=2.5, rng=np.random.default_rng(4))
    assert cone_search_off_ray(phi, rows, face_x, np.int64(0), np.random.default_rng(4)) is None
    monkeypatch.setattr(exposedness, "is_block_positive", _must_not_run)
    with pytest.raises(TypeError):
        exposedness_report(Reduction(n=3), budget=2.5)


def test_face_sample_count_must_be_an_integer():
    with pytest.raises(TypeError):
        dual_face_samples(Reduction(n=3), 2.5, np.random.default_rng(0))
    sample = dual_face_samples(Reduction(n=3), np.int64(5), np.random.default_rng(0))
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


def test_reduction4_decomposes_into_breuer_hall_pair():
    """A counterexample for the n=4 reduction exists by explicit decomposition."""
    rng = np.random.default_rng(29)
    U = random_antisymmetric_unitary(4, rng)
    from conewitness.catalog import breuer_hall, reduction

    W_prime = 2.0 * choi_of(breuer_hall(U))
    W_second = 2.0 * choi_of(co_ad_map(U))
    assert frobenius(W_prime + W_second - 2.0 * choi_of(reduction(4))) < 1e-12
    for W in (W_prime, W_second):
        verdict, _ = is_block_positive(map_from_choi(W, 4, 4), SeeSawConfig(), rng)
        assert verdict == "EVIDENCE_BP"
    # and the pair witnesses non-extremeness: both sit on the face of R4
    sample = dual_face_samples(Reduction(n=4), 32, rng)
    C = _per_pair_rows(sample.X, sample.Y)[0]
    for W in (W_prime, W_second):
        coords = hermitian_to_coords(W)
        coords = coords / np.linalg.norm(coords)
        assert np.max(np.abs(C @ coords)) < 1e-8


def test_exposedness_reduction4():
    rep = exposedness_report(Reduction(n=4), rng=np.random.default_rng(30))
    assert rep.verdict == "NOT_EXPOSED"
    assert rep.nullspace_dim == 36


def test_exposedness_report_builds_the_map_once(monkeypatch):
    calls = []

    def counting_build_map(desc):
        calls.append(desc)
        return build_map(desc)

    monkeypatch.setattr(exposedness, "build_map", counting_build_map)
    # Reduction(3) at this seed reaches validation, the last sampler call
    rep = exposedness_report(Reduction(n=3), rng=np.random.default_rng(15))
    assert rep.verdict == "NOT_EXPOSED"
    assert len(calls) == 1


@pytest.mark.parametrize("n, m", [(3, 3), (4, 4), (2, 3), (8, 8)])
def test_random_probes_match_per_probe_draws(n, m):
    phi = map_from_choi(random_hermitian(n * m, np.random.default_rng(n + m)), n, m)
    rng, ref_rng = np.random.default_rng(40), np.random.default_rng(40)
    probes = exposedness._probe_vectors(phi, np.empty((0, n), complex), rng)
    ref = np.stack(
        [
            product_vector(random_unit_vector(n, ref_rng), random_unit_vector(m, ref_rng))
            for _ in range(128)
        ]
    )
    assert np.array_equal(probes, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_breuer_hall6_nullspace_dimension():
    """BH_6 with U = I_3 (x) sigma_y: nullity 15, the dimension C(6, 4) of the 4-form maps."""
    U = np.kron(np.eye(3), SIGMA_Y)
    dim, basis = double_dual_nullspace(BreuerHall(U=U), rng=np.random.default_rng(0))
    assert dim == 15
    assert basis.shape == (15, 36, 36)
