"""See-saw block-positivity certification against an independent grid oracle."""

import numpy as np
import pytest

from conewitness.catalog import (
    ad_map,
    breuer_hall,
    choi_family,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    robertson,
    transposition,
)
from conewitness.errors import DimensionMismatch, NotAState
from conewitness.linalg import frobenius, random_unit_vector
from conewitness.maps import choi_of, map_from_choi, witness_pairing
from conewitness import positivity
from conewitness.positivity import (
    SeeSawConfig,
    detect_entanglement,
    is_block_positive,
    is_completely_copositive,
    is_completely_positive,
)


def random_hermitian(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def grid_product_min(W, n_theta=120, n_phi=240):
    """Brute-force minimum of the product pairing for a 4x4 witness.

    Scans a dense grid over projective C^2 for x, then minimizes over y
    exactly via the closed-form 2x2 bottom eigenvalue.  Independent of the
    see-saw code path.
    """
    T = np.asarray(W, dtype=complex).reshape(2, 2, 2, 2)
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    X = np.stack(
        [np.cos(tt).ravel(), (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1
    )
    M = np.einsum("ri,ikjl,rj->rkl", X, T, X.conj())
    M = (M + np.conj(M.transpose(0, 2, 1))) / 2
    half_tr = (M[:, 0, 0].real + M[:, 1, 1].real) / 2
    det = (M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]).real
    lam = half_tr - np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    return float(lam.min())


GRID_ATOL = 5e-3


def test_seesaw_matches_grid_oracle_on_catalog_maps():
    cases = [
        choi_of(transposition(2)),
        choi_of(reduction(2)),
        np.eye(4),
        choi_of(transposition(2)) - 0.3 * np.eye(4),
    ]
    expected = [0.0, 0.0, 1.0, -0.3]
    for W, want in zip(cases, expected):
        phi = map_from_choi(W, 2, 2)
        rep = is_block_positive(phi, SeeSawConfig(), np.random.default_rng(0))[1]
        oracle = grid_product_min(W)
        assert abs(rep.min_value - want) < 1e-9
        assert abs(oracle - want) < GRID_ATOL


def test_seesaw_matches_grid_oracle_on_random_witnesses():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        W = random_hermitian(4, rng)
        phi = map_from_choi(W, 2, 2)
        rep = is_block_positive(phi, SeeSawConfig(), np.random.default_rng(seed + 100))[1]
        oracle = grid_product_min(W)
        # the see-saw can only undershoot the grid; both sit near the truth
        assert rep.min_value <= oracle + 1e-9
        assert oracle - rep.min_value < GRID_ATOL


def test_certificate_is_reproducible_from_argmin():
    phi = choi_family(0.5, 0.3, 0.7)  # not a positive map
    verdict, rep = is_block_positive(phi, SeeSawConfig(), np.random.default_rng(1))
    assert verdict == "CERTIFIED_NOT_BP"
    assert rep.min_value < -1e-9
    revalue = witness_pairing(choi_of(phi), rep.argmin.x, rep.argmin.y)
    assert abs(revalue - rep.min_value) < 1e-12
    assert abs(np.linalg.norm(rep.argmin.x) - 1.0) < 1e-9
    assert abs(np.linalg.norm(rep.argmin.y) - 1.0) < 1e-9


def test_block_positive_verdicts_on_catalog():
    rng = np.random.default_rng(2)
    for phi in (transposition(3), reduction(3), robertson(), choi_family(1.0, 1.0, 0.0)):
        verdict, rep = is_block_positive(phi, SeeSawConfig(), rng)
        assert verdict == "EVIDENCE_BP"
        assert rep.min_value > -1e-9


def test_stop_below_short_circuits():
    phi = choi_family(1.2, 0.3, 0.3)  # violation near -0.067
    config = SeeSawConfig(restarts=16, stop_below=-1e-6)
    verdict, rep = is_block_positive(phi, config, np.random.default_rng(3))
    assert verdict == "CERTIFIED_NOT_BP"
    assert rep.min_value < -1e-6
    assert rep.converged


def test_seesaw_determinism():
    phi = robertson()
    a = is_block_positive(phi, SeeSawConfig(), np.random.default_rng(7))[1]
    b = is_block_positive(phi, SeeSawConfig(), np.random.default_rng(7))[1]
    assert a.min_value == b.min_value
    assert np.array_equal(a.argmin.x, b.argmin.x)
    assert np.array_equal(a.argmin.y, b.argmin.y)


def test_restarts_must_be_an_integer():
    phi = robertson()
    with pytest.raises(TypeError):
        is_block_positive(phi, SeeSawConfig(restarts=2.5), np.random.default_rng(0))
    _, rep = is_block_positive(phi, SeeSawConfig(restarts=np.int64(2)), np.random.default_rng(0))
    assert rep.restarts_used == 2


def test_cp_certificates():
    # reduction Choi has bottom eigenvalue 1-n exactly
    for n in (2, 3, 4):
        ok, lam = is_completely_positive(reduction(n))
        assert not ok
        assert abs(lam - (1 - n)) < 1e-10
    rng = np.random.default_rng(4)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ok, lam = is_completely_positive(ad_map(V))
    assert ok and lam > -1e-10
    ok, _ = is_completely_positive(robertson())
    assert not ok


def test_ccp_certificates():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ok, _ = is_completely_copositive(co_ad_map(V))
    assert ok
    # the reduction map is completely copositive in every dimension:
    # its Choi after the input transpose is I - SWAP, which is PSD
    for n in (2, 3):
        ok, lam = is_completely_copositive(reduction(n))
        assert ok and lam > -1e-10
    ok, _ = is_completely_copositive(ad_map(V))
    assert not ok
    # the Choi map is indecomposable, so it is neither CP nor coCP
    assert not is_completely_copositive(choi_family(1.0, 1.0, 0.0))[0]
    assert not is_completely_positive(choi_family(1.0, 1.0, 0.0))[0]


def test_breuer_hall_is_neither_cp_nor_ccp():
    rng = np.random.default_rng(6)
    phi = breuer_hall(random_antisymmetric_unitary(4, rng))
    assert not is_completely_positive(phi)[0]
    assert not is_completely_copositive(phi)[0]


def test_detect_entanglement_values():
    for n in (2, 3):
        omega = np.zeros(n * n, dtype=complex)
        omega[:: n + 1] = 1.0 / np.sqrt(n)
        rho = np.outer(omega, omega.conj())
        value, verdict = detect_entanglement(rho, reduction(n))
        assert abs(value - (1 - n)) < 1e-12
        assert verdict == "DETECTED"
    mixed = np.eye(16) / 16
    value, verdict = detect_entanglement(mixed, robertson())
    assert verdict == "NOT_DETECTED"
    assert value >= 0.0


def test_detect_entanglement_rejects_bad_states():
    phi = reduction(2)
    with pytest.raises(NotAState):
        detect_entanglement(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), phi)
    with pytest.raises(NotAState):
        detect_entanglement(np.eye(4) / 2, phi)
    with pytest.raises(DimensionMismatch):
        detect_entanglement(np.eye(9) / 9, phi)


def test_product_states_score_nonnegative_on_block_positive_witness():
    rng = np.random.default_rng(8)
    W = choi_of(reduction(3))
    for _ in range(50):
        x = random_unit_vector(3, rng)
        y = random_unit_vector(3, rng)
        z = np.kron(x, y)
        rho = np.outer(z, z.conj())
        value, _ = detect_entanglement(rho, reduction(3))
        assert value >= -1e-10
    assert W.shape == (9, 9)


def test_planned_einsum_matches_einsum_optimize_bitwise():
    # greedy picks (0, 2),(0, 1), (0, 1),(0, 1) or a single (0, 1, 2) across
    # this grid, so one fixed path cannot pass it
    rng = np.random.default_rng(9)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = []
    for R in (1, 2, 8, 24, 64, 256):
        for n, m in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 6), (6, 6)]:
            T = cplx(n, m, n, m)
            X, Y = cplx(R, n), cplx(R, m)
            cases.append(("ri,ikjl,rj->rkl", X, T, X.conj()))
            cases.append(("rk,ikjl,rl->rij", Y.conj(), T, Y))
    for p in (1, 7, 200):
        for k in (1, 2, 5, 16):
            for d in (4, 9, 16):
                Z = cplx(p, d)
                cases.append(("pa,iab,pb->pi", Z.conj(), cplx(k, d, d), Z))
    for _ in range(2):  # planned on the first pass, read back on the second
        for spec, *ops in cases:
            assert np.array_equal(
                positivity._einsum(spec, *ops), np.einsum(spec, *ops, optimize=True)
            ), (spec, [op.shape for op in ops])
