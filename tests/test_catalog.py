"""Catalog constructors and their analytic predicates."""

import pickle

import numpy as np
import pytest

from conewitness.catalog import (
    SIGMA_Y,
    ad_map,
    antisym_basis,
    breuer_hall,
    choi_family,
    choi_family_boundary_margin,
    choi_family_is_indecomposable,
    choi_family_is_positive,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    require_antisymmetric_unitary,
    robertson,
    robertson_unitary,
    transposition,
    youla_form,
)
from conewitness.errors import (
    DimensionMismatch,
    NegativeParameter,
    NotAntisymmetric,
    NotPositiveMap,
    NotUnitary,
    OddDimension,
)
from conewitness import exposedness
from conewitness.config import FRAME_RTOL, ZERO_TOL
from conewitness.exposedness import dual_face_samples
from conewitness.linalg import frobenius, random_unitary
from conewitness.maps import (
    Face,
    LinearMatrixMap,
    apply,
    choi_from_apply,
    choi_of,
    compose_with_transpose,
    frame_conjugate,
    map_from_choi,
    ray_representative,
    witness_pairing,
)


def unit(i, j, n):
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def test_transposition_action_and_choi():
    tau = transposition(2)
    assert frobenius(apply(tau, unit(0, 1, 2)) - unit(1, 0, 2)) == 0.0
    # Choi of the transposition is the SWAP operator
    swap = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            swap[i * 2 + k, k * 2 + i] = 1.0
    assert frobenius(choi_of(tau) - swap) == 0.0
    # involution
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert frobenius(apply(tau, apply(tau, X)) - X) < 1e-14


def test_ad_and_co_ad():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    phi = ad_map(V)
    psi = co_ad_map(V)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert frobenius(apply(phi, X) - V @ X @ V.conj().T) < 1e-13
    assert frobenius(apply(psi, X) - V @ X.T @ V.conj().T) < 1e-13
    # choi(ad) is the rank-one projector onto sum_i e_i (x) V e_i
    v = np.zeros(6, dtype=complex)
    for i in range(3):
        v[i * 2 : i * 2 + 2] = V[:, i]
    assert frobenius(choi_of(phi) - np.outer(v, v.conj())) < 1e-13
    # V = I reduces ad to the identity and co-ad to transposition
    I3 = np.eye(3)
    assert frobenius(choi_of(ad_map(I3)) - choi_of(choi_from_apply(lambda E: E, 3, 3))) < 1e-14
    assert frobenius(choi_of(co_ad_map(I3)) - choi_of(transposition(3))) < 1e-14


def test_ad_rank_one_V():
    u = np.array([1.0, 1.0j]) / np.sqrt(2)
    w = np.array([0.0, 1.0, 0.0])
    V = np.outer(u, w.conj())
    phi = ad_map(V)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    expected = np.vdot(w, X @ w) * np.outer(u, u.conj())
    assert frobenius(apply(phi, X) - expected) < 1e-13


def test_reduction_formula():
    R2 = reduction(2)
    sigma_z = np.diag([1.0, -1.0])
    assert frobenius(apply(R2, sigma_z) + sigma_z) < 1e-14
    for n in (2, 3, 4):
        Rn = reduction(n)
        assert frobenius(apply(Rn, np.eye(n)) - (n - 1) * np.eye(n)) < 1e-14
    # R2 equals conjugation of the transpose by sigma_y
    assert frobenius(choi_of(R2) - choi_of(co_ad_map(SIGMA_Y))) < 1e-13
    with pytest.raises(Exception):
        reduction(1)


def test_robertson_and_reduction_are_built_once_and_read_only():
    """One instance per process (per n), a read-only Choi matrix, and writable copies through choi_of."""
    assert robertson() is robertson()
    R3 = reduction(3)
    assert reduction(3) is R3 and reduction(np.int64(3)) is R3 and reduction(4) is not R3
    for phi in (robertson(), R3):
        assert not phi.choi.flags.writeable
        with pytest.raises(ValueError):
            phi.choi[0, 0] = 0.0
        W = choi_of(phi)
        assert W.flags.writeable and np.array_equal(W, phi.choi)
        W[0, 0] += 1.0
        assert W[0, 0] != phi.choi[0, 0]
    # 3.0 == 3 and both hash alike, but a float is no dimension
    for bad in (3.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            reduction(bad)
    with pytest.raises(DimensionMismatch):
        reduction(1)


def test_choi_family_formula():
    phi = choi_family(1.0, 1.0, 0.0)
    assert frobenius(apply(phi, unit(0, 0, 3)) - np.diag([1.0, 0.0, 1.0])) < 1e-14
    assert frobenius(choi_of(choi_family(0.0, 1.0, 1.0)) - choi_of(reduction(3))) < 1e-14
    two = choi_family(2.0, 0.0, 0.0)
    assert frobenius(apply(two, np.eye(3)) - 2.0 * np.eye(3)) < 1e-14
    X = np.arange(9, dtype=float).reshape(3, 3)
    out = apply(two, X)
    assert frobenius(np.diag(np.diagonal(out)) - 2.0 * np.diag(np.diagonal(X))) < 1e-13
    assert frobenius((out - np.diag(np.diagonal(out))) + (X - np.diag(np.diagonal(X)))) < 1e-13
    with pytest.raises(NegativeParameter):
        choi_family(-0.1, 1.0, 1.0)


def test_choi_family_predicates():
    assert choi_family_is_positive(1.0, 1.0, 0.0)
    assert not choi_family_is_positive(2.0, 0.0, 0.0)
    assert choi_family_is_positive(0.0, 1.0, 1.0)
    assert not choi_family_is_positive(0.5, 0.3, 0.7)

    assert choi_family_is_indecomposable(1.0, 1.0, 0.0)
    assert not choi_family_is_indecomposable(0.0, 1.0, 1.0)
    assert not choi_family_is_indecomposable(1.0, 0.5, 0.5)
    with pytest.raises(NotPositiveMap):
        choi_family_is_indecomposable(0.1, 0.1, 0.1)
    with pytest.raises(NegativeParameter):
        choi_family_is_positive(1.0, -1.0, 0.0)


def test_choi_family_boundary_margin():
    # exactly on the sum surface
    assert choi_family_boundary_margin(0.5, 0.75, 0.75) < 1e-12
    # comfortably interior
    assert choi_family_boundary_margin(1.0, 1.0, 1.0) > 0.5
    # near the bc = (1-a)^2 surface
    assert choi_family_boundary_margin(0.5, 0.5, 0.5 + 0.01) < 0.02


def test_breuer_hall_formula_and_validation():
    rng = np.random.default_rng(3)
    U = random_antisymmetric_unitary(4, rng)
    phi = breuer_hall(U)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.trace(X) * np.eye(4) - X - U @ X.T @ U.conj().T
    assert frobenius(apply(phi, X) - expected) < 1e-12
    assert frobenius(apply(phi, np.eye(4)) - 2.0 * np.eye(4)) < 1e-13

    # 2n=2 forces the zero map: R2 equals the co-ad term exactly
    zero = breuer_hall(SIGMA_Y)
    assert frobenius(choi_of(zero)) < 1e-13

    with pytest.raises(OddDimension):
        require_antisymmetric_unitary(np.eye(3))
    with pytest.raises(NotAntisymmetric):
        require_antisymmetric_unitary(np.eye(4))
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1.0, -1.0  # antisymmetric but rank deficient
    with pytest.raises(NotUnitary):
        require_antisymmetric_unitary(skew)


def test_robertson_block_formula():
    rob = robertson()
    X = np.zeros((4, 4), dtype=complex)
    X[:2, :2] = np.eye(2)
    out = apply(rob, X)
    assert frobenius(out - np.diag([0.0, 0.0, 2.0, 2.0])) < 1e-12
    assert frobenius(apply(rob, np.eye(4)) - 2.0 * np.eye(4)) < 1e-13
    assert frobenius(choi_of(rob) - choi_of(breuer_hall(robertson_unitary()))) < 1e-12
    assert frobenius(robertson_unitary() - np.kron(np.eye(2), SIGMA_Y)) == 0.0


def test_antisym_basis():
    single = antisym_basis(np.eye(2), 2)
    assert len(single) == 1
    assert frobenius(single[0] - (unit(0, 1, 2) - unit(1, 0, 2))) == 0.0
    rng = np.random.default_rng(4)
    V = random_unitary(4, rng)
    basis = antisym_basis(V, 4)
    assert len(basis) == 6
    for D in basis:
        assert frobenius(D + D.T) < 1e-12
    with pytest.raises(NotUnitary):
        antisym_basis(np.ones((4, 4)), 4)


def youla_k(n2):
    return np.kron(np.eye(n2 // 2), [[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("n2", [4, 6, 8])
def test_youla_form(n2):
    """V is unitary, V^dag U conj(V) = K and V carries BH_U to BH_K for Haar U; V = I exactly for U = K."""
    K = youla_k(n2)
    W_K = breuer_hall(K).choi
    for seed in range(3):
        U = random_antisymmetric_unitary(n2, np.random.default_rng(seed))
        V = youla_form(U)
        assert frobenius(V.conj().T @ V - np.eye(n2)) <= 1e-13
        assert frobenius(V.conj().T @ U @ V.conj() - K) <= 1e-13
        assert frobenius(frame_conjugate(breuer_hall(U).choi, V) - W_K) <= 1e-12
    assert np.array_equal(youla_form(K), np.eye(n2))
    with pytest.raises(NotAntisymmetric):
        youla_form(random_unitary(n2, np.random.default_rng(0)))


def test_random_antisymmetric_unitary():
    rng = np.random.default_rng(5)
    for n2 in (2, 4, 6):
        U = random_antisymmetric_unitary(n2, rng)
        assert frobenius(U + U.T) < 1e-10
        assert frobenius(U.conj().T @ U - np.eye(n2)) < 1e-10
    with pytest.raises(OddDimension):
        random_antisymmetric_unitary(3, rng)
    # different seeds give different maps
    U1 = random_antisymmetric_unitary(4, np.random.default_rng(1))
    U2 = random_antisymmetric_unitary(4, np.random.default_rng(2))
    d = frobenius(choi_of(breuer_hall(U1)) - choi_of(breuer_hall(U2)))
    assert d > 1e-3


def test_constructor_self_consistency():
    """Rebuilding each catalog map from its own action reproduces the Choi."""
    rng = np.random.default_rng(6)
    U = random_antisymmetric_unitary(4, rng)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    maps = [
        transposition(3),
        reduction(3),
        choi_family(1.0, 1.0, 0.0),
        breuer_hall(U),
        robertson(),
        ad_map(V),
        co_ad_map(V),
    ]
    for phi in maps:
        rebuilt = choi_from_apply(lambda E: apply(phi, E), phi.dim_in, phi.dim_out)
        assert frobenius(choi_of(rebuilt) - choi_of(phi)) < 1e-12


def test_closed_form_maps_carry_their_face():
    rng = np.random.default_rng(7)
    U = random_antisymmetric_unitary(4, rng)
    V = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for phi in (transposition(3), reduction(3), breuer_hall(U), robertson()):
        assert phi.face is not None
        X, Y = phi.face.draw(20, np.random.default_rng(0))
        assert X.shape == (20, phi.dim_in) and Y.shape == (20, phi.dim_out)
        values = witness_pairing(ray_representative(phi.choi), X, Y)
        assert np.max(np.abs(values)) <= ZERO_TOL
        # the face is a partial of a module-level draw, so the map pickles
        X2, Y2 = pickle.loads(pickle.dumps(phi)).face.draw(20, np.random.default_rng(0))
        assert np.array_equal(X, X2) and np.array_equal(Y, Y2)

    R = reduction(3)
    for phi in (
        choi_family(1.0, 1.0, 0.0),
        ad_map(V),
        co_ad_map(V),
        map_from_choi(choi_of(robertson()), 4, 4),
        compose_with_transpose(R),
        R + transposition(3),
        2.0 * R,
    ):
        assert phi.face is None

    # a face whose draw misses W cannot reach a sample: its pairs fail the
    # pairing check and the numeric harvest fills the whole sample
    e = np.eye(3, dtype=complex)

    def off_face(count, rng):
        return np.tile(e[0], (count, 1)), np.tile(e[1], (count, 1))

    wrong = LinearMatrixMap(3, 3, choi_of(R), face=Face(off_face, R.face.pairing))
    sample = dual_face_samples(wrong, 20, np.random.default_rng(0))
    assert sample.source == "numeric"
    assert sample.X.shape == (20, 3) and sample.Y.shape == (20, 3)
    assert np.max(np.abs(witness_pairing(ray_representative(R.choi), sample.X, sample.Y))) <= ZERO_TOL


_HAAR_U4 = random_antisymmetric_unitary(4, np.random.default_rng(1234))


# every family whose constructor attaches a closed-form face
_CLOSED_FORM = [
    *(pytest.param(lambda n=n: reduction(n), id=f"reduction-{n}") for n in (2, 3, 4, 6)),
    *(pytest.param(lambda n=n: transposition(n), id=f"transpose-{n}") for n in (2, 3, 4, 6)),
    pytest.param(robertson, id="robertson"),
    pytest.param(lambda: breuer_hall(_HAAR_U4), id="haar-bh4"),
    pytest.param(lambda: breuer_hall(np.kron(np.eye(3), SIGMA_Y)), id="bh6"),
]


@pytest.mark.parametrize("build", _CLOSED_FORM)
def test_face_symmetries_fix_the_choi_matrix(build):
    """Each closed-form family's symmetries fix its Choi matrix: exactly, or in its frame to the frame's floor.

    The signs matter: Robertson's within-pair swap without its sign does not.
    """
    phi = build()
    W, floor = phi.choi, 0.0
    if phi.face.frame is not None:
        W = frame_conjugate(W, phi.face.frame)
        floor = FRAME_RTOL * max(1.0, frobenius(W))
    assert phi.face.symmetries
    assert exposedness._symmetries_fixing(W, phi.face.symmetries, floor) == phi.face.symmetries
    if phi is robertson():
        assert exposedness._symmetries_fixing(W, (((1, 0, 2, 3), (1, 1, 1, 1)),), floor) == ()


@pytest.mark.parametrize("build", _CLOSED_FORM)
def test_positivity_identity_equals_witness_pairing(build):
    """Each closed-form family's identity is its map's pairing, and it is nonnegative."""
    phi = build()
    rng = np.random.default_rng(11)
    G = rng.standard_normal((2, 200, phi.dim_in)) + 1j * rng.standard_normal((2, 200, phi.dim_in))
    X, Y = G[0], G[1]
    formula = phi.face.pairing(X, Y)
    bound = 1e-12 * max(1.0, frobenius(phi.choi))
    assert np.max(np.abs(formula - witness_pairing(phi.choi, X, Y))) <= bound
    assert formula.min() >= -bound
