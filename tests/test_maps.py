"""Choi-form map plumbing: the isomorphism, pairing, and ray helpers."""

import numpy as np
import pytest

from conewitness.errors import DimensionMismatch, NonRealPairing
from conewitness.linalg import frobenius, random_unit_vector
from conewitness.maps import (
    Face,
    LinearMatrixMap,
    add,
    apply,
    choi_from_apply,
    choi_of,
    compose_with_transpose,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    ray_representative,
    scale,
    witness_pairing,
)


def random_hermitian(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def random_map(n, m, rng):
    return map_from_choi(random_hermitian(n * m, rng), n, m)


def test_choi_entry_convention():
    # W[(i,k),(j,l)] = phi(e_ij)[k,l]; transposition sends e_ij to e_ji
    n = 3
    phi = choi_from_apply(lambda E: E.T, n, n)
    W = choi_of(phi)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    expected = 1.0 if (k == j and l == i) else 0.0
                    assert W[i * n + k, j * n + l] == expected


def test_identity_map_round_trip():
    rng = np.random.default_rng(0)
    phi = choi_from_apply(lambda E: E, 3, 3)
    X = random_hermitian(3, rng)
    assert frobenius(apply(phi, X) - X) < 1e-14
    # Choi of the identity is n times the maximally entangled projector
    W = choi_of(phi)
    omega = np.zeros(9, dtype=complex)
    omega[[0, 4, 8]] = 1.0
    assert frobenius(W - np.outer(omega, omega.conj())) < 1e-14


def test_map_from_choi_inverts_choi_of():
    rng = np.random.default_rng(1)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        phi = random_map(n, m, rng)
        psi = map_from_choi(choi_of(phi), n, m)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert frobenius(apply(phi, X) - apply(psi, X)) < 1e-13


def test_apply_matches_kraus_oracle():
    """choi_from_apply and apply agree with a direct Kraus evaluation."""
    rng = np.random.default_rng(2)
    n, m = 3, 2
    kraus = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(3)]
    phi = choi_from_apply(lambda E: sum(A @ E @ A.conj().T for A in kraus), n, m)
    for _ in range(5):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        direct = sum(A @ X @ A.conj().T for A in kraus)
        assert frobenius(apply(phi, X) - direct) < 1e-12 * max(1.0, frobenius(direct))


def test_apply_rejects_wrong_shape():
    phi = choi_from_apply(lambda E: E, 2, 2)
    with pytest.raises(DimensionMismatch):
        apply(phi, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        LinearMatrixMap(2, 2, np.eye(5))
    with pytest.raises(DimensionMismatch):
        LinearMatrixMap(0, 2, np.zeros((0, 0)))


def test_product_vector_conjugates_input_factor():
    x = np.array([1.0, 1.0j]) / np.sqrt(2)
    y = np.array([1.0, 0.0])
    z = product_vector(x, y)
    assert np.allclose(z, np.array([1.0, 0.0, -1.0j, 0.0]) / np.sqrt(2))
    # stacked pairs give the per-pair embeddings, bit for bit
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    Z = product_vector(X, Y)
    assert Z.shape == (5, 6)
    assert np.array_equal(Z, np.stack([np.kron(X[r].conj(), Y[r]) for r in range(5)]))


def test_pairing_identity_random_maps():
    """<y|phi(P_x)|y> equals the witness pairing for arbitrary Hermitian Choi."""
    rng = np.random.default_rng(3)
    for n, m in ((2, 2), (3, 3), (2, 4)):
        phi = random_map(n, m, rng)
        W = choi_of(phi)
        for _ in range(20):
            x = random_unit_vector(n, rng)
            y = random_unit_vector(m, rng)
            lhs = np.vdot(y, apply(phi, np.outer(x, x.conj())) @ y).real
            rhs = witness_pairing(W, x, y)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, frobenius(W))
        # stacked pairs give the per-pair pairings, bit for bit
        X = np.stack([random_unit_vector(n, rng) for _ in range(6)]).reshape(2, 3, n)
        Y = np.stack([random_unit_vector(m, rng) for _ in range(6)]).reshape(2, 3, m)
        values = witness_pairing(W, X, Y)
        assert values.shape == (2, 3)
        want = [[witness_pairing(W, x, y) for x, y in zip(xs, ys)] for xs, ys in zip(X, Y)]
        # a single pair gives a Python float, which reports render and repr
        assert all(type(w) is float for row in want for w in row)
        assert np.array_equal(values, np.array(want))


def test_witness_pairing_errors():
    W = np.zeros((4, 4), dtype=complex)
    W[0, 1] = 1.0  # not Hermitian, complex pairing
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0j]) / np.sqrt(2)
    with pytest.raises(NonRealPairing):
        witness_pairing(W, x, y)
    # one complex pairing in a stack is enough; the real one alone passes
    X, Y = np.stack([x, x]), np.stack([np.array([1.0, 0.0]), y])
    assert np.array_equal(witness_pairing(W, X[:1], Y[:1]), [0.0])
    with pytest.raises(NonRealPairing):
        witness_pairing(W, X, Y)
    with pytest.raises(DimensionMismatch):
        witness_pairing(np.eye(4), np.ones(3), np.ones(3))
    # a NaN pairing is no pass: the check is ``not abs(imag) <= bound``
    with pytest.raises(NonRealPairing, match="imaginary residue nan"):
        witness_pairing(np.eye(4), np.array([np.nan, 1.0]), np.array([1.0, 0.0]))


def test_face_symmetries_are_signed_permutations_that_fit():
    """A face stores its symmetries as tuples of ints, refuses any that is not a signed permutation, and must fit its map."""

    def nothing(*args):
        return None

    face = Face(nothing, nothing, None, [(np.array([1, 0, 2]), [1, -1, 1])])
    assert face.symmetries == (((1, 0, 2), (1, -1, 1)),)
    assert Face(nothing, nothing).symmetries == ()
    for bad in (((0, 0, 2), (1, 1, 1)), ((1, 0, 2), (1, 2, 1)), ((1, 0), (1, 1, 1)), ((1, 0, 2), (1, np.nan, 1))):
        with pytest.raises(ValueError):
            Face(nothing, nothing, None, [bad])
    assert LinearMatrixMap(3, 3, np.eye(9), face).face is face
    for n, m in ((2, 2), (3, 2)):
        with pytest.raises(DimensionMismatch):
            LinearMatrixMap(n, m, np.eye(n * m), face)


def test_compose_with_transpose():
    rng = np.random.default_rng(4)
    phi = random_map(3, 2, rng)
    psi = compose_with_transpose(phi)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert frobenius(apply(psi, X) - apply(phi, X.T)) < 1e-13
    again = compose_with_transpose(psi)
    assert frobenius(choi_of(again) - choi_of(phi)) < 1e-14


def test_map_arithmetic():
    rng = np.random.default_rng(5)
    phi, psi = random_map(2, 2, rng), random_map(2, 2, rng)
    X = random_hermitian(2, rng)
    out = apply(add(phi, psi), X)
    assert frobenius(out - apply(phi, X) - apply(psi, X)) < 1e-13
    assert frobenius(apply(scale(phi, 2.5), X) - 2.5 * apply(phi, X)) < 1e-13
    assert frobenius(apply(phi + psi, X) - out) < 1e-13
    assert frobenius(apply(phi - phi, X)) < 1e-13
    assert frobenius(apply(2.0 * phi, X) - 2.0 * apply(phi, X)) < 1e-13
    with pytest.raises(DimensionMismatch):
        add(phi, random_map(3, 3, rng))


def test_ray_representative_scale_invariance():
    rng = np.random.default_rng(6)
    W = random_hermitian(4, rng)
    r1 = ray_representative(W)
    r2 = ray_representative(7.3 * W)
    assert frobenius(r1 - r2) < 1e-12
    traceless = W - np.trace(W) / 4 * np.eye(4)
    r3 = ray_representative(traceless)
    r4 = ray_representative(0.2 * traceless)
    assert frobenius(r3 - r4) < 1e-12


def test_is_ray_proportional_positive_multiples_only():
    rng = np.random.default_rng(7)
    W = random_hermitian(4, rng)
    assert is_ray_proportional(2.5 * W, W)
    assert not is_ray_proportional(-W, W)
    assert not is_ray_proportional(W + 0.1 * random_hermitian(4, rng), W)


def test_face_must_be_a_face_or_none():
    """A bare callable is no face: a map's closed form is one Face or nothing."""
    W = np.eye(4, dtype=complex)

    def draw(count, rng):
        return np.eye(2)[[0] * count], np.eye(2)[[1] * count]

    with pytest.raises(TypeError, match="face must be a Face or None"):
        LinearMatrixMap(2, 2, W, face=draw)
    face = Face(draw, lambda X, Y: np.zeros(len(X)))
    assert LinearMatrixMap(2, 2, W, face=face).face is face
    assert LinearMatrixMap(2, 2, W).face is None
