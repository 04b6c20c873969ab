"""Unit tests for the dense linear algebra kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewitness import cli
from conewitness.config import NULLSPACE_REL_TOL
from conewitness.errors import ConvergenceFailure, NonHermitianInput
from conewitness.linalg import (
    _coordinate_entries,
    coords_to_hermitian,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    is_hermitian,
    random_unit_vector,
    random_unitary,
    require_hermitian,
    svd_nullspace,
)


def random_hermitian(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def test_require_hermitian_accepts_and_rejects():
    A = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
    out = require_hermitian(A)
    assert out.dtype == complex
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.zeros((2, 3)))
    assert not is_hermitian(np.zeros((2, 3)))
    assert is_hermitian(np.eye(4))
    # a matrix weighed in a scale of two reports its defect and bound unscaled
    with pytest.raises(NonHermitianInput, match=r"^Hermiticity defect 1\.414e\+03 exceeds bound 1\.000e-09$"):
        require_hermitian(np.array([[0.0, 1e3], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_hermiticity_check_does_not_overflow(scale):
    """Huge entries are weighed without overflow: the defect and the bound are never both inf."""
    bad = np.array([[scale, scale], [-scale, 1.0]])
    good = np.array([[1e200, 1e200 + 3e199j], [1e200 - 3e199j, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(bad)
        with pytest.raises(NonHermitianInput, match="exceeds bound"):
            require_hermitian(bad)
        assert "hermitian" not in cli.matrix_to_obj(bad)
        assert is_hermitian(good) and require_hermitian(good) is not None
        assert cli.matrix_to_obj(good)["hermitian"] is True


def test_svd_nullspace_known_matrix():
    # rank 2 with kernel spanned by e3
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rank, basis, _ = svd_nullspace(M)
    assert rank == 2
    assert basis.shape == (3, 1)
    assert abs(abs(basis[2, 0]) - 1.0) < 1e-12

    rank, basis, _ = svd_nullspace(np.array([[1.0, 1.0, 0.0]]))
    assert rank == 1
    assert basis.shape == (3, 2)
    assert np.max(np.abs(np.array([[1.0, 1.0, 0.0]]) @ basis)) < 1e-12
    assert frobenius(basis.T @ basis - np.eye(2)) < 1e-12


def test_svd_nullspace_tall_rank_deficient():
    # 8 rows is below the 11/6 * cols at which LAPACK's gesdd would take the
    # QR itself, so there the R-factor route and a direct SVD really differ
    for rows in (40, 8):
        # rows x 6 with two dependent columns: kernel spanned by k1, k2 exactly
        rng = np.random.default_rng(5)
        M = rng.integers(-5, 6, size=(rows, 6)).astype(float)
        M[:, 4] = M[:, 0] + M[:, 1]
        M[:, 5] = M[:, 2] - M[:, 3]
        K = np.array([[1.0, 1.0, 0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0, -1.0]]).T
        assert np.all(M @ K == 0.0)
        rank, basis, sigma_max = svd_nullspace(M)
        assert rank == 4
        assert basis.shape == (6, 2)
        assert frobenius(basis.T @ basis - np.eye(2)) < 1e-12
        assert np.max(np.abs(M @ basis)) < 1e-12 * sigma_max
        # the basis spans exactly the known kernel
        Q, _ = np.linalg.qr(K)
        assert frobenius(basis @ basis.T - Q @ Q.T) < 1e-12
        assert abs(sigma_max - np.linalg.norm(M, 2)) <= 1e-12 * np.linalg.norm(M, 2)
    # complex input keeps its imaginary parts: a complex 40 x 6 of rank 3
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    B = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    M = A @ B
    rank, basis, sigma_max = svd_nullspace(M)
    assert rank == 3 and basis.shape == (6, 3)
    assert frobenius(basis.conj().T @ basis - np.eye(3)) < 1e-12
    assert np.max(np.abs(M @ basis)) < 1e-12 * sigma_max
    # [[1, i], [i, -1]] has rank one; its real part alone has rank two
    M = np.array([[1, 1j], [1j, -1]])
    rank, basis, _ = svd_nullspace(M)
    assert rank == 1
    assert np.max(np.abs(M @ basis)) < 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rows", [40, 5])
def test_svd_nullspace_gives_each_block_the_bits_of_its_own_call(rows, dtype):
    """Every block's basis and values are those of ranking its columns alone at the same scale, bit for bit."""
    rng = np.random.default_rng(12)
    M = rng.standard_normal((rows, 26)).astype(dtype)
    if dtype is complex:
        M += 1j * rng.standard_normal((rows, 26))
    cols = rng.permutation(26)
    # widths 6, 6, 3, 6, 3, 2: at 5 rows the 6-wide blocks are wide and the
    # 3-wide tall
    blocks = [np.sort(part) for part in np.split(cols, [6, 12, 15, 21, 24])]
    for block in blocks[:4]:
        M[:, block[-1]] = M[:, block[0]] - 2 * M[:, block[1]]  # one null vector at least
    M[:, blocks[5]] *= 1e-12  # every value of the last block is below the cutoff
    rank, basis, sigma_max = svd_nullspace(M, blocks=blocks)
    assert sigma_max == max(svd_nullspace(M[:, block])[2] for block in blocks)
    parts = []
    for block in blocks:
        _, null, _ = svd_nullspace(M[:, block], scale=sigma_max)
        part = np.zeros((26, null.shape[1]), dtype=dtype)
        part[block] = null
        parts.append(part)
    assert np.array_equal(parts[5][blocks[5]], np.eye(2))
    assert np.array_equal(basis.view(np.uint64), np.hstack(parts).view(np.uint64))
    assert rank == 26 - basis.shape[1] and basis.dtype == dtype
    assert np.max(np.abs(M @ basis)) < 1e-12 * sigma_max


def test_svd_nullspace_zero_matrix_and_bad_tol():
    rank, basis, _ = svd_nullspace(np.zeros((2, 2)))
    assert rank == 0 and basis.shape == (2, 2)
    # the cutoff is NULLSPACE_REL_TOL, never a per-call argument
    with pytest.raises(TypeError):
        svd_nullspace(np.eye(2), 0.0)
    with pytest.raises(TypeError):
        svd_nullspace(np.eye(2), rel_tol=1e-8)
    with pytest.raises(ValueError):
        svd_nullspace(np.empty((0, 0)))
    with pytest.raises(ValueError):
        svd_nullspace(np.eye(2), scale=-1.0)
    # an infinite scale would cut every value, so every column would read null
    with pytest.raises(ValueError, match="finite"):
        svd_nullspace(np.eye(3), scale=np.inf)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("blocks", [None, [[0, 1], [2, 3]]], ids=["alone", "in-one-block-of-two"])
def test_svd_nullspace_refuses_non_finite_entries(bad, blocks):
    """A non-finite entry gives singular values no cutoff can rank: refused, never a rank.

    LAPACK turns an infinite entry of a square block into NaN values,
    refused as a ValueError; a NaN entry may stop LAPACK itself
    (ConvergenceFailure).
    """
    M = np.array([[bad, 0.0, 1.0, 2.0], [0.0, 1.0, 3.0, 4.0]])
    if blocks is None:
        M = M[:, :2]
    for A in (M, M.astype(complex)):
        with pytest.raises(ValueError if np.isinf(bad) else (ValueError, ConvergenceFailure)):
            svd_nullspace(A, blocks=blocks)


def test_svd_nullspace_scale_sets_the_cutoff():
    """Singular values count against ``NULLSPACE_REL_TOL * scale``, by default the matrix's own norm."""
    assert NULLSPACE_REL_TOL == 1e-8
    rng = np.random.default_rng(12)
    # singular values 10, 1, 1e-3 and 0 in a 30 x 4 matrix
    Q1, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    M = Q1 @ np.diag([10.0, 1.0, 1e-3, 0.0]) @ Q2.T
    assert svd_nullspace(M)[0] == 3
    assert svd_nullspace(M, scale=1e6)[0] == 2  # cutoff 1e-2
    assert svd_nullspace(M, scale=5e8)[0] == 1  # cutoff 5
    assert svd_nullspace(M, scale=2e9)[0] == 0  # cutoff 20
    # noise alone is full rank against its own norm and rank 0 against a large one
    N = 1e-14 * rng.standard_normal((12, 5))
    rank, basis, sigma_max = svd_nullspace(N)
    assert rank == 5 and basis.shape == (5, 0)
    rank, basis, sigma_max_scaled = svd_nullspace(N, scale=1.0)
    assert rank == 0 and basis.shape == (5, 5)
    assert frobenius(basis.T @ basis - np.eye(5)) < 1e-12
    # sigma_max stays the matrix's own, whatever the scale
    assert sigma_max_scaled == sigma_max
    # without scale: rank and sigma_max are the bits of the R factor's
    # values-only SVD cut at its own largest value, the basis the bits of
    # the R factor's SVD with vectors
    for A in (M, N, rng.standard_normal((3, 7))):
        R = np.linalg.qr(A, mode="r") if A.shape[0] > A.shape[1] else A
        s = np.linalg.svd(R, compute_uv=False)
        vh = np.linalg.svd(R, full_matrices=A.shape[0] < A.shape[1])[2]
        want_rank = int(np.count_nonzero(s > 1e-8 * s[0]))
        for got in (svd_nullspace(A), svd_nullspace(A, scale=None)):
            assert got[0] == want_rank and got[2] == s[0]
            assert np.array_equal(got[1], vh[want_rank:].conj().T)


def test_svd_nullspace_blocks_rank_each_column_block():
    """Column blocks are ranked on their own, cut at the largest block's norm, scattered back."""
    rng = np.random.default_rng(5)
    M = rng.integers(-5, 6, size=(40, 6)).astype(float)
    M[:, 4] = M[:, 0] + M[:, 1]
    M[:, 5] = M[:, 2] - M[:, 3]
    blocks = [np.array([0, 1, 4]), np.array([2, 3, 5])]
    rank, basis, sigma_max = svd_nullspace(M, blocks=blocks)
    assert rank == 4 and basis.shape == (6, 2)
    # each block's null vector is zero off its own columns
    assert np.all(basis[[2, 3, 5], 0] == 0.0) and np.all(basis[[0, 1, 4], 1] == 0.0)
    assert sigma_max == max(svd_nullspace(M[:, cols])[2] for cols in blocks)
    assert sigma_max < np.linalg.norm(M, 2)
    # here the null space splits over the blocks, so it is the whole matrix's
    _, whole, _ = svd_nullspace(M)
    assert frobenius(basis @ basis.T - whole @ whole.T) < 1e-12
    # one cutoff for every block
    assert svd_nullspace(M, blocks=blocks, scale=1e12)[0] == 0
    # a single block is the whole matrix, bit for bit
    one = svd_nullspace(M, blocks=[np.arange(6)])
    assert one[0] == 4 and one[2] == svd_nullspace(M)[2]
    assert np.array_equal(one[1], whole)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([np.arange(3)], "blocks miss column 3"),
        ([np.arange(4), np.arange(3, 5)], "blocks overlap: column 3 is in more than one block"),
        ([], "got no blocks"),
        ([np.arange(5), np.array([], dtype=int)], "nonempty 1-D array of column indices"),
        ([np.arange(4), np.array([5])], r"must lie in \[0, 5\)"),
        ([np.arange(4), np.array([-1])], r"must lie in \[0, 5\)"),
        ([np.arange(4.0), np.array([4.0])], "nonempty 1-D array of column indices"),
    ],
    ids=["missing", "overlap", "none", "empty-block", "out-of-range", "negative", "float"],
)
def test_svd_nullspace_refuses_blocks_that_do_not_partition_the_columns(blocks, message):
    """Blocks must split the columns into nonempty parts; anything else is a ValueError that names the defect."""
    M = np.random.default_rng(3).standard_normal((3, 5))
    with pytest.raises(ValueError, match=message):
        svd_nullspace(M, blocks=blocks)
    # a partition in any order, given as lists, is accepted: each block is
    # no wider than the 3 rows, so each has full rank
    rank, basis, _ = svd_nullspace(M, blocks=[[4, 0], [2, 1, 3]])
    assert rank == 5 and basis.shape == (5, 0)


def test_svd_nullspace_decomposes_values_first_and_vectors_only_where_rank_falls_short(monkeypatch):
    """Every block's values come from its own values-only SVD, all before any vectors.

    Only a block with values on both sides of the cutoff gets vectors; a
    block with none above it is null throughout, its basis the identity.
    """
    rng = np.random.default_rng(8)
    M = rng.standard_normal((30, 14))
    M[:, 5] = M[:, 3] + M[:, 4]  # the second width-3 block has a null vector
    M[:, 12:] = 1e-12 * rng.standard_normal((30, 2))  # the width-2 block has no value above the cutoff
    blocks = [np.arange(3), np.arange(3, 6), np.arange(6, 12), np.arange(12, 14)]
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rank, basis, sigma_max = svd_nullspace(M, blocks=blocks)
    assert rank == 11 and basis.shape == (14, 3)
    assert calls == [((3, 3), False), ((3, 3), False), ((6, 6), False), ((2, 2), False), ((3, 3), True)]
    assert sigma_max == max(svd(np.linalg.qr(M[:, cols], mode="r"), compute_uv=False)[0] for cols in blocks)
    want = svd(np.linalg.qr(M[:, 3:6], mode="r"))[2][2:].conj().T
    assert np.array_equal(basis[3:6, :1], want) and not basis[:3].any() and not basis[6:12].any()
    assert np.array_equal(basis[12:, 1:], np.eye(2)) and not basis[:12, 1:].any()


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        U = random_unitary(n, rng)
        assert frobenius(U.conj().T @ U - np.eye(n)) < 1e-12
    with pytest.raises(ValueError):
        random_unitary(0, rng)
    with pytest.raises(ValueError):
        random_unit_vector(0, rng)


def test_random_unit_vector_norm():
    rng = np.random.default_rng(2)
    for n in (1, 3, 7):
        v = random_unit_vector(n, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_fix_phase_pins_first_entry():
    rng = np.random.default_rng(3)
    v = random_unit_vector(4, rng)
    u = fix_phase(v)
    k = np.flatnonzero(np.abs(u) > 1e-12)[0]
    assert abs(u[k].imag) < 1e-12 and u[k].real > 0
    # idempotent and phase invariant
    assert np.allclose(fix_phase(u), u)
    assert np.allclose(fix_phase(v * np.exp(0.7j)), u)
    z = np.zeros(3, dtype=complex)
    assert np.allclose(fix_phase(z), z)
    # stacked vectors, a zero one among them, are fixed one by one, bit for bit
    V = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
    V[0, 1] = 0.0
    V[1, 2, :2] = 1e-13
    want = np.stack([np.stack([fix_phase(v) for v in rows]) for rows in V])
    assert np.array_equal(fix_phase(V), want)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=10**6))
def test_hermitian_coords_isometry(d, seed):
    """coords(A) . coords(B) = Tr(A B) and the map round-trips exactly."""
    rng = np.random.default_rng(seed)
    A = random_hermitian(d, rng)
    B = random_hermitian(d, rng)
    ca, cb = hermitian_to_coords(A), hermitian_to_coords(B)
    assert ca.shape == (d * d,)
    assert abs(ca @ cb - np.trace(A @ B).real) < 1e-10 * max(1.0, frobenius(A) * frobenius(B))
    assert abs(np.linalg.norm(ca) - frobenius(A)) < 1e-12 * max(1.0, frobenius(A))
    back = coords_to_hermitian(ca, d)
    assert frobenius(back - A) < 1e-13 * max(1.0, frobenius(A))


def test_coordinate_entries_are_shared_and_read_only():
    for d in range(1, 7):
        a, b = _coordinate_entries(d)
        want_i, want_j = np.triu_indices(d, k=1)
        assert np.array_equal(a, np.concatenate([np.arange(d), want_i]))
        assert np.array_equal(b, np.concatenate([np.arange(d), want_j]))
        assert a.dtype == want_i.dtype and b.dtype == want_j.dtype
        assert _coordinate_entries(d)[0] is a and _coordinate_entries(d)[1] is b
        with pytest.raises(ValueError):
            a[...] = 0
        with pytest.raises(ValueError):
            b[...] = 0
    # the coordinates read the same entries as with fresh indices, bitwise
    rng = np.random.default_rng(13)
    for d in (1, 3, 4, 9):
        stack = np.stack([random_hermitian(d, rng) for _ in range(3)])
        iu, ju = np.triu_indices(d, k=1)
        upper = stack[..., iu, ju]
        want = np.concatenate(
            [np.diagonal(stack, axis1=-2, axis2=-1).real,
             np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag],
            axis=-1,
        )
        assert np.array_equal(hermitian_to_coords(stack), want)
        back = np.zeros((3, d, d), dtype=complex)
        back[..., np.arange(d), np.arange(d)] = want[..., :d]
        p = iu.size
        vals = (want[..., d : d + p] + 1j * want[..., d + p :]) / np.sqrt(2.0)
        back[..., iu, ju] = vals
        back[..., ju, iu] = np.conj(vals)
        got = coords_to_hermitian(want, d)
        assert np.array_equal(got, back)
        # bitwise, signed zeros included: the diagonal's imaginary parts are +0
        assert got.tobytes() == back.tobytes()


def test_hermitian_coords_batched():
    rng = np.random.default_rng(4)
    stack = np.stack([random_hermitian(3, rng) for _ in range(5)])
    coords = hermitian_to_coords(stack)
    assert coords.shape == (5, 9)
    back = coords_to_hermitian(coords, 3)
    assert np.max(np.abs(back - stack)) < 1e-13
    # each matrix's own bits, in the entries' memory order: F-ordered for a stack
    assert np.array_equal(coords, np.stack([hermitian_to_coords(A) for A in stack]))
    assert coords.flags.f_contiguous
    with pytest.raises(ValueError):
        coords_to_hermitian(np.zeros(5), 2)
