"""Block-positivity certification by see-saw over product vectors.

The certifier is one-sided: a strictly negative pairing at a product pair is
an exact witness that the map is not positive, while failure to find one is
only evidence of positivity.  Verdict strings keep that asymmetry explicit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .config import (
    PAIRING_IMAG_TOL,
    PSD_ATOL,
    SEESAW_STATIONARITY_TOL,
    STATE_ATOL,
    VIOLATION_TOL,
    ZERO_TOL,
)
from .errors import ConvergenceFailure, DimensionMismatch, NotAState
from .linalg import fix_phase, frobenius, require_hermitian
from .maps import LinearMatrixMap, compose_with_transpose, witness_pairing


@dataclass(frozen=True)
class SeeSawConfig:
    """Knobs for the alternating eigenvector descent.

    stop_below lets certification runs exit as soon as any restart dips
    under a target value, skipping the stationarity polish.  The
    stationarity cutoff is ``SEESAW_STATIONARITY_TOL``, with no override.
    """

    restarts: int = 64
    max_iters: int = 500
    stop_below: float | None = None


@dataclass(frozen=True, eq=False)
class ProductPair:
    """A product pair (x, y) with its pairing value, phases fixed."""

    x: np.ndarray
    y: np.ndarray
    value: float


@dataclass(frozen=True, eq=False)
class BlockPositivityReport:
    min_value: float
    argmin: ProductPair
    restarts_used: int
    iterations: int
    converged: bool
    tolerance: float


def _random_unit_rows(rows: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


# greedy einsum paths by (subscripts, operand shapes): planning reads only
# the shapes, and one path always runs the same contractions
_PATHS: dict[tuple, list] = {}


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=True)``, planned once per operand shapes."""
    key = (subscripts, *(op.shape for op in operands))
    path = _PATHS.get(key)
    if path is None:
        path = _PATHS[key] = np.einsum_path(subscripts, *operands, optimize=True)[0]
    return np.einsum(subscripts, *operands, optimize=path)


def _y_side(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Hermitized ``phi(P_x)`` for every row x of X: the pairing is ``<y|phi(P_x)|y>``."""
    M = _einsum("ri,ikjl,rj->rkl", X, T, X.conj())
    return (M + M.conj().transpose(0, 2, 1)) / 2


def _sweep(
    T: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One see-saw step for every row: x at fixed y, then y at the new x.

    Each half-step replaces one factor by the bottom eigenvector of the
    partially contracted witness ``T`` (the Choi matrix as ``(n, m, n, m)``).
    Returns the new ``(X, Y)`` and each row's pairing, the bottom eigenvalue
    of the y-side matrix.
    """
    # minimize over x at fixed y: the pairing is <x|conj(N_y)|x>
    N = _einsum("rk,ikjl,rl->rij", Y.conj(), T, Y).conj()
    _, v = np.linalg.eigh((N + N.conj().transpose(0, 2, 1)) / 2)
    X = v[:, :, 0]
    w, v = np.linalg.eigh(_y_side(T, X))
    return X, v[:, :, 0], w[:, 0]


def seesaw_endpoints(
    phi: LinearMatrixMap,
    config: SeeSawConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Run all see-saw restarts together; return every restart's endpoint.

    Every iteration is one :func:`_sweep`, so the value is monotone
    non-increasing along every restart.  Returns (X, Y, values, iterations,
    converged) with X of shape (restarts, dim_in) and Y of shape
    (restarts, dim_out).
    """
    n, m = phi.dim_in, phi.dim_out
    R = operator.index(config.restarts)
    if R < 1:
        raise ValueError("need at least one restart")
    iters = operator.index(config.max_iters)
    if iters < 1:
        raise ValueError("need at least one iteration")
    T = phi.choi.reshape(n, m, n, m)
    scale = max(1.0, frobenius(phi.choi))

    X = _random_unit_rows(R, n, rng)
    Y = _random_unit_rows(R, m, rng)
    prev = np.full(R, np.inf)
    vals = prev
    iters_done = 0
    converged = False
    for it in range(1, iters + 1):
        X, Y, vals = _sweep(T, X, Y)
        iters_done = it
        if config.stop_below is not None and vals.min() < config.stop_below:
            converged = True
            break
        if np.all(np.abs(prev - vals) <= SEESAW_STATIONARITY_TOL * scale):
            converged = True
            break
        prev = vals
    return X, Y, vals, iters_done, converged


def is_block_positive(
    phi: LinearMatrixMap,
    config: SeeSawConfig = SeeSawConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[str, BlockPositivityReport]:
    """Minimize ``<x (x) conj(y)| W |x (x) conj(y)>`` over unit product pairs.

    The verdict is one-sided: CERTIFIED_NOT_BP on a witnessed violation,
    else EVIDENCE_BP.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    X, Y, vals, iters_done, converged = seesaw_endpoints(phi, config, rng)
    r = int(np.argmin(vals))
    x = fix_phase(X[r])
    y = fix_phase(Y[r])
    # the certificate value is the pairing itself, not the last eigenvalue
    value = witness_pairing(phi.choi, x, y)
    report = BlockPositivityReport(
        min_value=value,
        argmin=ProductPair(x=x, y=y, value=value),
        restarts_used=len(vals),
        iterations=iters_done,
        converged=converged,
        tolerance=SEESAW_STATIONARITY_TOL,
    )
    verdict = "CERTIFIED_NOT_BP" if value < -VIOLATION_TOL else "EVIDENCE_BP"
    return verdict, report


def is_completely_positive(phi: LinearMatrixMap) -> tuple[bool, float]:
    """Complete positivity is a spectral fact of the Choi matrix."""
    w = np.linalg.eigvalsh(phi.choi)
    lam = float(w[0])
    return lam >= -PSD_ATOL * max(1.0, frobenius(phi.choi)), lam


def is_completely_copositive(phi: LinearMatrixMap) -> tuple[bool, float]:
    """Complete copositivity of phi is complete positivity of phi o transpose."""
    return is_completely_positive(compose_with_transpose(phi))


def detect_entanglement(rho: np.ndarray, phi: LinearMatrixMap) -> tuple[float, str]:
    """Evaluate ``tr(W rho)`` for the map's Choi witness against a state.

    A strictly negative value certifies entanglement of rho across the
    (input, output) split; nonnegative values decide nothing.
    """
    W = phi.choi
    rho = require_hermitian(np.asarray(rho, dtype=complex))
    if rho.shape != W.shape:
        raise DimensionMismatch(f"state has shape {rho.shape}, witness {W.shape}")
    lam = float(np.linalg.eigvalsh(rho)[0])
    if lam < -STATE_ATOL:
        raise NotAState(f"state has negative eigenvalue {lam:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > STATE_ATOL * max(1.0, abs(tr)):
        raise NotAState(f"state trace {tr!r} is not 1")
    value = np.trace(W @ rho)
    if abs(value.imag) > PAIRING_IMAG_TOL * max(1.0, frobenius(W)):
        raise ConvergenceFailure(f"witness expectation has imaginary part {value.imag:.3e}")
    value = float(value.real)
    verdict = "DETECTED" if value < -ZERO_TOL else "NOT_DETECTED"
    return value, verdict
