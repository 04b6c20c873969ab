"""Central tolerance configuration.

Every numerical predicate in the library reads its cutoff from a
:class:`Tolerances` record, and every operation that checks one accepts an
override.  The defaults below are the documented contract values; changing
them changes what the library certifies.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric cutoffs used across the library.

    Attributes
    ----------
    hermitian_rtol:
        Relative Frobenius tolerance for the Hermiticity check,
        ``||A - A^dag||_F <= hermitian_rtol * max(1, ||A||_F)``.
        Matrices failing it are rejected, never symmetrized silently.
    antisym_atol:
        Frobenius bound on ``||U + U^t||_F`` and ``||U^dag U - I||_F`` for
        antisymmetric unitaries.
    nullspace_rel_tol:
        Singular-value rank cutoff relative to the largest singular value.
    pairing_imag_tol:
        Largest imaginary residue tolerated in a pairing value that must be
        real, relative to ``max(1, ||W||_F)``.
    zero_tol:
        A product pair counts as a dual-face zero when the absolute pairing
        value is at most this.
    ray_tol:
        Frobenius distance between unit-normalized representatives below
        which two rays are identified.
    psd_atol:
        Relative eigenvalue floor for the complete-positivity check.
    state_atol:
        Absolute slack on PSD-ness and unit trace for density operators.
    """

    hermitian_rtol: float = 1e-12
    antisym_atol: float = 1e-10
    nullspace_rel_tol: float = 1e-8
    pairing_imag_tol: float = 1e-12
    zero_tol: float = 1e-9
    ray_tol: float = 1e-8
    psd_atol: float = 1e-10
    state_atol: float = 1e-10


DEFAULT_TOLERANCES = Tolerances()
