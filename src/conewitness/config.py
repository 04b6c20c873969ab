"""The library's verdict cutoffs.

Every cutoff that decides a map verdict (block positivity, exposedness,
detection) or refuses an input matrix compares against one of the
constants below.  They are fixed contract values with no per-call
override: changing one changes what the library certifies, and every
report that echoes one.  The cone search's screening numbers only choose
which candidates reach a verdict; they are heuristics and stay in
``exposedness``, as the verify suites' tolerances stay with their checks.
"""

# relative Frobenius bound for the Hermiticity check,
# ||A - A^dag||_F <= HERMITIAN_RTOL * max(1, ||A||_F); failing matrices are
# rejected, never symmetrized silently
HERMITIAN_RTOL = 1e-12
# Frobenius bound on ||U + U^t||_F and ||U^dag U - I||_F for antisymmetric
# unitaries
ANTISYM_ATOL = 1e-10
# singular-value rank cutoff relative to the largest singular value
NULLSPACE_REL_TOL = 1e-8
# largest imaginary residue tolerated in a pairing value that must be real,
# relative to max(1, ||W||_F)
PAIRING_IMAG_TOL = 1e-12
# a product pair counts as a dual-face zero when the absolute pairing value
# is at most this
ZERO_TOL = 1e-9
# Frobenius distance between unit-normalized representatives below which
# two rays are identified
RAY_TOL = 1e-8
# relative eigenvalue floor for the complete-positivity check
PSD_ATOL = 1e-10
# absolute slack on PSD-ness and unit trace for density operators
STATE_ATOL = 1e-10
# largest |pairing| of a unit-Frobenius counterexample on freshly drawn
# face pairs for NOT_EXPOSED to stand
COUNTEREXAMPLE_FACE_TOL = 1e-8
# the see-saw has converged when no restart's value moves by more than this
# in one sweep, relative to max(1, ||W||_F); reports echo it as "tolerance"
SEESAW_STATIONARITY_TOL = 1e-12
# a see-saw minimum below -VIOLATION_TOL certifies that a map is not
# block-positive
VIOLATION_TOL = 1e-9
