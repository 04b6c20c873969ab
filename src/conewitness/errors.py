"""Exception hierarchy for conewitness."""


class ConeWitnessError(Exception):
    """Base class for all conewitness errors."""


class NonHermitianInput(ConeWitnessError):
    """A matrix required to be Hermitian failed the Hermiticity check."""


class ConvergenceFailure(ConeWitnessError):
    """A numerical backend (eigensolver, SVD) failed to converge."""


class DimensionMismatch(ConeWitnessError):
    """Operand dimensions are incompatible."""


class NonRealPairing(ConeWitnessError):
    """A pairing value that must be real carried too large an imaginary part."""


class NegativeParameter(ConeWitnessError):
    """A parameter constrained to be nonnegative was negative."""


class NotPositiveMap(ConeWitnessError):
    """A predicate that requires a positive map was called on a non-positive one."""


class NotAntisymmetric(ConeWitnessError):
    """A matrix required to satisfy U^t = -U failed the check."""


class NotUnitary(ConeWitnessError):
    """A matrix required to be unitary failed the check."""


class OddDimension(ConeWitnessError):
    """An even matrix dimension is required (antisymmetric unitaries need one)."""


class NotAState(ConeWitnessError):
    """A matrix required to be a density operator (PSD, unit trace) is not one."""


class NotUnitVector(ConeWitnessError):
    """A vector required to have unit norm does not."""


class NotBlockPositive(ConeWitnessError):
    """An operation requiring a block-positive input received a certified violation."""


class InsufficientZeros(ConeWitnessError):
    """Numeric dual-face harvesting found fewer product zeros than requested."""


class ZeroWitness(ConeWitnessError):
    """A map whose Choi matrix is zero has no ray, so no face to rank or search."""


class UnstableDimension(ConeWitnessError):
    """Null-space dimension changed when the constraint sample count was doubled."""
