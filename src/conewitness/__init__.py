"""Positive maps on matrix algebras, their witnesses, and exposedness."""

from .catalog import (
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
)
from .errors import (
    ConeWitnessError,
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientZeros,
    NegativeParameter,
    NonHermitianInput,
    NonRealPairing,
    NotAState,
    NotAntisymmetric,
    NotBlockPositive,
    NotPositiveMap,
    NotUnitVector,
    NotUnitary,
    OddDimension,
    UnstableDimension,
    ZeroWitness,
)
from .linalg import (
    coords_to_hermitian,
    fix_phase,
    frobenius,
    hermitian_to_coords,
    random_unit_vector,
    random_unitary,
    svd_nullspace,
)
from .maps import (
    Face,
    LinearMatrixMap,
    apply,
    choi_from_apply,
    choi_of,
    compose_with_transpose,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    ray_representative,
    witness_pairing,
)
from .positivity import (
    BlockPositivityReport,
    ProductPair,
    SeeSawConfig,
    detect_entanglement,
    is_block_positive,
    is_completely_copositive,
    is_completely_positive,
)
from .exposedness import (
    BHStructureReport,
    DualFaceSample,
    ExposednessReport,
    cone_search_off_ray,
    double_dual_nullspace,
    dual_face_samples,
    exposedness_report,
    optimality_spanning_check,
    verify_bh_structure,
    verify_lemma1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
