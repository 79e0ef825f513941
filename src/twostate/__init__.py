"""Two-state outcome-assignment toolkit.

A pair of quantum states (forward- and backward-evolving) deterministically
fixes measurement outcomes through an overlap-sum rule; averaging over
backward states recovers Born statistics. The package provides the rule and
its mixed-state form, seeded Monte Carlo estimators, Bloch-sphere geometry
with a pair-distinguishing construction, equiangular projector sets with a
numerical fiducial search, stationary-pair solvers, and a reproducible
command-line experiment harness.
"""

from .assignment import (
    AssignmentResult,
    MultipleOutcomesError,
    OrthogonalPostSelectionError,
    TwoStatePairMixed,
    TwoStatePairPure,
    WeakValueResult,
    assign_over_basis,
    satisfies_mixed,
    satisfies_pure,
    tally_rule,
    time_reverse,
    weak_value,
)
from .blochpbr import (
    BlochVector,
    DegenerateInstanceError,
    PbrGeometricInstance,
    bell_condition,
    bloch_from_state,
    pbr_distinguishing_vector,
    pbr_geometric,
    pbr_separators,
    state_from_bloch,
)
from .dynamics import (
    CommutatorTarget,
    InfeasibleKError,
    NotPsdError,
    StationarySolveInput,
    commutator_solve,
    evolve_pair,
    first_order_invariance_check,
    stationarity_check,
    stationary_partner,
)
from .qcore import (
    DensityMatrix,
    HermitianOperator,
    OrthonormalBasis,
    Projector,
    SpectralDecomposition,
    StateVector,
    UnitaryOperator,
    commutator,
    inner,
    projector_of,
    spectral,
    trace_product,
)
from .sampling import (
    BasisMcResult,
    BornEstimate,
    Fixed,
    HaarPure,
    RngStream,
    UniformOverlap,
    basis_mc,
    born_mc,
    born_oracle,
    exclusivity_scan,
    haar_state,
    haar_states,
)
from .sic import (
    FiducialSearchReport,
    InvalidSicError,
    SicCoefficients,
    SicPovm,
    SicValidationReport,
    builtin_fiducial,
    builtin_sic,
    frame_potential,
    search_fiducial,
    sic_distinguish,
    sic_expand,
    sic_from_fiducial,
    sic_reconstruct,
    sic_rule_check,
    validate_sic,
    welch_bound,
    wh_displacements,
)

__version__ = "0.1.0"
