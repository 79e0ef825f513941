"""Two-state outcome-assignment toolkit.

A pair of quantum states (forward- and backward-evolving) deterministically
fixes measurement outcomes through an overlap-sum rule; averaging over
backward states recovers Born statistics. The package provides the rule as
one batch kernel over rule sums (``tally_rule``), seeded Monte Carlo
estimators built on it, a pair-distinguishing count over Bloch vectors,
equiangular projector sets with a numerical fiducial search, the
stationary-pair commutator solver, and a reproducible command-line
experiment harness.
"""

from .assignment import (
    MultipleOutcomesError,
    OrthogonalPostSelectionError,
    PreconditionError,
    WeakValueResult,
    tally_rule,
    weak_value,
)
from .blochpbr import (
    pbr_geometric,
    pbr_separators,
)
from .dynamics import (
    CommutatorTarget,
    InfeasibleKError,
    NotPsdError,
    StationarySolveInput,
    commutator_solve,
)
from .qcore import (
    HermitianOperator,
    OrthonormalBasis,
    StateVector,
    commutator,
    spectral,
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
    SicValidationReport,
    builtin_fiducial,
    frame_potential,
    search_fiducial,
    sic_distinguish,
    sic_from_fiducial,
    validate_sic,
    welch_bound,
    wh_displacements,
)

__version__ = "0.1.0"
