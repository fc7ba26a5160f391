"""Exactly solvable two-parameter family of spin-1/2 xyz Heisenberg
rings: MPS ground states, parent Hamiltonians, closed-form observables,
pairwise concurrence and exact-diagonalization certification.
"""

from .model import (
    Couplings,
    ModelParams,
    MpsTensors,
    SymmetryReport,
    check_symmetries,
    couplings_from_params,
    g_blocks,
    general_mps_matrices,
    mps_matrices,
    ring_points,
)
from .mps import (
    PureState,
    amplitude,
    bell_pair_matrices,
    build_state,
    expectation_one_point,
    expectation_two_point,
    explicit_ground_state,
    overlap,
    transfer_matrix,
    transfer_with_operator,
)
from .parent import (
    NullSpaceProblem,
    constant_shift,
    e_vectors,
    local_h,
    null_space_k2,
    pauli_decompose,
    pauli_reconstruct,
    ring_apply,
)
from .observables import (
    DiscontinuityError,
    ObservableRecord,
    SingularParameterError,
    correlations,
    correlations_eta_minus,
    magnetization_x,
    observable_record,
    thermodynamic_correlations,
    thermodynamic_magnetization,
    thermodynamic_magnetization_alt,
    u_param,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence_closed,
    pair_density,
    scaled_concurrence_curve,
    scaling_limit,
    wootters_concurrence,
)
from .ed import (
    Certificate,
    SpectrumResult,
    certify,
    ground_membership,
    ring_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
