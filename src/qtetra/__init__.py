"""Quantum tetrahedra, spin-network vertex amplitudes, and a tomography rehearsal."""

from .spin_algebra import (
    CouplingLabel,
    DenseOperator,
    StateVector,
    angular_momentum,
    cg_coefficient,
    closure_defect,
    invariant_projector,
    pauli_embedded,
    total_angular_momentum,
)
from .tetrahedron import (
    BlochPoint,
    DihedralPair,
    InvariantTensor,
    area_eigenvalue,
    bloch_state,
    compress_to_logical,
    dihedral_expectation,
    dihedral_operator,
    fluctuation,
    fluctuation_from_operators,
    independent_dihedral_expectations,
    logical_basis,
    regular_points,
)
from .geometry import (
    AreaVectorSet,
    InfeasibleGeometryError,
    TetrahedronVertices,
    areas_from_vertices,
    expectations_to_geometry,
    reconstruct,
)
from .amplitude import (
    AmplitudeResult,
    SpinNetworkGraph,
    amplitude_from_table,
    amplitude_sweep,
    basis_amplitude_table,
    canonical_k5,
    cyclic_k5,
    k5_graph,
    partner_rule_graph,
    singlet,
    vertex_amplitude,
    vertex_amplitude_bruteforce,
)
from .named_states import (
    NAMED_POINTS,
    REFERENCE_AMPLITUDES,
    calibrate_reference_convention,
    reference_comparison,
)
from .tomography import (
    DEFAULT_NOISE,
    DegeneracyError,
    DensityMatrix,
    NoiseSpec,
    fidelity,
    ml_purify,
    pauli_expectations,
    rho_from_expectations,
    simulate_experiment,
)

__version__ = "0.1.0"
