"""Quantum tetrahedra, spin-network vertex amplitudes, and a tomography rehearsal."""

import numpy as _np

from .spin_algebra import (
    CouplingLabel,
    DenseOperator,
    StateVector,
    angular_momentum,
    cg_coefficient,
    closure_defect,
    invariant_projector,
    pauli_embedded,
)
from .tetrahedron import (
    BlochPoint,
    InvariantTensor,
    area_eigenvalue,
    bloch_state,
    dihedral_expectation,
    dihedral_operator,
    fluctuation,
    fluctuation_from_operators,
    independent_dihedral_expectations,
    logical_basis,
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
    cyclic_k5,
    k5_graph,
    partner_rule_graph,
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


def _keep_temporaries_on_the_heap() -> None:
    """Free one 2 MB block, so glibc keeps later blocks up to that size on its heap.

    glibc serves a block above its mmap threshold (128 KB at start) by a fresh
    mapping and returns free heap above twice that to the kernel. The
    contraction's and the tomography's 0.1-1 MB temporaries would then be
    page-faulted in anew on every call: ~116 faults per five-node amplitude
    and ~230 per one-target experiment, ~25-30% of their time. Freeing a
    mapped block raises both thresholds to its size (glibc's dynamic mmap
    threshold). Other allocators see one short-lived allocation.
    """
    block = _np.empty(1 << 21, dtype=_np.uint8)
    del block


_keep_temporaries_on_the_heap()
