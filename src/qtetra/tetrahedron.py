"""Quantum tetrahedron states and their geometric operators.

A rank-4 SU(2)-invariant tensor of four qubits lives in a 2-dimensional
subspace spanned by the logical basis

    |0_L> = (1/2) (|01> - |10>)(|01> - |10>)
    |1_L> = (1/3)^(1/2) [ |1100> + |0011> - (1/2)(|01> + |10>)(|01> + |10>) ]

and is addressed by Bloch angles: cos(theta/2)|0_L> + e^(i phi) sin(theta/2)|1_L>,
with the |0_L> coefficient kept real non-negative (no extra global phase).

Each face has the sharp area sqrt(3/4) in units of 8*pi*l_P^2. Every dihedral
cosine here is the cosine of the interior dihedral angle, -(4/3) J^(k).J^(m):
a regular tetrahedron has all cosines 1/3 and <cos12>+<cos13>+<cos14> = 1.
The cosine of the angle between outward face normals is its exact negation,
which only ``qtetra tetra --convention normals`` prints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import AXES, DenseOperator, StateVector, _state_amplitudes, angular_momentum

# The three independent dihedral angles; closure fixes the other three.
INDEPENDENT_PAIRS = ((1, 2), (1, 3), (1, 4))

# Closure makes opposite pairs interchangeable: (3,4)~(1,2), (2,4)~(1,3), (2,3)~(1,4).
PAIR_CLASS = {
    (1, 2): (1, 2), (3, 4): (1, 2),
    (1, 3): (1, 3), (2, 4): (1, 3),
    (1, 4): (1, 4), (2, 3): (1, 4),
}


# The logical basis of the module docstring, by basis index (qubit 1 most significant).
_ZERO_L = np.zeros(16)
_ZERO_L[[0b0101, 0b1010]] = 0.5
_ZERO_L[[0b0110, 0b1001]] = -0.5
_ONE_L = np.zeros(16)
_ONE_L[[0b0011, 0b1100]] = 1.0
_ONE_L[[0b0101, 0b0110, 0b1001, 0b1010]] = -0.5
_ONE_L /= math.sqrt(3)


def logical_basis() -> tuple[StateVector, StateVector]:
    """The orthonormal basis (|0_L>, |1_L>) of the 4-qubit invariant subspace."""
    return (
        StateVector(4, _ZERO_L.astype(complex)),
        StateVector(4, _ONE_L.astype(complex)),
    )


@dataclass(frozen=True)
class BlochPoint:
    """A point (theta, phi) on the logical Bloch sphere."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True, eq=False)
class InvariantTensor:
    """A Bloch point and the 16-dimensional invariant state derived from it.

    Only the point is given, as a ``BlochPoint`` or a (theta, phi) pair, and it
    is stored as a ``BlochPoint``; ``embedded`` is alpha|0_L> + beta|1_L>, invariant
    by construction because the logical basis spans the invariant subspace.
    """

    point: BlochPoint
    embedded: StateVector = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "point", _as_point(self.point))
        alpha, beta = bloch_coefficients(self.point)
        object.__setattr__(self, "embedded", StateVector(4, alpha * _ZERO_L + beta * _ONE_L))


def _as_amplitudes(state) -> np.ndarray:
    """The 16 amplitudes of an InvariantTensor, a 4-qubit StateVector or an array."""
    if isinstance(state, InvariantTensor):
        return state.embedded.amplitudes
    return _state_amplitudes(state, 4)


def _as_point(point) -> BlochPoint:
    if isinstance(point, BlochPoint):
        return point
    theta, phi = point
    return BlochPoint(float(theta), float(phi))


def _face_pair(pair) -> tuple[int, int]:
    """Two distinct face indices in 1..4 as ints; 2.0 passes as 2, 1.7 fails."""
    k, m = pair
    for v in (k, m):
        if v not in (1, 2, 3, 4):
            raise ValueError(f"face indices must be integers in 1..4, got {v!r}")
    if k == m:
        raise ValueError("dihedral pair needs two distinct faces")
    return int(k), int(m)


def bloch_coefficients(point) -> np.ndarray:
    """The (|0_L>, |1_L>) coefficient pair of a Bloch point."""
    p = _as_point(point)
    return np.array(
        [math.cos(p.theta / 2), np.exp(1j * p.phi) * math.sin(p.theta / 2)]
    )


def bloch_state(point) -> InvariantTensor:
    """Embed a Bloch point as a normalized 4-qubit invariant tensor."""
    return InvariantTensor(point)


def area_eigenvalue() -> float:
    """Sharp face area sqrt(j(j+1)) = sqrt(3/4) of a spin-1/2 face, in units of 8*pi*l_P^2."""
    return math.sqrt(0.75)


def dihedral_operator(pair) -> DenseOperator:
    """The 16-dim interior cosine operator for the dihedral angle between faces k and m.

    Built once per (k, m); the returned operator is shared and read-only.
    """
    return _dihedral_operator(*_face_pair(pair))


@functools.cache
def _dihedral_operator(k: int, m: int) -> DenseOperator:
    dot = np.zeros((16, 16), dtype=complex)
    for axis in AXES:
        jk = angular_momentum(axis, k, 4).entries
        jm = angular_momentum(axis, m, 4).entries
        dot += jk @ jm
    return DenseOperator(4, -(4.0 / 3.0) * dot)


def independent_dihedral_expectations(point) -> tuple[float, float, float]:
    """Closed-form interior (<cos12>, <cos13>, <cos14>) in the state at a Bloch point.

        <cos12> = cos^2(theta/2) - (1/3) sin^2(theta/2)
        <cos13> = (2/3) sin^2(theta/2) + (2*sqrt(3)/3) cos(theta/2) sin(theta/2) cos(phi)
        <cos14> = same as <cos13> with cos(phi) negated
    """
    p = _as_point(point)
    c, s = math.cos(p.theta / 2), math.sin(p.theta / 2)
    cross = (2 * math.sqrt(3) / 3) * c * s * math.cos(p.phi)
    return c * c - s * s / 3, (2 / 3) * s * s + cross, (2 / 3) * s * s - cross


def dihedral_expectation(point, pair) -> float:
    """Interior <cos theta_km> at a Bloch point; opposite pairs are equal by closure."""
    values = independent_dihedral_expectations(point)
    return values[INDEPENDENT_PAIRS.index(PAIR_CLASS[tuple(sorted(_face_pair(pair)))])]


def fluctuation(point) -> float:
    """Total quadratic dihedral fluctuation Delta at a Bloch point.

    Delta = 2/3 + (8/3) cos^2(theta/2) sin^2(theta/2) (1 - cos^2 phi), the sum
    of the three independent operator variances (see fluctuation_from_operators).
    """
    p = _as_point(point)
    c2 = math.cos(p.theta / 2) ** 2
    s2 = math.sin(p.theta / 2) ** 2
    return 2 / 3 + (8 / 3) * c2 * s2 * (1 - math.cos(p.phi) ** 2)


def fluctuation_from_operators(point) -> float:
    """Delta recomputed as sum_km (<O_km^2> - <O_km>^2) with dense operators."""
    psi = bloch_state(point).embedded.amplitudes
    total = 0.0
    for pair in INDEPENDENT_PAIRS:
        op = dihedral_operator(pair).entries
        mean = np.vdot(psi, op @ psi).real
        mean_sq = np.vdot(psi, op @ (op @ psi)).real
        total += mean_sq - mean**2
    return total
