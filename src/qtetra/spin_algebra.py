"""Pauli and angular-momentum operator algebra on small qubit registers.

Conventions used throughout the package:

* qubit 1 is the most significant bit of the computational basis index,
  so ``|b1 b2 ... bn>`` sits at index ``b1*2**(n-1) + ... + bn``;
* hbar = 1 and J = sigma / 2;
* Clebsch-Gordan coefficients follow the Condon-Shortley phase convention
  (all coefficients real).

Everything here is dense; operators are capped at 8 qubits (256 x 256).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


MAX_OPERATOR_QUBITS = 8
HERMITIAN_ATOL = 1e-12

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

AXES = ("x", "y", "z")


def _frozen_array(values, dtype=complex):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the 2^n computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be a positive integer")
        arr = _frozen_array(self.amplitudes)
        if arr.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubits, got shape {arr.shape}"
            )
        object.__setattr__(self, "amplitudes", arr)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense 2^n x 2^n Hermitian matrix."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = 2**self.n_qubits
        arr = _frozen_array(self.entries)
        if arr.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {arr.shape}")
        defect = np.abs(arr - arr.conj().T).max()
        if defect >= HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from its adjoint by {defect:.3e}")
        object.__setattr__(self, "entries", arr)


def _is_half_integer(x: float) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-12


@dataclass(frozen=True)
class CouplingLabel:
    """Angular momenta (j1, j2) coupled to total (J, M)."""

    j1: float
    j2: float
    J: float
    M: float

    def __post_init__(self):
        for name in ("j1", "j2", "J", "M"):
            if not _is_half_integer(getattr(self, name)):
                raise ValueError(f"{name} must be integer or half-integer")
        if self.j1 < 0 or self.j2 < 0:
            raise ValueError("j1 and j2 must be non-negative")
        if not (abs(self.j1 - self.j2) - 1e-12 <= self.J <= self.j1 + self.j2 + 1e-12):
            raise ValueError(
                f"triangle condition violated: need |j1-j2| <= J <= j1+j2, "
                f"got j1={self.j1}, j2={self.j2}, J={self.J}"
            )
        if not _is_half_integer(self.J - self.M) or abs(self.M) > self.J + 1e-12:
            raise ValueError(f"M={self.M} is not in -J..J for J={self.J}")


def _register_size(n) -> int:
    """n as a plain int; range membership is equality, so 4.0 passes and 4.5 fails."""
    if n not in range(1, MAX_OPERATOR_QUBITS + 1):
        raise ValueError(f"n must be an integer in 1..{MAX_OPERATOR_QUBITS}, got {n!r}")
    return int(n)


def _check_qubit(axis: str, k, n) -> tuple[int, int]:
    """(k, n) as plain ints, the memo keys."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    n = _register_size(n)
    if k not in range(1, n + 1):
        raise ValueError(f"qubit index k={k!r} is not an integer in 1..{n}")
    return int(k), n


def _tensor_products(factors) -> np.ndarray:
    """All tensor products of one 2x2 choice per qubit, qubit 1's choice varying slowest.

    ``factors[i]`` stacks the (m_i, 2, 2) choices for qubit i+1; the result has
    shape (m_1*...*m_n, 2^n, 2^n). Each step is the broadcast multiply of
    ``np.kron(out, f)``, so the bytes equal those of a kron chain from [[1]].
    """
    out = np.ones((1, 1, 1), dtype=complex)
    for f in factors:
        d = 2 * out.shape[1]
        out = (out[:, None, :, None, :, None] * f[None, :, None, :, None, :]).reshape(-1, d, d)
    return out


# The fixed operators are built once per argument tuple and then shared: their
# entries are read-only, so no caller can alter what another one sees. The
# public functions validate their arguments on every call, then read the memo.
# Only valid arguments reach it, which bounds it: the 4-qubit operators take
# ~0.1 MB, and every register up to MAX_OPERATOR_QUBITS together ~65 MB.


@functools.cache
def _pauli_embedded(axis: str, k: int, n: int) -> DenseOperator:
    factors = [PAULI[axis] if i == k else np.eye(2, dtype=complex) for i in range(1, n + 1)]
    return DenseOperator(n, _tensor_products([f[None] for f in factors])[0])


@functools.cache
def _angular_momentum(axis: str, k: int, n: int) -> DenseOperator:
    return DenseOperator(n, _pauli_embedded(axis, k, n).entries / 2)


@functools.cache
def _total_angular_momentum(axis: str, n: int) -> DenseOperator:
    total = sum(_angular_momentum(axis, k, n).entries for k in range(1, n + 1))
    return DenseOperator(n, total)


def pauli_embedded(axis: str, k: int, n: int) -> DenseOperator:
    """Pauli matrix on qubit k of an n-qubit register, identity elsewhere."""
    return _pauli_embedded(axis, *_check_qubit(axis, k, n))


def angular_momentum(axis: str, k: int, n: int) -> DenseOperator:
    """J_axis on qubit k (spin-1/2, hbar = 1): half the embedded Pauli."""
    return _angular_momentum(axis, *_check_qubit(axis, k, n))


def _state_amplitudes(state, n_qubits: int) -> np.ndarray:
    if isinstance(state, StateVector):
        if state.n_qubits != n_qubits:
            raise ValueError(f"expected a {n_qubits}-qubit state, got {state.n_qubits}")
        return state.amplitudes
    arr = np.asarray(state, dtype=complex).reshape(-1)
    if arr.size != 2**n_qubits:
        raise ValueError(f"expected {2**n_qubits} amplitudes, got {arr.size}")
    return arr


def closure_defect(state) -> float:
    """Strength of the total angular momentum acting on a 4-qubit state.

    Returns sqrt(sum_a ||(J_a^(1)+J_a^(2)+J_a^(3)+J_a^(4)) |psi>||^2), which
    vanishes exactly on the SU(2)-invariant subspace and equals
    sqrt(<J_total^2>) on normalized input.
    """
    psi = _state_amplitudes(state, 4)
    total = 0.0
    for axis in AXES:
        j_tot = _total_angular_momentum(axis, 4).entries
        total += float(np.linalg.norm(j_tot @ psi) ** 2)
    return math.sqrt(total)


def _fact(x: float) -> int:
    k = round(x)
    if abs(x - k) > 1e-9 or k < 0:
        raise ValueError(f"expected a non-negative integer, got {x}")
    return math.factorial(k)


def cg_coefficient(label: CouplingLabel, m1: float, m2: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Condon-Shortley convention, computed from the Racah closed form. Returns
    0 when m1 + m2 != M; raises if the label violates the triangle condition
    (that check lives in CouplingLabel) or the m's are out of range.
    """
    j1, j2, J, M = label.j1, label.j2, label.J, label.M
    for j, m, name in ((j1, m1, "m1"), (j2, m2, "m2")):
        if not _is_half_integer(m) or abs(m) > j + 1e-12 or not _is_half_integer(j - m):
            raise ValueError(f"{name}={m} is not a valid projection for j={j}")
    if abs(m1 + m2 - M) > 1e-12:
        return 0.0

    prefactor = math.sqrt(
        (2 * J + 1)
        * _fact(j1 + j2 - J)
        * _fact(j1 - j2 + J)
        * _fact(-j1 + j2 + J)
        / _fact(j1 + j2 + J + 1)
    )
    prefactor *= math.sqrt(
        _fact(J + M)
        * _fact(J - M)
        * _fact(j1 - m1)
        * _fact(j1 + m1)
        * _fact(j2 - m2)
        * _fact(j2 + m2)
    )
    k_min = round(max(0.0, j2 - J - m1, j1 - J + m2))
    k_max = round(min(j1 + j2 - J, j1 - m1, j2 + m2))
    total = 0.0
    for k in range(k_min, k_max + 1):
        total += (-1) ** k / (
            _fact(k)
            * _fact(j1 + j2 - J - k)
            * _fact(j1 - m1 - k)
            * _fact(j2 + m2 - k)
            * _fact(J - j2 + m1 + k)
            * _fact(J - j1 - m2 + k)
        )
    return prefactor * total


def invariant_projector(n: int) -> DenseOperator:
    """Orthogonal projector onto the total-J = 0 subspace of n qubits."""
    n = _register_size(n)
    j_squared = sum(
        _total_angular_momentum(axis, n).entries @ _total_angular_momentum(axis, n).entries
        for axis in AXES
    )
    evals, evecs = np.linalg.eigh(j_squared)
    kernel = evecs[:, evals < 0.5]  # eigenvalues are J(J+1), so 0 or >= 2
    proj = kernel @ kernel.conj().T
    proj = (proj + proj.conj().T) / 2
    return DenseOperator(n, proj)
