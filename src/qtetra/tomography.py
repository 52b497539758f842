"""Desk-scale rehearsal of the four-qubit preparation and readout pipeline.

The chain simulated here, per target: the ideal invariant tetrahedron state,
a configurable noise channel (small random z-rotations on each qubit, then
depolarizing), full Pauli tomography (all 256 four-qubit Pauli expectations
are evaluated directly and inverted), purification to the dominant
eigenvector, and fidelity scoring with the normalized Hilbert-Schmidt
overlap trace(ab)/sqrt(trace(a^2) trace(b^2)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import named_states
from .spin_algebra import HERMITIAN_ATOL, PAULI, StateVector
from .tetrahedron import (
    BlochPoint,
    bloch_state,
    dihedral_operator,
    fluctuation,
    independent_dihedral_expectations,
)

DIM = 16

TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PURIFY_GAP_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 16x16 Hermitian, unit-trace, positive semidefinite matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.shape != (DIM, DIM):
            raise ValueError(f"expected a {DIM}x{DIM} matrix, got {arr.shape}")
        # NaN fails every comparison below, so it has to be caught here
        if not np.isfinite(arr).all():
            raise ValueError("density matrix entries must be finite")
        defect = np.abs(arr - arr.conj().T).max()
        if defect >= HERMITIAN_ATOL:
            raise ValueError(f"density matrix must be Hermitian: max |rho - rho^dagger| = "
                             f"{defect:.3e} >= {HERMITIAN_ATOL:g}")
        if abs(np.trace(arr).real - 1.0) >= TRACE_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(arr).real}")
        smallest = np.linalg.eigvalsh(arr).min()
        if smallest < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix must be positive semidefinite: smallest "
                             f"eigenvalue {smallest:.3e} < {EIGENVALUE_FLOOR:g}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_state(cls, state) -> "DensityMatrix":
        psi = state.amplitudes if isinstance(state, StateVector) else np.asarray(state, complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing weight plus per-qubit random z-rotation spread."""

    depolarizing_p: float = 0.02
    rotation_angle_sd: float = 0.04
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError("depolarizing_p must lie in [0, 1]")
        if not (math.isfinite(self.rotation_angle_sd) and self.rotation_angle_sd >= 0.0):
            raise ValueError(
                f"rotation_angle_sd must be finite and non-negative, got {self.rotation_angle_sd}"
            )


DEFAULT_NOISE = NoiseSpec()
ZERO_NOISE = NoiseSpec(depolarizing_p=0.0, rotation_angle_sd=0.0, seed=0)


_PAULI_LETTERS = ("I", "X", "Y", "Z")
_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI["x"],
    "Y": PAULI["y"],
    "Z": PAULI["z"],
}


def pauli_strings() -> list[str]:
    """The 256 four-qubit Pauli labels in canonical order (qubit 1 first)."""
    return ["".join(p) for p in itertools.product(_PAULI_LETTERS, repeat=4)]


@functools.cache
def _pauli_matrices() -> np.ndarray:
    mats = np.empty((256, DIM, DIM), dtype=complex)
    for i, label in enumerate(pauli_strings()):
        m = np.array([[1.0 + 0.0j]])
        for ch in label:
            m = np.kron(m, _SINGLE[ch])
        mats[i] = m
    mats.setflags(write=False)
    return mats


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """<P> = trace(rho P) for all 256 Pauli strings, canonically indexed."""
    mats = _pauli_matrices()
    # trace(rho P) = sum_ij rho_ij P_ji
    return np.einsum("ij,kji->k", rho.entries, mats).real


def rho_from_expectations(values) -> DensityMatrix:
    """Invert tomography: rho = (1/16) sum_P <P> P (exact round trip)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (256,):
        raise ValueError(f"expected 256 Pauli expectations, got {vals.shape}")
    rho = np.einsum("k,kij->ij", vals, _pauli_matrices()) / DIM
    return DensityMatrix(rho)


class DegeneracyError(ValueError):
    """The dominant eigenvalue of a density matrix is not unique."""


def ml_purify(rho: DensityMatrix) -> StateVector:
    """The pure state maximizing <psi|rho|psi>: the dominant eigenvector.

    The global phase is fixed by making the largest-magnitude component real
    and positive. Raises DegeneracyError when the top eigenvalue gap is
    below ``PURIFY_GAP_ATOL``.
    """
    evals, evecs = np.linalg.eigh(rho.entries)
    gap = evals[-1] - evals[-2]
    if gap < PURIFY_GAP_ATOL:
        raise DegeneracyError(
            f"dominant eigenvalue is degenerate (gap {gap:.3e} between "
            f"{evals[-1]:.6f} and {evals[-2]:.6f})"
        )
    psi = evecs[:, -1]
    pivot = int(np.argmax(np.abs(psi)))
    psi = psi * (abs(psi[pivot]) / psi[pivot])
    return StateVector(4, psi)


def fidelity(a, b) -> float:
    """Normalized Hilbert-Schmidt overlap trace(ab)/sqrt(trace(a^2) trace(b^2))."""
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    pa = np.trace(ma @ ma).real
    pb = np.trace(mb @ mb).real
    if pa <= 1e-300 or pb <= 1e-300:
        raise ValueError("fidelity is undefined for zero-purity input")
    return float(np.trace(ma @ mb).real / math.sqrt(pa * pb))


def apply_noise(rho: DensityMatrix, noise: NoiseSpec, rng: np.random.Generator) -> DensityMatrix:
    """Small random z-rotations on each qubit, then depolarizing."""
    angles = rng.normal(0.0, noise.rotation_angle_sd, 4)
    u = np.array([[1.0 + 0.0j]])
    for angle in angles:
        u = np.kron(u, np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)]))
    mixed = u @ rho.entries @ u.conj().T
    p = noise.depolarizing_p
    return DensityMatrix((1 - p) * mixed + p * np.eye(DIM) / DIM)


_COSINES = ("cos12", "cos13", "cos14")


def _re_im(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


@dataclass(frozen=True)
class TargetReport:
    name: str
    theta: float
    phi: float
    fidelity: float
    delta_theory: float
    delta_measured: float
    dihedral_theory: tuple[float, float, float]
    dihedral_measured: tuple[float, float, float]
    amplitude_theory: complex
    amplitude_purified: complex

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "theta": self.theta,
            "phi": self.phi,
            "fidelity": self.fidelity,
            "delta_theory": self.delta_theory,
            "delta_measured": self.delta_measured,
            "dihedral_theory": dict(zip(_COSINES, self.dihedral_theory)),
            "dihedral_measured": dict(zip(_COSINES, self.dihedral_measured)),
            "amplitude_theory": _re_im(self.amplitude_theory),
            "amplitude_purified": _re_im(self.amplitude_purified),
        }


@dataclass(frozen=True)
class ExperimentReport:
    noise: NoiseSpec
    rule: str
    regular: str
    targets: tuple[TargetReport, ...]

    def to_dict(self) -> dict:
        return {
            "noise": asdict(self.noise),
            "convention": {"slot_rule": self.rule, "regular_state": self.regular},
            "targets": [t.to_dict() for t in self.targets],
        }


def simulate_experiment(
    targets: dict[str, BlochPoint] | None = None,
    noise: NoiseSpec = DEFAULT_NOISE,
) -> ExperimentReport:
    """Prepare, corrupt, tomograph, purify and score each target state.

    For every target Bloch point: build the ideal invariant tensor, apply the
    noise channel, run the exact tomography round trip, purify to the dominant
    eigenvector, score the fidelity against the ideal state, measure dihedral
    expectations and the total fluctuation on the noisy state, and recompute
    the vertex amplitude with the purified state at node 5 (four ideal regular
    tensors elsewhere). A density matrix carries no global phase, so the
    purified state is phase-aligned against the ideal target before the
    amplitude is evaluated; in the noiseless limit the amplitudes then match
    the theory values exactly.
    """
    if targets is None:
        targets = named_states.NAMED_POINTS
    rng = np.random.default_rng(noise.seed)
    rule, regular = named_states.DEFAULT_RULE, named_states.DEFAULT_REGULAR
    interior_ops = [dihedral_operator(pair).entries for pair in ((1, 2), (1, 3), (1, 4))]
    reports = []
    for name, point in targets.items():
        ideal = bloch_state(point)
        rho_ideal = DensityMatrix.from_state(ideal.embedded)
        rho_noisy = apply_noise(rho_ideal, noise, rng)
        rho_measured = rho_from_expectations(pauli_expectations(rho_noisy))
        purified = ml_purify(rho_measured)
        overlap = np.vdot(ideal.embedded.amplitudes, purified.amplitudes)
        if abs(overlap) > 1e-12:
            purified = StateVector(4, purified.amplitudes * (overlap.conjugate() / abs(overlap)))

        measured = []
        delta_measured = 0.0
        for op in interior_ops:
            mean = np.trace(rho_measured.entries @ op).real
            mean_sq = np.trace(rho_measured.entries @ op @ op).real
            measured.append(float(mean))
            delta_measured += mean_sq - mean**2

        amp_theory, amp_purified = named_states.fifth_node_amplitudes([ideal, purified])
        reports.append(
            TargetReport(
                name=name,
                theta=point.theta,
                phi=point.phi,
                fidelity=fidelity(rho_measured, rho_ideal),
                delta_theory=fluctuation(point),
                delta_measured=float(delta_measured),
                dihedral_theory=independent_dihedral_expectations(point),
                dihedral_measured=tuple(measured),
                amplitude_theory=amp_theory,
                amplitude_purified=amp_purified,
            )
        )
    return ExperimentReport(noise=noise, rule=rule, regular=regular, targets=tuple(reports))
