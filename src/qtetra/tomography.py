"""Desk-scale rehearsal of the four-qubit preparation and readout pipeline.

The chain simulated here, per target: the ideal invariant tetrahedron state,
a configurable noise channel (small random z-rotations on each qubit, then
depolarizing), full Pauli tomography (all 256 four-qubit Pauli expectations
are evaluated directly and inverted), purification to the dominant
eigenvector, and fidelity scoring with the normalized Hilbert-Schmidt
overlap trace(ab)/sqrt(trace(a^2) trace(b^2)).

Every Pauli string has one nonzero entry, 1, -1, i or -i, in each row and
each column, so the expectations are a gather and the inversion a scatter
over tables built once per process on first use. Every product is exact;
only the order of the sums could move a bit, and both run in the order of
the ``np.einsum`` forms over the (256, 16, 16) stack that they replace, so
their results are bit-identical to that form. The tests keep it as their
reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import named_states
from .spin_algebra import HERMITIAN_ATOL, PAULI, StateVector, _tensor_products
from .tetrahedron import (
    INDEPENDENT_PAIRS,
    BlochPoint,
    _as_amplitudes,
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
        """|psi><psi| of an InvariantTensor, a 4-qubit StateVector or 16 amplitudes, normalized."""
        psi = _as_amplitudes(state)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "DensityMatrix":
        """Wrap a complex 16x16 array that is a density matrix by construction, unchecked."""
        rho = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(rho, "entries", arr)
        return rho

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
            raise ValueError(f"depolarizing_p must lie in [0, 1], got {self.depolarizing_p}")
        if not (math.isfinite(self.rotation_angle_sd) and self.rotation_angle_sd >= 0.0):
            raise ValueError(
                f"rotation_angle_sd must be finite and non-negative, got {self.rotation_angle_sd}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # -0.0 passes the checks above; as 0.0 numpy's normal() accepts it, and a
        # report reads the same as for 0
        object.__setattr__(self, "depolarizing_p", abs(self.depolarizing_p))
        object.__setattr__(self, "rotation_angle_sd", abs(self.rotation_angle_sd))


DEFAULT_NOISE = NoiseSpec()
ZERO_NOISE = NoiseSpec(depolarizing_p=0.0, rotation_angle_sd=0.0, seed=0)


def pauli_strings() -> list[str]:
    """The 256 four-qubit Pauli labels in canonical order (qubit 1 first)."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=4)]


@functools.cache
def _pauli_matrices() -> np.ndarray:
    single = np.stack([np.eye(2, dtype=complex), PAULI["x"], PAULI["y"], PAULI["z"]])
    mats = _tensor_products([single] * 4)
    mats.setflags(write=False)
    return mats


@functools.cache
def _expectation_gather() -> tuple[np.ndarray, np.ndarray]:
    """Where each term of trace(rho P_k) = sum_ij rho_ij (P_k)_ji sits in rho's floats.

    Column i of P_k has one nonzero entry w, in row j, so Re(rho_ij w) is
    +-Re(rho_ij) for w = +-1 and -+Im(rho_ij) for w = +-i. Both tables are
    (16, 256): row i holds, for every string k, the index of that float in
    rho's interleaved (re, im) view and its sign.
    """
    mats = _pauli_matrices()
    k, i = np.indices((len(mats), DIM))
    j = (mats != 0).argmax(axis=1)
    w = mats[k, j, i]
    imaginary = w.real == 0
    index = 2 * (DIM * i + j) + imaginary
    sign = np.where(imaginary, -w.imag, w.real)
    return _read_only(index.T), _read_only(sign.T)


@functools.cache
def _inversion_scatter() -> tuple[np.ndarray, np.ndarray]:
    """The 16 strings k with (P_k)_ij != 0 of every cell (i, j), ascending, and those entries.

    Both tables are (16, 256): column 16 i + j lists cell (i, j)'s strings.
    """
    flat = _pauli_matrices().reshape(-1, DIM * DIM)
    cells, strings = np.nonzero(flat.T)
    entries = flat[strings, cells]
    return _read_only(strings.reshape(-1, DIM).T), _read_only(entries.reshape(-1, DIM).T)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the rows of a C-contiguous array one after the other, as einsum does.

    numpy sums pairwise only along the fast axis of memory, so a sum over
    axis 0 adds row 0, then row 1, and so on. einsum's output starts from
    +0.0, so a sum of -0.0 terms reads +0.0 there; the final + 0.0 keeps that
    whether the reduction starts from +0.0 (numpy 2.4 does) or from row 0.
    """
    return np.add.reduce(terms, axis=0) + 0.0


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """<P> = trace(rho P) for all 256 Pauli strings, canonically indexed.

    The 16 terms of each string are summed in ascending row of rho. That is
    np.einsum("ij,kji->k", rho, P).real bit for bit; ordering them by the row
    of P instead is not, as u rho u^dagger is Hermitian only to the last bit.
    """
    index, sign = _expectation_gather()
    return _ordered_sum(rho.entries.reshape(-1).view(np.float64)[index] * sign)


def rho_from_expectations(values) -> DensityMatrix:
    """Invert tomography: rho = (1/16) sum_P <P> P (exact round trip).

    Each cell sums its 16 terms in ascending string order: bit for bit
    np.einsum("k,kij->ij", values, P) / 16.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (256,):
        raise ValueError(f"expected 256 Pauli expectations, got {vals.shape}")
    strings, entries = _inversion_scatter()
    rho = _ordered_sum(vals[strings] * entries).reshape(DIM, DIM) / DIM
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
    if not np.isfinite(angles).all():
        raise ValueError(f"rotation_angle_sd {noise.rotation_angle_sd!r} is too large: "
                         "a drawn z-rotation angle overflowed")
    u = _tensor_products([np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])[None] for a in angles])[0]
    mixed = u @ rho.entries @ u.conj().T
    p = noise.depolarizing_p
    # a convex mixture of a unitary conjugate of a valid rho and I/16 is valid
    return DensityMatrix._trusted((1 - p) * mixed + p * np.eye(DIM) / DIM)


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
    """Per-target results under one noise setting, in the frozen ``named_states`` convention."""

    noise: NoiseSpec
    targets: tuple[TargetReport, ...]

    def to_dict(self) -> dict:
        return {
            "noise": asdict(self.noise),
            "convention": {"slot_rule": named_states.DEFAULT_RULE,
                           "regular_state": named_states.DEFAULT_REGULAR},
            "targets": [t.to_dict() for t in self.targets],
        }


def simulate_experiment(
    targets: dict[str, BlochPoint | tuple[float, float]] | None = None,
    noise: NoiseSpec = DEFAULT_NOISE,
) -> ExperimentReport:
    """Prepare, corrupt, tomograph, purify and score each target state.

    For every target Bloch point (a ``BlochPoint`` or a (theta, phi) pair):
    build the ideal invariant tensor, apply the noise channel, run the exact
    tomography round trip, purify to the dominant eigenvector, score the
    fidelity against the ideal state, measure dihedral expectations and the
    total fluctuation on the noisy state, and recompute the vertex amplitude
    with the purified state at node 5 (four ideal regular tensors elsewhere).
    A density matrix carries no global phase, so the purified state is
    phase-aligned against the ideal target before the amplitude is evaluated;
    in the noiseless limit the amplitudes then match the theory values exactly.
    """
    # a pure target keeps a top-eigenvalue gap of exactly 1 - p through the noise
    if 1.0 - noise.depolarizing_p < PURIFY_GAP_ATOL:
        raise ValueError(f"depolarizing_p = {noise.depolarizing_p} leaves a purification gap "
                         f"1 - p = {1.0 - noise.depolarizing_p:.3e} below PURIFY_GAP_ATOL = "
                         f"{PURIFY_GAP_ATOL:g}, so there is no dominant eigenvector to purify")
    if targets is None:
        targets = named_states.NAMED_POINTS
    rng = np.random.default_rng(noise.seed)
    interior_ops = [dihedral_operator(pair).entries for pair in INDEPENDENT_PAIRS]
    reports = []
    for name, point in targets.items():
        ideal = bloch_state(point)
        point = ideal.point
        rho_ideal = DensityMatrix.from_state(ideal)
        rho_noisy = apply_noise(rho_ideal, noise, rng)
        rho_measured = rho_from_expectations(pauli_expectations(rho_noisy))
        try:
            purified = ml_purify(rho_measured)
        except DegeneracyError as exc:
            raise DegeneracyError(f"target {name}: {exc}, with depolarizing_p = "
                                  f"{noise.depolarizing_p} leaving 1 - p = "
                                  f"{1.0 - noise.depolarizing_p:.3e}") from exc
        overlap = np.vdot(ideal.embedded.amplitudes, purified.amplitudes)
        if abs(overlap) > 1e-12:
            purified = StateVector(4, purified.amplitudes * (overlap.conjugate() / abs(overlap)))

        measured = []
        delta_measured = 0.0
        for op in interior_ops:
            rho_op = rho_measured.entries @ op
            mean = np.trace(rho_op).real
            mean_sq = np.trace(rho_op @ op).real
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
    return ExperimentReport(noise=noise, targets=tuple(reports))
