"""The ten named target states and the reference amplitude cross-check.

The registry A0..E1 fixes ten Bloch points used throughout the command-line
surface. For each of them, REFERENCE_AMPLITUDES stores the expected vertex
amplitude (in units of 1e-5, known only up to one global complex scale) when
the other four nodes carry the regular state C1 and the network uses the
cyclic slot assignment; ``calibrate_reference_convention`` re-derives that
frozen choice by searching the small family of named slot rules and the two
regular candidates.

One caveat is handled explicitly: the reference value for C1 is internally
inconsistent with multilinearity of the contraction. Any amplitude is linear
in the fifth node's (alpha, beta) coefficients, and the nine other entries
pin that linear form down to one global scale; the C1 entry then must equal
sqrt(2) times the A0 entry in magnitude, but the stored reference is 2 times
it, exactly a factor sqrt(2) high (as if the fifth state (|0_L> + i|1_L>)
had not been normalized). The comparison below therefore reports two fits:
one over all ten entries as stated, and one over the nine mutually consistent
entries, together with the measured inconsistency factor for C1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplitude
from .tetrahedron import BlochPoint, InvariantTensor, bloch_state

PI = math.pi

NAMED_POINTS: dict[str, BlochPoint] = {
    "A0": BlochPoint(0.0, 0.0),
    "B0": BlochPoint(PI / 5, 0.0),
    "C0": BlochPoint(PI / 2, 3 * PI / 2),
    "D0": BlochPoint(PI / 2, 0.0),
    "E0": BlochPoint(4 * PI / 5, 0.0),
    "A1": BlochPoint(PI, PI),
    "B1": BlochPoint(4 * PI / 5, PI),
    "C1": BlochPoint(PI / 2, PI / 2),
    "D1": BlochPoint(PI / 2, PI),
    "E1": BlochPoint(PI / 5, PI),
}

STATE_NAMES = tuple(NAMED_POINTS)

# Reference vertex amplitudes in units of 1e-5, up to one global complex scale.
REFERENCE_AMPLITUDES: dict[str, complex] = {
    "A0": -13.5635 - 23.4923j,
    "B0": -20.1590 - 18.1514j,
    "C0": 0.0 + 0.0j,
    "D0": -26.2024 - 7.0210j,
    "E0": -26.5339 + 5.6400j,
    "A1": 23.4924 - 13.5634j,
    "B1": 18.1513 - 20.1591j,
    "C1": -27.1270 - 46.9848j,
    "D1": 7.0208 - 26.2024j,
    "E1": -5.6401 - 26.5339j,
}

# Reference total fluctuation listed for every named state. The closed form
# gives 4/3 instead of 2/3 at C0 and C1; both numbers are always reported.
REFERENCE_FLUCTUATION: dict[str, float] = {name: 2.0 / 3.0 for name in STATE_NAMES}

INCONSISTENT_ENTRY = "C1"

REGULAR_CANDIDATES = ("C0", "C1")
RULE_CANDIDATES = ("increasing", "decreasing", "cyclic", "anticyclic")
CALIBRATION_TOLERANCE = 1e-3

# Frozen winner of calibrate_reference_convention().
DEFAULT_RULE = "cyclic"
DEFAULT_REGULAR = "C1"


def regular_state(name: str = DEFAULT_REGULAR):
    if name not in REGULAR_CANDIDATES:
        raise ValueError(f"regular state must be one of {REGULAR_CANDIDATES}, got {name!r}")
    return bloch_state(NAMED_POINTS[name])


def fifth_node_amplitudes(states) -> list[complex]:
    """Vertex amplitudes with each state at node 5, DEFAULT_REGULAR elsewhere, on DEFAULT_RULE."""
    return amplitude.fifth_node_amplitudes(
        [regular_state()] * 4, states, amplitude.partner_rule_graph(DEFAULT_RULE))


def _named_tensors() -> dict[str, InvariantTensor]:
    return {name: bloch_state(point) for name, point in NAMED_POINTS.items()}


def _fit_scale(computed: np.ndarray, reference: np.ndarray) -> complex:
    # least-squares single complex scale: argmin_s sum |s*computed - reference|^2
    denom = np.vdot(computed, computed)
    if denom == 0:
        raise ValueError("cannot fit a scale against all-zero amplitudes")
    return complex(np.vdot(computed, reference) / denom)


@dataclass(frozen=True)
class ReferenceComparison:
    """Computed amplitudes for the ten named states against the references."""

    rule: str
    regular: str
    computed: dict[str, complex]
    scale_all: complex
    scale_consistent: complex
    errors_all: dict[str, float]
    errors_consistent: dict[str, float]
    inconsistency_factor: float

    def max_consistent_error(self) -> float:
        return max(
            err for name, err in self.errors_consistent.items() if name != INCONSISTENT_ENTRY
        )


def _relative_errors(computed: np.ndarray, reference: np.ndarray, scale: complex) -> np.ndarray:
    errors = np.empty(len(reference))
    for i, (c, r) in enumerate(zip(computed, reference)):
        fitted = scale * c
        if r == 0:
            # zero entries are scored against the fitted scale itself
            errors[i] = abs(fitted) / abs(scale)
        else:
            errors[i] = abs(fitted - r) / abs(r)
    return errors


def reference_comparison(
    rule: str = DEFAULT_RULE, regular: str = DEFAULT_REGULAR, *, _named=None
) -> ReferenceComparison:
    """Compute the ten named amplitudes and fit them against the references.

    Two global complex scales are fitted by least squares: ``scale_all`` over
    all ten entries, and ``scale_consistent`` excluding the C1 entry whose
    reference violates multilinearity (see the module docstring). ``_named``
    lets a caller comparing several candidates build the ten named
    ``bloch_state``s once.
    """
    graph = amplitude.partner_rule_graph(rule)
    reg = regular_state(regular)
    named = _named_tensors() if _named is None else _named
    values = amplitude.fifth_node_amplitudes([reg] * 4, list(named.values()), graph)
    computed = dict(zip(named, values))

    names = list(STATE_NAMES)
    comp = np.array([computed[n] for n in names])
    ref = np.array([REFERENCE_AMPLITUDES[n] for n in names])
    keep = [i for i, n in enumerate(names) if n != INCONSISTENT_ENTRY]

    scale_all = _fit_scale(comp, ref)
    scale_consistent = _fit_scale(comp[keep], ref[keep])
    errors_all = dict(zip(names, _relative_errors(comp, ref, scale_all)))
    errors_consistent = dict(zip(names, _relative_errors(comp, ref, scale_consistent)))

    fitted_c1 = scale_consistent * computed[INCONSISTENT_ENTRY]
    factor = abs(REFERENCE_AMPLITUDES[INCONSISTENT_ENTRY]) / abs(fitted_c1)
    return ReferenceComparison(
        rule=rule,
        regular=regular,
        computed=computed,
        scale_all=scale_all,
        scale_consistent=scale_consistent,
        errors_all=errors_all,
        errors_consistent=errors_consistent,
        inconsistency_factor=factor,
    )


@dataclass(frozen=True)
class CalibrationResult:
    rule: str
    regular: str
    comparison: ReferenceComparison


def calibrate_reference_convention() -> CalibrationResult:
    """Search slot rules x regular candidates for the reference match.

    Candidates are scored on the nine mutually consistent entries (including
    the exact zero required at C0); the first pair in the fixed candidate
    order whose worst relative error is below ``CALIBRATION_TOLERANCE`` wins.
    """
    named = _named_tensors()
    for rule in RULE_CANDIDATES:
        for regular in REGULAR_CANDIDATES:
            comparison = reference_comparison(rule, regular, _named=named)
            if (
                comparison.max_consistent_error() < CALIBRATION_TOLERANCE
                and comparison.errors_consistent["C0"] < 1e-6
            ):
                return CalibrationResult(rule=rule, regular=regular, comparison=comparison)
    raise RuntimeError("no candidate convention reproduces the reference amplitudes")
