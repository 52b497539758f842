"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 1 is implemented exactly as stated (a single least-squares
complex scale fitted across all ten reference amplitudes, every entry within
1e-3); it cannot pass, because the bundled C1 reference value is internally
inconsistent with multilinearity of the contraction by an exact factor
sqrt(2). The test is therefore marked as a strict expected failure, and the
companion test pins the nine mutually consistent entries (plus the exact C0
zero) at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from qtetra.amplitude import (
    basis_amplitude_table,
    amplitude_from_table,
    cyclic_k5,
    vertex_amplitude,
    vertex_amplitude_bruteforce,
)
from qtetra.geometry import areas_from_vertices, reconstruct
from qtetra.named_states import (
    NAMED_POINTS,
    REFERENCE_FLUCTUATION,
    calibrate_reference_convention,
    reference_comparison,
)
from qtetra.spin_algebra import (
    AXES,
    CouplingLabel,
    angular_momentum,
    cg_coefficient,
    closure_defect,
    invariant_projector,
)
from qtetra.tetrahedron import (
    BlochPoint,
    area_eigenvalue,
    bloch_coefficients,
    bloch_state,
    dihedral_expectation,
    dihedral_operator,
    fluctuation,
    fluctuation_from_operators,
)
from qtetra.tomography import DEFAULT_NOISE, ZERO_NOISE, simulate_experiment


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def _random_bloch(rng) -> BlochPoint:
    return BlochPoint(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the C1 reference amplitude violates multilinearity by an exact factor "
        "sqrt(2); no single complex scale can bring all ten entries within 1e-3"
    ),
)
def test_criterion_1_reference_amplitudes_as_stated():
    start = time.monotonic()
    comparison = reference_comparison()
    elapsed = time.monotonic() - start
    worst = max(comparison.errors_all.values())
    ok = worst < 1e-3 and comparison.errors_all["C0"] < 1e-6 and elapsed < 10.0
    _report(
        1,
        "reference amplitude table, all-ten fit",
        ok,
        f"worst per-entry error {worst:.3e} (C1 reference is sqrt(2) high; "
        f"nine-entry fit passes, see companion)",
    )
    assert ok


def test_criterion_1_consistent_entries():
    start = time.monotonic()
    calibration = calibrate_reference_convention()
    comparison = calibration.comparison
    elapsed = time.monotonic() - start
    consistent_errors = {
        name: err for name, err in comparison.errors_consistent.items() if name != "C1"
    }
    worst = max(consistent_errors.values())
    anomaly_is_sqrt2 = abs(comparison.inconsistency_factor - math.sqrt(2)) < 1e-4
    ok = (
        calibration.rule == "cyclic"
        and calibration.regular == "C1"
        and worst < 1e-3
        and comparison.errors_consistent["C0"] < 1e-6
        and anomaly_is_sqrt2
        and elapsed < 10.0
    )
    _report(
        1,
        "reference amplitude table, nine consistent entries",
        ok,
        f"convention {calibration.rule}/{calibration.regular}, worst error {worst:.3e}, "
        f"C1 inconsistency factor {comparison.inconsistency_factor:.6f}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_2_regular_point_zero():
    graph = cyclic_k5()
    regular = bloch_state(NAMED_POINTS["C1"])
    probe = bloch_state(NAMED_POINTS["C0"])
    value = vertex_amplitude([regular] * 4 + [probe], graph).value
    scale = vertex_amplitude([regular] * 4 + [bloch_state(NAMED_POINTS["A0"])], graph).magnitude
    ok = abs(value) < 1e-10 * max(scale, 1e-30)
    _report(2, "regular-point zero", ok, f"|A| = {abs(value):.3e} at scale {scale:.3e}")
    assert ok


def test_criterion_3_dihedral_expectations():
    worst = 0.0
    worst_sum = 0.0
    for point in NAMED_POINTS.values():
        psi = bloch_state(point).embedded.amplitudes
        total = 0.0
        for pair in ((1, 2), (1, 3), (1, 4)):
            op = dihedral_operator(pair).entries
            operator_value = np.vdot(psi, op @ psi).real
            closed = dihedral_expectation(point, pair)
            worst = max(worst, abs(operator_value - closed))
            total += closed
        worst_sum = max(worst_sum, abs(total - 1.0))
    ok = worst < 1e-12 and worst_sum < 1e-12
    _report(
        3,
        "dihedral expectations",
        ok,
        f"max operator/closed-form gap {worst:.2e}, max sum-rule defect {worst_sum:.2e}",
    )
    assert ok


def test_criterion_4_fluctuation():
    flat_states = [n for n in NAMED_POINTS if n not in ("C0", "C1")]
    ok = True
    for name in flat_states:
        point = NAMED_POINTS[name]
        ok &= abs(fluctuation(point) - 2 / 3) < 1e-12
        ok &= abs(fluctuation_from_operators(point) - 2 / 3) < 1e-10
    for name in ("C0", "C1"):
        point = NAMED_POINTS[name]
        ok &= abs(fluctuation(point) - 4 / 3) < 1e-12
        ok &= abs(REFERENCE_FLUCTUATION[name] - 2 / 3) < 1e-15

    # the table2 command must emit both numbers with a flag, suppressing neither
    import io
    from contextlib import redirect_stdout

    from qtetra.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["table2"]) == 0
    rows = {line.split(",")[0]: line for line in buffer.getvalue().strip().split("\n")[1:]}
    for name in ("C0", "C1"):
        cells = rows[name].split(",")
        ok &= abs(float(cells[3]) - 4 / 3) < 1e-12
        ok &= abs(float(cells[4]) - 2 / 3) < 1e-15
        ok &= "both emitted" in rows[name]
    _report(
        4,
        "fluctuation values",
        ok,
        "eight states at 2/3; C0/C1 closed form 4/3 vs reference 2/3, both emitted",
    )
    assert ok


def test_criterion_5_invariant_subspace():
    rank = round(np.trace(invariant_projector(4).entries).real)
    rng = np.random.default_rng(2024)
    worst = max(
        closure_defect(bloch_state(_random_bloch(rng)).embedded) for _ in range(100)
    )
    ok = rank == 2 and worst < 1e-10
    _report(5, "invariant subspace", ok, f"rank {rank}, worst closure defect {worst:.2e}")
    assert ok


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    graph = cyclic_k5()
    table = basis_amplitude_table(graph)
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(50):
        points = [_random_bloch(rng) for _ in range(5)]
        states = [bloch_state(p) for p in points]
        sequential = vertex_amplitude(states, graph).value
        brute = vertex_amplitude_bruteforce(states, graph).value
        multilinear = amplitude_from_table(table, [bloch_coefficients(x) for x in points])
        worst = max(worst, abs(sequential - brute), abs(sequential - multilinear))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 60.0
    _report(
        6,
        "oracle equivalence",
        ok,
        f"worst route disagreement {worst:.2e} over 50 tuples in {elapsed:.1f} s",
    )
    assert ok


def test_criterion_7_reconstruction_round_trip():
    rng = np.random.default_rng(271)

    def random_tetra():
        from qtetra.geometry import TetrahedronVertices

        while True:
            tetra = TetrahedronVertices(
                a=rng.uniform(0.5, 2.0),
                b=rng.uniform(-0.5, 1.5),
                c=rng.uniform(0.4, 2.0),
                d=rng.uniform(-0.8, 1.8),
                e=rng.uniform(-0.8, 1.8),
                f=rng.uniform(0.4, 2.0),
            )
            if tetra.volume() > 0.05:
                return tetra

    worst = 0.0
    for _ in range(100):
        original = random_tetra()
        areas = areas_from_vertices(original)
        mags = np.linalg.norm(areas, axis=1)
        normals = areas / mags[:, None]
        recovered = reconstruct(mags, -(normals[0] @ normals[1]), -(normals[0] @ normals[2]))
        worst = max(worst, np.abs(recovered.edge_lengths() - original.edge_lengths()).max())

    regular = reconstruct([1.0, 1.0, 1.0, 1.0], 1 / 3, 1 / 3)
    edges = regular.edge_lengths()
    equilateral = (edges.max() - edges.min()) < 1e-8
    ok = worst < 1e-8 and equilateral
    _report(
        7,
        "reconstruction round trip",
        ok,
        f"worst edge-length mismatch {worst:.2e} over 100 tetrahedra; regular recovered",
    )
    assert ok


def test_criterion_8_operator_algebra_suite():
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    worst_comm = 0.0
    for n in range(1, 5):
        for k in range(1, n + 1):
            ops = {a: angular_momentum(a, k, n).entries for a in AXES}
            for (a, b), c in eps.items():
                gap = np.abs(ops[a] @ ops[b] - ops[b] @ ops[a] - 1j * ops[c]).max()
                worst_comm = max(worst_comm, gap)

    label_grid = []
    for j1, j2 in ((0.5, 0.5), (1.0, 0.5)):
        m_values = lambda j: [j - i for i in range(int(2 * j) + 1)]
        pairs = [(m1, m2) for m1 in m_values(j1) for m2 in m_values(j2)]
        labels = []
        jtot = j1 + j2
        while jtot >= abs(j1 - j2) - 1e-9:
            labels.extend(CouplingLabel(j1, j2, jtot, m) for m in m_values(jtot))
            jtot -= 1.0
        matrix = np.array([[cg_coefficient(lab, m1, m2) for lab in labels] for m1, m2 in pairs])
        label_grid.append(np.abs(matrix.T @ matrix - np.eye(len(pairs))).max())
    worst_cg = max(label_grid)

    # the area operator is area_eigenvalue() times the identity on 4 qubits,
    # so its variance vanishes on every invariant tensor
    rng = np.random.default_rng(55)
    area = area_eigenvalue()
    worst_area = 0.0
    for _ in range(20):
        psi = bloch_state(_random_bloch(rng)).embedded.amplitudes
        mean = area * np.vdot(psi, psi).real
        mean_sq = area**2 * np.vdot(psi, psi).real
        worst_area = max(worst_area, abs(mean_sq - mean**2))

    graph = cyclic_k5()
    states = [bloch_state(_random_bloch(rng)) for _ in range(5)]
    base = vertex_amplitude(states, graph).value
    worst_swap = max(
        abs(vertex_amplitude(states, graph.with_link_swapped(i)).value + base)
        for i in range(10)
    )

    ok = worst_comm < 1e-12 and worst_cg < 1e-12 and worst_area < 1e-12 and worst_swap < 1e-14
    _report(
        8,
        "operator algebra suite",
        ok,
        f"commutators {worst_comm:.1e}, CG orthogonality {worst_cg:.1e}, "
        f"area variance {worst_area:.1e}, link-swap flip {worst_swap:.1e}",
    )
    assert ok


def test_criterion_9_experiment_rehearsal():
    noiseless = simulate_experiment(noise=ZERO_NOISE)
    exact = all(
        abs(t.fidelity - 1.0) < 1e-12
        and abs(t.delta_measured - t.delta_theory) < 1e-10
        and abs(t.amplitude_purified - t.amplitude_theory) < 1e-10
        for t in noiseless.targets
    )

    noisy = simulate_experiment(noise=DEFAULT_NOISE)
    min_fidelity = min(t.fidelity for t in noisy.targets)
    max_delta_dev = max(abs(t.delta_measured - t.delta_theory) for t in noisy.targets)
    ok = exact and min_fidelity > 0.95 and max_delta_dev < 0.05
    _report(
        9,
        "experiment rehearsal",
        ok,
        f"noiseless exact; default noise: min fidelity {min_fidelity:.4f}, "
        f"max fluctuation deviation {max_delta_dev:.4f}",
    )
    assert ok
