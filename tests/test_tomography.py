"""Density-matrix validation, Pauli tomography, purification, fidelity."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtetra import tomography
from qtetra.named_states import NAMED_POINTS
from qtetra.spin_algebra import PAULI, StateVector
from qtetra.tetrahedron import BlochPoint, bloch_state, dihedral_operator, fluctuation
from qtetra.tomography import (
    DEFAULT_NOISE,
    ZERO_NOISE,
    DegeneracyError,
    DensityMatrix,
    NoiseSpec,
    _pauli_matrices,
    apply_noise,
    fidelity,
    ml_purify,
    pauli_expectations,
    pauli_strings,
    rho_from_expectations,
    simulate_experiment,
)


def ket(index: int) -> np.ndarray:
    v = np.zeros(16, dtype=complex)
    v[index] = 1.0
    return v


def random_density(rng) -> DensityMatrix:
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_unitary(rng) -> np.ndarray:
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDensityMatrix:
    def test_valid_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(16) / 16)
        assert not rho.entries.flags.writeable
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected a 16x16 matrix, got \(8, 8\)"):
            DensityMatrix(np.eye(8) / 8)

    def test_not_hermitian(self):
        rho = np.eye(16, dtype=complex) / 16
        rho[0, 1] = 0.01j
        with pytest.raises(ValueError, match="must be Hermitian"):
            DensityMatrix(rho)

    def test_trace_not_one(self):
        with pytest.raises(ValueError, match="must have unit trace, got 2.0"):
            DensityMatrix(np.eye(16) / 8)

    def test_negative_eigenvalue(self):
        rho = np.diag([0.5, 0.6, -0.1] + [0.0] * 13)
        with pytest.raises(ValueError, match="must be positive semidefinite"):
            DensityMatrix(rho)

    def test_hermitian_defect_in_message(self):
        rho = np.eye(16, dtype=complex) / 16
        rho[0, 1] = 0.01j
        with pytest.raises(ValueError, match=r"max \|rho - rho\^dagger\| = 1\.000e-02 >= 1e-12"):
            DensityMatrix(rho)

    def test_smallest_eigenvalue_in_message(self):
        rho = np.diag([0.5, 0.6, -0.1] + [0.0] * 13)
        with pytest.raises(ValueError, match=r"smallest eigenvalue -1\.000e-01 < -1e-10"):
            DensityMatrix(rho)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="entries must be finite"):
            DensityMatrix(np.full((16, 16), value))
        rho = np.eye(16, dtype=complex) / 16
        rho[3, 3] = value
        with pytest.raises(ValueError, match="entries must be finite"):
            DensityMatrix(rho)


class TestFromState:
    def test_invariant_tensor_equals_its_embedding(self):
        for point in list(NAMED_POINTS.values()) + [(0.3, 1.0)]:
            state = bloch_state(point)
            assert (DensityMatrix.from_state(state).entries.tobytes()
                    == DensityMatrix.from_state(state.embedded).entries.tobytes())

    def test_wrong_size_state_names_16_amplitudes(self):
        with pytest.raises(ValueError, match="expected 16 amplitudes, got 8"):
            DensityMatrix.from_state(np.full(8, 0.5))
        with pytest.raises(ValueError, match="expected a 4-qubit state, got 3"):
            DensityMatrix.from_state(StateVector(3, np.full(8, 0.5)))


class TestNoiseSpec:
    @pytest.mark.parametrize("sd", [-0.1, np.nan, np.inf])
    def test_bad_rotation_sd_named_with_its_value(self, sd):
        with pytest.raises(ValueError, match=f"rotation_angle_sd .* got {sd}"):
            NoiseSpec(rotation_angle_sd=sd)

    @pytest.mark.parametrize("p", [2.0, -0.5, np.nan])
    def test_bad_depolarizing_p_named_with_its_value(self, p):
        with pytest.raises(ValueError, match=rf"depolarizing_p must lie in \[0, 1\], got {p}$"):
            NoiseSpec(depolarizing_p=p)


class TestPauliTomography:
    def test_maximally_mixed(self):
        values = pauli_expectations(DensityMatrix(np.eye(16) / 16))
        labels = pauli_strings()
        assert values[labels.index("IIII")] == pytest.approx(1.0)
        others = np.delete(values, labels.index("IIII"))
        assert np.abs(others).max() < 1e-12

    def test_all_up_state(self):
        values = pauli_expectations(DensityMatrix.from_state(ket(0)))
        labels = pauli_strings()
        assert values[labels.index("ZIII")] == pytest.approx(1.0)
        assert values[labels.index("XIII")] == pytest.approx(0.0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            rho = random_density(rng)
            rebuilt = rho_from_expectations(pauli_expectations(rho))
            assert np.abs(rebuilt.entries - rho.entries).max() < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rho_from_expectations(np.zeros(255))


# The forms the gather and the scatter replaced: unoptimized einsum over the
# whole (256, 16, 16) stack. Every Pauli entry is 0, +-1 or +-i, so every
# product is exact and only the order of the sums can move a bit.
def einsum_expectations(entries):
    return np.einsum("ij,kji->k", entries, _pauli_matrices()).real


def einsum_inversion(values):
    return np.einsum("k,kij->ij", values, _pauli_matrices()) / 16


def j_ordered_expectations(rho):
    """Named mutant: each string's 16 terms summed in ascending row j of P, not row i of rho.

    The same terms as ``pauli_expectations``; for a Hermitian rho the sum is
    the same real number, but u rho u^dagger is Hermitian only to the last bit.
    """
    mats = _pauli_matrices()
    k, j = np.indices((256, 16))
    i = (mats != 0).argmax(axis=2)
    terms = (rho.entries[i, j] * mats[k, j, i]).real
    return np.cumsum(terms.T, axis=0)[-1] + 0.0


@functools.cache
def oracle_matrices() -> dict[str, np.ndarray]:
    """Non-Hermitian complex, sparse with exact (signed) zeros, real-only, and noisy targets."""
    rng = np.random.default_rng(131)
    mats = {}
    for n in range(150):
        mats[f"complex {n}"] = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sparse = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sparse.real[rng.random((16, 16)) < 0.5] = 0.0
        sparse.imag[rng.random((16, 16)) < 0.5] = -0.0
        sparse[rng.random((16, 16)) < 0.3] = 0.0
        mats[f"sparse {n}"] = sparse
        mats[f"real {n}"] = rng.standard_normal((16, 16)) + 0j
    mats["zeros"] = np.zeros((16, 16), dtype=complex)
    mats["negative zeros"] = np.full((16, 16), complex(-0.0, -0.0))
    # the noisy states that `experiment --seed 1 --states A0,C1` and `--seed 42` tomograph
    for seed, names in ((1, ("A0", "C1")), (42, tuple(NAMED_POINTS))):
        noise_rng = np.random.default_rng(seed)
        for name in names:
            ideal = DensityMatrix.from_state(bloch_state(NAMED_POINTS[name]))
            mats[f"seed {seed} {name}"] = apply_noise(ideal, DEFAULT_NOISE, noise_rng).entries
    return mats


def oracle_vectors() -> list[np.ndarray]:
    """Seeded vectors, sparse ones with +-0.0 entries, and measured expectations."""
    rng = np.random.default_rng(137)
    vectors = []
    for _ in range(150):
        vectors.append(rng.standard_normal(256))
        sparse = rng.standard_normal(256)
        sparse[rng.random(256) < 0.4] = 0.0
        sparse[rng.random(256) < 0.3] = -0.0
        vectors.append(sparse)
        vectors.append(np.round(rng.standard_normal(256), 1))
    vectors += [np.zeros(256), np.full(256, -0.0)]
    vectors += [pauli_expectations(DensityMatrix._trusted(m))
                for label, m in oracle_matrices().items() if label.startswith("seed")]
    return vectors


def mismatched_expectations(expectations) -> list[str]:
    """The oracle matrices whose 256 expectations differ from einsum's in any bit."""
    return [label for label, m in oracle_matrices().items()
            if expectations(DensityMatrix._trusted(m)).tobytes()
            != einsum_expectations(m).tobytes()]


class TestGatherScatterBits:
    """The exact-order gather and scatter keep every bit of the einsum forms."""

    def test_expectations_equal_einsum(self):
        assert mismatched_expectations(pauli_expectations) == []

    def test_j_ordered_mutant_is_caught(self):
        caught = mismatched_expectations(j_ordered_expectations)
        assert sum(label.startswith("complex") for label in caught) == 150
        assert "seed 1 C1" in caught

    def test_inversion_equals_einsum(self, monkeypatch):
        vectors = oracle_vectors()
        # any vector inverts once the validation that most of them fail is off
        monkeypatch.setattr(tomography, "DensityMatrix", DensityMatrix._trusted)
        for values in vectors:
            rho = rho_from_expectations(values)
            assert rho.entries.tobytes() == einsum_inversion(values).tobytes()

    def test_round_trip_of_valid_states_equals_einsum(self):
        rng = np.random.default_rng(139)
        for _ in range(20):
            rho = random_density(rng)
            values = pauli_expectations(rho)
            assert values.tobytes() == einsum_expectations(rho.entries).tobytes()
            rebuilt = rho_from_expectations(values)
            assert rebuilt.entries.tobytes() == einsum_inversion(values).tobytes()

    def test_tables_are_built_on_first_use(self):
        src = str(Path(tomography.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import qtetra.tomography as t; "
                "print(t._expectation_gather.cache_info().currsize, "
                "t._inversion_scatter.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0", "0"]


class TestKronChainBytes:
    """The Pauli stack and the noise rotation keep the bytes of the kron chains they replaced."""

    SINGLE = {
        "I": np.eye(2, dtype=complex),
        "X": PAULI["x"],
        "Y": PAULI["y"],
        "Z": PAULI["z"],
    }

    def kron_pauli_matrices(self):
        mats = np.empty((256, 16, 16), dtype=complex)
        for i, label in enumerate(pauli_strings()):
            m = np.array([[1.0 + 0.0j]])
            for ch in label:
                m = np.kron(m, self.SINGLE[ch])
            mats[i] = m
        return mats

    @staticmethod
    def kron_apply_noise(rho, noise, rng):
        angles = rng.normal(0.0, noise.rotation_angle_sd, 4)
        u = np.array([[1.0 + 0.0j]])
        for angle in angles:
            u = np.kron(u, np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)]))
        mixed = u @ rho.entries @ u.conj().T
        p = noise.depolarizing_p
        return DensityMatrix((1 - p) * mixed + p * np.eye(16) / 16)

    def test_pauli_stack(self):
        assert _pauli_matrices().tobytes() == self.kron_pauli_matrices().tobytes()

    def test_noise_rotations(self):
        rng = np.random.default_rng(103)
        sds = (0.0, -0.0, 0.04, 0.3, 2.0)
        for seed in range(250):
            noise = NoiseSpec(depolarizing_p=(0.0, 0.02, 0.5)[seed % 3],
                              rotation_angle_sd=sds[seed % len(sds)], seed=seed)
            rho = random_density(rng)
            expected = self.kron_apply_noise(rho, noise, np.random.default_rng(seed))
            actual = apply_noise(rho, noise, np.random.default_rng(seed))
            assert actual.entries.tobytes() == expected.entries.tobytes(), noise


class TestMlPurify:
    def test_pure_state_recovered(self):
        psi = bloch_state(NAMED_POINTS["D0"]).embedded.amplitudes
        recovered = ml_purify(DensityMatrix.from_state(psi)).amplitudes
        overlap = abs(np.vdot(psi, recovered))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_phase_fix(self):
        psi = bloch_state(NAMED_POINTS["C1"]).embedded.amplitudes
        recovered = ml_purify(DensityMatrix.from_state(psi)).amplitudes
        pivot = np.argmax(np.abs(recovered))
        assert recovered[pivot].imag == pytest.approx(0.0, abs=1e-12)
        assert recovered[pivot].real > 0

    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_depolarized_state_recovered(self, p):
        # recoverable for any depolarizing weight below 15/16
        psi = bloch_state(NAMED_POINTS["B1"]).embedded.amplitudes
        rho = DensityMatrix((1 - p) * np.outer(psi, psi.conj()) + p * np.eye(16) / 16)
        recovered = ml_purify(rho).amplitudes
        assert abs(np.vdot(psi, recovered)) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_input_raises(self):
        with pytest.raises(DegeneracyError):
            ml_purify(DensityMatrix(np.eye(16) / 16))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(83)
        rho = random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.from_state(ket(3))
        b = DensityMatrix.from_state(ket(7))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(89)
        a, b = random_density(rng), random_density(rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_scale_invariance_means_proportional_is_one(self):
        rng = np.random.default_rng(97)
        rho = random_density(rng)
        assert fidelity(rho.entries, 2.5 * rho.entries) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(101)
        a, b = random_density(rng), random_density(rng)
        u = random_unitary(rng)
        conjugated = fidelity(u @ a.entries @ u.conj().T, u @ b.entries @ u.conj().T)
        assert conjugated == pytest.approx(fidelity(a, b), abs=1e-12)

    def test_zero_purity_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros((16, 16)), np.eye(16) / 16)


class TestSimulateExperiment:
    def test_zero_noise_is_exact(self):
        report = simulate_experiment(noise=ZERO_NOISE)
        for target in report.targets:
            assert target.fidelity == pytest.approx(1.0, abs=1e-12)
            assert target.delta_measured == pytest.approx(target.delta_theory, abs=1e-10)
            assert abs(target.amplitude_purified - target.amplitude_theory) < 1e-10

    def test_default_noise_meets_the_floor(self):
        report = simulate_experiment(noise=DEFAULT_NOISE)
        assert len(report.targets) == 10
        for target in report.targets:
            assert target.fidelity > 0.95
            assert abs(target.delta_measured - target.delta_theory) < 0.05

    def test_deterministic_given_seed(self):
        one = simulate_experiment(noise=NoiseSpec(seed=7))
        two = simulate_experiment(noise=NoiseSpec(seed=7))
        for a, b in zip(one.targets, two.targets):
            assert a.fidelity == b.fidelity
            assert a.delta_measured == b.delta_measured

    def test_subset_of_targets(self):
        targets = {"A0": NAMED_POINTS["A0"], "C1": NAMED_POINTS["C1"]}
        report = simulate_experiment(targets=targets, noise=ZERO_NOISE)
        assert [t.name for t in report.targets] == ["A0", "C1"]
        assert report.targets[1].delta_theory == pytest.approx(fluctuation(NAMED_POINTS["C1"]))

    def test_pair_target_equals_bloch_point_target(self):
        noise = NoiseSpec(seed=11)
        pair = simulate_experiment(targets={"T": (0.3, 1.0)}, noise=noise).to_dict()
        point = simulate_experiment(targets={"T": BlochPoint(0.3, 1.0)}, noise=noise).to_dict()
        assert json.dumps(pair) == json.dumps(point)

    def test_degenerate_spectrum_names_target_and_weight(self, monkeypatch):
        # whether the real spectrum at 1 - p = 1e-10 counts as degenerate turns
        # on eigh's last bits, so the degeneracy is forced here
        def degenerate(rho):
            raise DegeneracyError("dominant eigenvalue is degenerate (gap 9.9996e-11 below "
                                  "PURIFY_GAP_ATOL = 1e-10, between 0.062500 and 0.062500)")

        monkeypatch.setattr(tomography, "ml_purify", degenerate)
        noise = NoiseSpec(depolarizing_p=0.9999999999)
        with pytest.raises(DegeneracyError) as caught:
            simulate_experiment(targets={"A0": NAMED_POINTS["A0"]}, noise=noise)
        assert str(caught.value) == (
            "target A0: dominant eigenvalue is degenerate (gap 9.9996e-11 below PURIFY_GAP_ATOL = "
            "1e-10, between 0.062500 and 0.062500), with depolarizing_p = 0.9999999999 leaving "
            "1 - p = 1.000000082740371e-10")

    def test_gap_below_the_bar_prints_in_full(self):
        # 9.9996e-11 rounds to the bar itself at three significant digits
        rho = DensityMatrix(np.diag([0.5 + 9.9996e-11 / 2, 0.5 - 9.9996e-11 / 2] + [0.0] * 14))
        with pytest.raises(DegeneracyError) as caught:
            ml_purify(rho)
        evals = np.linalg.eigh(rho.entries)[0]
        gap = float(evals[-1] - evals[-2])
        assert f"{gap:.3e}" == "1.000e-10"
        assert str(caught.value) == (
            f"dominant eigenvalue is degenerate (gap {gap!r} below PURIFY_GAP_ATOL = 1e-10, "
            "between 0.500000 and 0.500000)")

    def test_report_serializes(self):
        report = simulate_experiment(
            targets={"B0": NAMED_POINTS["B0"]}, noise=NoiseSpec(seed=3)
        )
        payload = json.dumps(report.to_dict())
        assert "fidelity" in payload


# The experiment's exact answer. The noise is a diagonal unitary U, from four
# angles drawn per target in report order, then depolarizing with weight p, so
# rho_noisy = (1 - p)|U psi><U psi| + p I/16, and the tomography round trip is
# exact. Tolerances are absolute, a few times the largest rounding seen
# (8.9e-16 over the ten named targets and four noise settings).
FIDELITY_ATOL = 4e-15
DELTA_ATOL = 4e-15
DIHEDRAL_ATOL = 4e-15


def closed_form_targets(noise: NoiseSpec):
    """(fidelity, delta_measured, dihedral_measured) of each named target."""
    rng = np.random.default_rng(noise.seed)
    p = noise.depolarizing_p
    # qubit 1 is the most significant bit of a basis index
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    ops = [dihedral_operator(pair).entries for pair in ((1, 2), (1, 3), (1, 4))]
    for point in NAMED_POINTS.values():
        angles = rng.normal(0.0, noise.rotation_angle_sd, 4)
        psi = bloch_state(point).embedded.amplitudes
        u_psi = np.exp(1j * ((bits - 0.5) @ angles)) * psi
        overlap = abs(np.vdot(psi, u_psi)) ** 2
        fid = ((1 - p) * overlap + p / 16) / np.sqrt((1 - p) ** 2 + (1 - p) * p / 8 + p * p / 16)
        means = [(1 - p) * np.vdot(u_psi, op @ u_psi).real + p * np.trace(op).real / 16
                 for op in ops]
        squares = [(1 - p) * np.vdot(u_psi, op @ op @ u_psi).real
                   + p * np.trace(op @ op).real / 16 for op in ops]
        delta = sum(sq - mean**2 for sq, mean in zip(squares, means))
        yield fid, delta, means


class TestExperimentClosedForm:
    @pytest.mark.parametrize("p, sd", [(0.02, 0.04), (0.3, 0.5), (0.0, 1.0)])
    def test_named_targets(self, p, sd):
        noise = NoiseSpec(depolarizing_p=p, rotation_angle_sd=sd, seed=42)
        report = simulate_experiment(noise=noise)
        for target, (fid, delta, means) in zip(report.targets, closed_form_targets(noise)):
            assert abs(target.fidelity - fid) <= FIDELITY_ATOL, target.name
            assert abs(target.delta_measured - delta) <= DELTA_ATOL, target.name
            assert np.abs(np.subtract(target.dihedral_measured, means)).max() <= DIHEDRAL_ATOL

    def test_noise_moves_the_answer(self):
        # the oracle is not trivially met: noise changes every field by far more
        clean = list(closed_form_targets(ZERO_NOISE))
        noisy = list(closed_form_targets(NoiseSpec(depolarizing_p=0.3, rotation_angle_sd=0.5)))
        assert min(abs(a[0] - b[0]) for a, b in zip(clean, noisy)) > 100 * FIDELITY_ATOL


# Generator.normal's stream for a few seeds and spreads, as float.hex. NEP 19
# lets numpy change a distribution method between feature releases; the
# experiment goldens would then move with it.
NORMAL_STREAM = {
    (0, 0.04): ("0x1.49981f82338a5p-8", "-0x1.5a4e12b2fb580p-8",
                "0x1.a3b5176488fe8p-6", "0x1.12fd46e697e0ap-8"),
    (0, 1.0): ("0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3",
               "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4"),
    (42, 0.04): ("0x1.8f6615d7705a8p-7", "-0x1.54c8309f917acp-5",
                 "0x1.ebd0d16ead10ap-6", "0x1.3434497bbd689p-5"),
    (42, 1.0): ("0x1.3807c1104fc6bp-2", "-0x1.0a3c65fca9a7ep+0",
                "0x1.803b239e77350p-1", "0x1.e191b2d157f36p-1"),
    (2**63, 0.04): ("0x1.0af71d051a15ep-4", "-0x1.ee0021fd8f2c5p-5",
                    "-0x1.01539579560d6p-3", "0x1.20a356eb39a2ap-7"),
    (2**63, 1.0): ("0x1.a1221d57f8c23p+0", "-0x1.81f01a8e17daap+0",
                   "-0x1.9212998d9674fp+1", "0x1.c2ff37cf8a0e2p-3"),
}


@pytest.mark.parametrize("seed, sd", list(NORMAL_STREAM))
def test_noise_stream_canary(seed, sd):
    drawn = np.random.default_rng(seed).normal(0.0, sd, 4)
    pinned = np.array([float.fromhex(h) for h in NORMAL_STREAM[seed, sd]])
    assert drawn.tobytes() == pinned.tobytes(), (
        f"numpy {np.__version__} draws a different Generator.normal stream for seed {seed}, "
        f"sd {sd}: the experiment outputs move with it and need a named re-pin"
    )
