"""Density-matrix validation, Pauli tomography, purification, fidelity."""

import numpy as np
import pytest

from qtetra.named_states import NAMED_POINTS
from qtetra.spin_algebra import PAULI
from qtetra.tetrahedron import bloch_state, fluctuation
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

    def test_report_serializes(self):
        import json

        report = simulate_experiment(
            targets={"B0": NAMED_POINTS["B0"]}, noise=NoiseSpec(seed=3)
        )
        payload = json.dumps(report.to_dict())
        assert "fidelity" in payload
