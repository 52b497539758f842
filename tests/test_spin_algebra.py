"""Operator algebra: Pauli embeddings, closure, Clebsch-Gordan, projectors."""

import itertools
import math

import numpy as np
import pytest

from qtetra.spin_algebra import (
    AXES,
    MAX_OPERATOR_QUBITS,
    CouplingLabel,
    StateVector,
    angular_momentum,
    cg_coefficient,
    closure_defect,
    invariant_projector,
    pauli_embedded,
)
from qtetra.tetrahedron import dihedral_operator, logical_basis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def basis_state(bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    index = 0
    for b in bits:
        index = 2 * index + b
    v[index] = 1.0
    return v


class TestPauliEmbedded:
    def test_single_qubit_z(self):
        op = pauli_embedded("z", 1, 1)
        assert np.allclose(op.entries, np.diag([1.0, -1.0]))
        assert np.array_equal(op.entries, op.entries.conj().T)

    def test_x_on_second_of_two(self):
        op = pauli_embedded("x", 2, 2)
        assert np.allclose(op.entries, np.kron(np.eye(2), SX))

    def test_y_flips_msb_of_two(self):
        out = pauli_embedded("y", 1, 2).entries @ basis_state((0, 0))
        assert np.allclose(out, 1j * basis_state((1, 0)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_embedded("x", 3, 2)
        with pytest.raises(ValueError):
            pauli_embedded("x", 0, 2)

    def test_operator_size_cap(self):
        with pytest.raises(ValueError):
            pauli_embedded("z", 1, 9)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli_embedded("w", 1, 1)


class TestSharedOperators:
    """The fixed operators are built once, shared read-only, and still validated."""

    @pytest.mark.parametrize("n", range(1, MAX_OPERATOR_QUBITS + 1))
    def test_equal_to_a_fresh_kron_build(self, n):
        # tobytes() as well: array_equal ignores the sign of zero
        single = dict(zip(AXES, (SX, SY, SZ)))
        for axis in AXES:
            for k in range(1, n + 1):
                fresh = kron_chain(
                    [single[axis] if i == k else np.eye(2) for i in range(1, n + 1)]
                )
                for built, expected in ((pauli_embedded(axis, k, n), fresh),
                                        (angular_momentum(axis, k, n), fresh / 2)):
                    assert np.array_equal(built.entries, expected)
                    assert built.entries.tobytes() == expected.tobytes()

    def test_repeated_calls_share_one_object(self):
        assert pauli_embedded("y", 2, 4) is pauli_embedded("y", 2, 4)
        assert dihedral_operator((1, 3)) is dihedral_operator((1, 3))

    @pytest.mark.parametrize(
        "build", [lambda: pauli_embedded("x", 1, 4), lambda: dihedral_operator((1, 2))]
    )
    def test_entries_are_read_only(self, build):
        before = build().entries.copy()
        with pytest.raises(ValueError):
            build().entries[0, 0] = 7.0
        assert np.array_equal(build().entries, before)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pauli_embedded("x", 5, 4),
            lambda: pauli_embedded("w", 1, 4),
            lambda: angular_momentum("z", 0, 4),
            lambda: invariant_projector(9),
            lambda: pauli_embedded("x", 1.5, 4),
            lambda: dihedral_operator((2, 2)),
            lambda: dihedral_operator((1, 5)),
            lambda: angular_momentum("x", 2.5, 4),
            lambda: pauli_embedded("z", 1, 4.5),
            lambda: dihedral_operator((1.7, 2)),
            lambda: invariant_projector(2.5),
        ],
    )
    def test_bad_arguments_raise_on_every_call(self, call):
        pauli_embedded("x", 1, 4)
        dihedral_operator((1, 2))
        for _ in range(2):
            with pytest.raises(ValueError):
                call()


class TestAngularMomentum:
    def test_jz_single_qubit(self):
        assert np.allclose(angular_momentum("z", 1, 1).entries, np.diag([0.5, -0.5]))

    def test_casimir_single_qubit(self):
        total = sum(
            angular_momentum(a, 1, 1).entries @ angular_momentum(a, 1, 1).entries
            for a in AXES
        )
        assert np.allclose(total, 0.75 * np.eye(2))

    def test_commutator_same_qubit(self):
        jx = angular_momentum("x", 1, 2).entries
        jy = angular_momentum("y", 1, 2).entries
        jz = angular_momentum("z", 1, 2).entries
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_algebra(self, n):
        eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
        for k in range(1, n + 1):
            ops = {a: angular_momentum(a, k, n).entries for a in AXES}
            for (a, b), c in eps.items():
                comm = ops[a] @ ops[b] - ops[b] @ ops[a]
                assert np.abs(comm - 1j * ops[c]).max() < 1e-12

    def test_cross_qubit_commute(self):
        for a, b in itertools.product(AXES, repeat=2):
            oa = angular_momentum(a, 1, 3).entries
            ob = angular_momentum(b, 2, 3).entries
            assert np.abs(oa @ ob - ob @ oa).max() < 1e-12


class TestClosureDefect:
    def oracle(self, psi):
        """Direct application of the three total-J matrices."""
        mats = {"x": SX, "y": SY, "z": SZ}
        total = 0.0
        for axis in AXES:
            j = np.zeros((16, 16), dtype=complex)
            for k in range(4):
                ops = [np.eye(2, dtype=complex)] * 4
                ops[k] = mats[axis]
                j += kron_chain(ops) / 2
            total += np.linalg.norm(j @ psi) ** 2
        return math.sqrt(total)

    def test_invariant_state_is_closed(self):
        zero_l, one_l = logical_basis()
        assert closure_defect(zero_l) < 1e-12
        assert closure_defect(one_l) < 1e-12

    def test_all_up_state(self):
        # |0000> is the highest-weight state of total J = 2, so <J^2> = 6
        psi = basis_state((0, 0, 0, 0))
        expected = self.oracle(psi)
        assert np.isclose(expected, math.sqrt(6), atol=1e-12)
        assert np.isclose(closure_defect(psi), expected, atol=1e-12)

    def test_singlet_times_up_up(self):
        singlet = (basis_state((0, 1)) - basis_state((1, 0))) / math.sqrt(2)
        psi = np.kron(singlet, basis_state((0, 0)))
        expected = self.oracle(psi)
        assert np.isclose(expected, math.sqrt(2), atol=1e-12)
        assert np.isclose(closure_defect(psi), expected, atol=1e-12)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            closure_defect(StateVector(3, basis_state((0, 0, 0))))
        with pytest.raises(ValueError):
            closure_defect(np.ones(8) / math.sqrt(8))


def two_qubit_cg_oracle():
    """Simultaneous diagonalization of total J^2 and J_z on two qubits.

    Returns the coefficient matrix <m1 m2|J M> with Condon-Shortley signs
    (coefficient of the highest m1 kept positive).
    """
    j_ops = {a: sum(kron_chain([(SX, SY, SZ)[("x", "y", "z").index(a)] if i == k else np.eye(2)
                                for i in range(2)]) / 2 for k in range(2)) for a in AXES}
    j_sq = sum(j_ops[a] @ j_ops[a] for a in AXES)
    jz = j_ops["z"]
    coeffs = {}
    for (J, M) in [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (1.0, -1.0)]:
        # eigenvector of J^2 with eigenvalue J(J+1) and of J_z with eigenvalue M
        penalty = (j_sq - J * (J + 1) * np.eye(4)) @ (j_sq - J * (J + 1) * np.eye(4))
        penalty += (jz - M * np.eye(4)) @ (jz - M * np.eye(4))
        evals, evecs = np.linalg.eigh(penalty)
        assert evals[0] < 1e-12
        vec = evecs[:, 0]
        # Condon-Shortley: the component with the largest m1 is positive
        lead = next(i for i in range(4) if abs(vec[i]) > 1e-9)
        vec = vec * np.sign(vec[lead].real)
        coeffs[(J, M)] = vec.real
    return coeffs


class TestClebschGordan:
    def test_singlet_coefficients_match_diagonalization(self):
        oracle = two_qubit_cg_oracle()[(0.0, 0.0)]
        label = CouplingLabel(0.5, 0.5, 0.0, 0.0)
        # basis index 0b01 = (m1=+1/2, m2=-1/2), 0b10 = (m1=-1/2, m2=+1/2)
        assert np.isclose(cg_coefficient(label, 0.5, -0.5), oracle[0b01], atol=1e-12)
        assert np.isclose(cg_coefficient(label, -0.5, 0.5), oracle[0b10], atol=1e-12)
        assert np.isclose(cg_coefficient(label, 0.5, -0.5), 1 / math.sqrt(2), atol=1e-12)
        assert np.isclose(cg_coefficient(label, -0.5, 0.5), -1 / math.sqrt(2), atol=1e-12)

    def test_stretched_state(self):
        label = CouplingLabel(0.5, 0.5, 1.0, 1.0)
        assert cg_coefficient(label, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_triplet_zero_matches_diagonalization(self):
        oracle = two_qubit_cg_oracle()[(1.0, 0.0)]
        label = CouplingLabel(0.5, 0.5, 1.0, 0.0)
        assert np.isclose(cg_coefficient(label, 0.5, -0.5), oracle[0b01], atol=1e-12)
        assert np.isclose(cg_coefficient(label, -0.5, 0.5), oracle[0b10], atol=1e-12)

    def test_mixed_spin_coupling(self):
        # frozen from diagonalizing total J^2, J_z on spin-1 (x) spin-1/2
        label = CouplingLabel(1.0, 0.5, 0.5, 0.5)
        assert cg_coefficient(label, 1.0, -0.5) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert cg_coefficient(label, 0.0, 0.5) == pytest.approx(-math.sqrt(1 / 3), abs=1e-12)

    def test_triangle_violation(self):
        with pytest.raises(ValueError):
            CouplingLabel(0.5, 0.5, 2.0, 0.0)

    def test_m_mismatch_returns_zero(self):
        label = CouplingLabel(0.5, 0.5, 1.0, 1.0)
        assert cg_coefficient(label, 0.5, -0.5) == 0.0

    def test_invalid_projection(self):
        label = CouplingLabel(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            cg_coefficient(label, 1.5, -0.5)

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (1.5, 1.0)])
    def test_unitarity(self, j1, j2):
        m_values = lambda j: [j - k for k in range(int(2 * j) + 1)]
        pairs = [(m1, m2) for m1 in m_values(j1) for m2 in m_values(j2)]
        labels = []
        jtot = j1 + j2
        while jtot >= abs(j1 - j2) - 1e-9:
            labels.extend(CouplingLabel(j1, j2, jtot, m) for m in m_values(jtot))
            jtot -= 1.0
        matrix = np.array(
            [[cg_coefficient(lab, m1, m2) for lab in labels] for (m1, m2) in pairs]
        )
        assert matrix.shape[0] == matrix.shape[1]
        assert np.abs(matrix.T @ matrix - np.eye(len(pairs))).max() < 1e-12


class TestInvariantProjector:
    @pytest.mark.parametrize("n,rank", [(2, 1), (3, 0), (4, 2)])
    def test_rank(self, n, rank):
        proj = invariant_projector(n)
        assert round(np.trace(proj.entries).real) == rank

    def test_idempotent_and_hermitian(self):
        p = invariant_projector(4).entries
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12

    def test_commutes_with_total_j(self):
        p = invariant_projector(4).entries
        for axis in AXES:
            j = sum(angular_momentum(axis, k, 4).entries for k in range(1, 5))
            assert np.abs(p @ j - j @ p).max() < 1e-12

    def test_projected_vectors_are_closed(self):
        p = invariant_projector(4).entries
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            w = p @ v
            assert np.linalg.norm(w) > 1e-3
            assert closure_defect(w / np.linalg.norm(w)) < 1e-10

    def test_two_qubit_projector_is_singlet(self):
        p = invariant_projector(2).entries
        singlet = (basis_state((0, 1)) - basis_state((1, 0))) / math.sqrt(2)
        assert np.abs(p - np.outer(singlet, singlet.conj())).max() < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            invariant_projector(0)
        with pytest.raises(ValueError):
            invariant_projector(9)


class TestTypes:
    def test_state_vector_length_check(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3))

    def test_dense_operator_hermitian_check(self):
        from qtetra.spin_algebra import DenseOperator

        with pytest.raises(ValueError):
            DenseOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_coupling_label_m_range(self):
        with pytest.raises(ValueError):
            CouplingLabel(0.5, 0.5, 1.0, 2.0)
