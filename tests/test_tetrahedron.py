"""Bloch states, dihedral operators and expectations, fluctuations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtetra.named_states import NAMED_POINTS, REGULAR_CANDIDATES
from qtetra.spin_algebra import StateVector, closure_defect
from qtetra.tetrahedron import (
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

SQ3 = math.sqrt(3)

# the two Bloch points whose three independent interior cosines all equal 1/3
REGULAR_POINTS = (BlochPoint(math.pi / 2, math.pi / 2), BlochPoint(math.pi / 2, 3 * math.pi / 2))

# the six 2x2 logical blocks in the (|1_L>, |0_L>) ordering
EXPECTED_INTERIOR = {
    (1, 2): np.array([[-1 / 3, 0.0], [0.0, 1.0]]),
    (3, 4): np.array([[-1 / 3, 0.0], [0.0, 1.0]]),
    (1, 3): np.array([[2 / 3, SQ3 / 3], [SQ3 / 3, 0.0]]),
    (2, 4): np.array([[2 / 3, SQ3 / 3], [SQ3 / 3, 0.0]]),
    (1, 4): np.array([[2 / 3, -SQ3 / 3], [-SQ3 / 3, 0.0]]),
    (2, 3): np.array([[2 / 3, -SQ3 / 3], [-SQ3 / 3, 0.0]]),
}

EXPECTED_INTERIOR_SQ = {
    (1, 2): np.array([[1 / 9, 0.0], [0.0, 1.0]]),
    (1, 3): np.array([[7 / 9, 2 * SQ3 / 9], [2 * SQ3 / 9, 1 / 3]]),
    (1, 4): np.array([[7 / 9, -2 * SQ3 / 9], [-2 * SQ3 / 9, 1 / 3]]),
}



def logical_block(entries) -> np.ndarray:
    """The 2x2 block of a 16-dim operator in the (|1_L>, |0_L>) basis."""
    zero_l, one_l = logical_basis()
    basis = np.column_stack([one_l.amplitudes, zero_l.amplitudes])
    return basis.conj().T @ entries @ basis


bloch_points = st.tuples(
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(0.0, 2 * math.pi, exclude_max=True, allow_nan=False),
)


class TestLogicalBasis:
    def test_orthonormal(self):
        zero_l, one_l = logical_basis()
        assert np.linalg.norm(zero_l.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(one_l.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(zero_l.amplitudes, one_l.amplitudes)) < 1e-12

    def test_explicit_expansion_of_zero_l(self):
        zero_l, _ = logical_basis()
        # (|01> - |10>)(|01> - |10>)/2 expanded over the 16 basis states
        expected = np.zeros(16)
        expected[0b0101] = 0.5
        expected[0b0110] = -0.5
        expected[0b1001] = -0.5
        expected[0b1010] = 0.5
        assert np.abs(zero_l.amplitudes - expected).max() < 1e-12

    def test_explicit_expansion_of_one_l(self):
        _, one_l = logical_basis()
        expected = np.zeros(16)
        expected[0b1100] = 1.0
        expected[0b0011] = 1.0
        for i in (0b0101, 0b0110, 0b1001, 0b1010):
            expected[i] = -0.5
        expected /= SQ3
        assert np.abs(one_l.amplitudes - expected).max() < 1e-12

    def test_both_closed(self):
        for state in logical_basis():
            assert closure_defect(state) < 1e-12


class TestBlochState:
    def test_poles(self):
        zero_l, one_l = logical_basis()
        north = bloch_state(BlochPoint(0.0, 0.0))
        assert np.abs(north.embedded.amplitudes - zero_l.amplitudes).max() < 1e-12
        south = bloch_state(BlochPoint(math.pi, 0.0))
        assert np.abs(south.embedded.amplitudes - one_l.amplitudes).max() < 1e-12

    def test_equator_phase_convention(self):
        zero_l, one_l = logical_basis()
        state = bloch_state(BlochPoint(math.pi / 2, math.pi / 2))
        expected = (zero_l.amplitudes + 1j * one_l.amplitudes) / math.sqrt(2)
        assert np.abs(state.embedded.amplitudes - expected).max() < 1e-12

    def test_ranges_validated(self):
        with pytest.raises(ValueError):
            BlochPoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochPoint(0.1, 2 * math.pi)

    @given(bloch_points)
    @settings(max_examples=50, deadline=None)
    def test_always_invariant_and_normalized(self, point):
        state = bloch_state(point)
        assert np.linalg.norm(state.embedded.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert closure_defect(state.embedded) < 1e-10


class TestInvariantTensorFromPoint:
    def test_embedding_cannot_be_passed_in(self):
        embedded = bloch_state(BlochPoint(0.3, 1.0)).embedded
        with pytest.raises(TypeError):
            InvariantTensor(BlochPoint(0.3, 1.0), embedded)

    def test_embedding_is_exact_and_read_only(self):
        zero_l, one_l = logical_basis()
        point = BlochPoint(0.3, 1.0)
        alpha = math.cos(point.theta / 2)
        beta = np.exp(1j * point.phi) * math.sin(point.theta / 2)
        tensor = InvariantTensor(point)
        assert tensor.point is point
        assert np.array_equal(
            tensor.embedded.amplitudes, alpha * zero_l.amplitudes + beta * one_l.amplitudes
        )
        with pytest.raises(ValueError):
            tensor.embedded.amplitudes[0] = 0.0
        with pytest.raises(AttributeError):
            tensor.embedded = StateVector(4, np.zeros(16))

    def test_angle_pair_becomes_a_bloch_point(self):
        tensor = InvariantTensor((0.3, 1.0))
        assert isinstance(tensor.point, BlochPoint)
        assert (tensor.point.theta, tensor.point.phi) == (0.3, 1.0)
        assert np.array_equal(tensor.embedded.amplitudes, bloch_state((0.3, 1.0)).embedded.amplitudes)
        with pytest.raises(ValueError):
            InvariantTensor((4.0, 1.0))


class TestArea:
    def test_eigenvalue(self):
        assert area_eigenvalue() == pytest.approx(math.sqrt(0.75), abs=1e-15)

    def test_casimir_on_logical_state(self):
        # 4 J^(1).J^(1) is 3 times the identity, so Ar^2 = 3/4 on anything
        from qtetra.spin_algebra import angular_momentum

        zero_l, _ = logical_basis()
        op = sum(
            angular_momentum(a, 1, 4).entries @ angular_momentum(a, 1, 4).entries
            for a in "xyz"
        )
        out = 4 * (op @ zero_l.amplitudes)
        assert np.abs(out - 3 * zero_l.amplitudes).max() < 1e-12

    def test_area_variance_vanishes(self):
        # the area operator is proportional to the identity, variance is zero
        psi = bloch_state(BlochPoint(math.pi / 3, 1.0)).embedded.amplitudes
        area = area_eigenvalue()
        mean = area * np.vdot(psi, psi).real
        mean_sq = area**2 * np.vdot(psi, psi).real
        assert abs(mean_sq - mean**2) < 1e-12


class TestDihedralOperator:
    @pytest.mark.parametrize("pair", list(EXPECTED_INTERIOR))
    def test_compression_interior(self, pair):
        block = logical_block(dihedral_operator(pair).entries)
        assert np.abs(block - EXPECTED_INTERIOR[pair]).max() < 1e-12

    @pytest.mark.parametrize("pair", list(EXPECTED_INTERIOR_SQ))
    def test_compression_of_squares(self, pair):
        op = dihedral_operator(pair).entries
        block = logical_block(op @ op)
        assert np.abs(block - EXPECTED_INTERIOR_SQ[pair]).max() < 1e-12

    def test_same_face_rejected(self):
        with pytest.raises(ValueError):
            dihedral_operator((1, 1))

    def test_hermitian_flag(self):
        entries = dihedral_operator((1, 3)).entries
        assert np.array_equal(entries, entries.conj().T)


class TestDihedralExpectation:
    def test_north_pole(self):
        assert dihedral_expectation((0.0, 0.0), (1, 2)) == pytest.approx(1.0)
        assert dihedral_expectation((0.0, 0.0), (1, 3)) == pytest.approx(0.0)
        assert dihedral_expectation((0.0, 0.0), (1, 4)) == pytest.approx(0.0)

    def test_regular_point(self):
        for pair in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            value = dihedral_expectation((math.pi / 2, 3 * math.pi / 2), pair)
            assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_south_pole(self):
        assert dihedral_expectation((math.pi, 0.0), (1, 2)) == pytest.approx(-1 / 3, abs=1e-12)

    @given(bloch_points)
    @settings(max_examples=60, deadline=None)
    def test_matches_operator_expectation(self, point):
        psi = bloch_state(point).embedded.amplitudes
        for pair in ((1, 2), (1, 3), (1, 4)):
            op = dihedral_operator(pair).entries
            operator_value = np.vdot(psi, op @ psi).real
            closed_form = dihedral_expectation(point, pair)
            assert abs(operator_value - closed_form) < 1e-12

    @given(bloch_points)
    @settings(max_examples=60, deadline=None)
    def test_pairing_symmetry_and_sum_rules(self, point):
        pairs = {p: dihedral_expectation(point, p) for p in
                 ((1, 2), (1, 3), (1, 4), (3, 4), (2, 4), (2, 3))}
        assert abs(pairs[(1, 2)] - pairs[(3, 4)]) < 1e-12
        assert abs(pairs[(1, 3)] - pairs[(2, 4)]) < 1e-12
        assert abs(pairs[(1, 4)] - pairs[(2, 3)]) < 1e-12
        assert abs(pairs[(1, 2)] + pairs[(1, 3)] + pairs[(1, 4)] - 1.0) < 1e-12


class TestFluctuation:
    def test_reference_values(self):
        assert fluctuation((0.0, 0.0)) == pytest.approx(2 / 3, abs=1e-15)
        assert fluctuation((math.pi / 2, 0.0)) == pytest.approx(2 / 3, abs=1e-15)
        assert fluctuation((math.pi / 2, math.pi / 2)) == pytest.approx(4 / 3, abs=1e-15)

    def test_matches_operator_variances_at_200_points(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            point = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert abs(fluctuation(point) - fluctuation_from_operators(point)) < 1e-10

    def test_minimum_is_two_thirds(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            point = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert fluctuation(point) >= 2 / 3 - 1e-12


class TestRegularPoints:
    def test_exactly_the_two_equatorial_points(self):
        points = [NAMED_POINTS[name] for name in REGULAR_CANDIDATES]
        assert len(points) == 2
        coords = {(p.theta, p.phi) for p in points}
        assert coords == {(math.pi / 2, math.pi / 2), (math.pi / 2, 3 * math.pi / 2)}

    def test_expectations_at_regular_points(self):
        for point in REGULAR_POINTS:
            for pair in ((1, 2), (1, 3), (1, 4)):
                assert dihedral_expectation(point, pair) == pytest.approx(1 / 3, abs=1e-12)

    def test_no_other_point_on_a_scan_is_regular(self):
        thetas = np.linspace(0, math.pi, 61)
        phis = np.linspace(0, 2 * math.pi, 120, endpoint=False)
        hits = []
        for theta in thetas:
            for phi in phis:
                values = independent_dihedral_expectations(BlochPoint(theta, phi))
                if max(abs(v - 1 / 3) for v in values) < 1e-9:
                    hits.append((theta, phi))
        assert sorted(hits) == [(math.pi / 2, math.pi / 2), (math.pi / 2, 3 * math.pi / 2)]

    def test_north_pole_not_regular(self):
        assert dihedral_expectation((0.0, 0.0), (1, 2)) != pytest.approx(1 / 3)
