"""Symmetries of the physics: checks that hold for any correct implementation.

Each test compares the code with itself under a transformation the physics
leaves alone, so none needs a reference implementation, and none changes
when an output is re-pinned. Public functions only; every draw is seeded.
Tolerances are relative to the scale of the values compared.
"""

import math

import numpy as np
import pytest

from qtetra.amplitude import partner_rule_graph, vertex_amplitude
from qtetra.named_states import fifth_node_amplitudes
from qtetra.tetrahedron import BlochPoint, bloch_state, dihedral_operator, logical_basis

RTOL = 1e-13
RULES = ("increasing", "decreasing", "cyclic", "anticyclic")

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# The axes p_km of the interior cosine operators on span{|0_L>, |1_L>}: three
# unit vectors in the x-z plane at 120 degrees; opposite face pairs share one.
P_12 = (0.0, 0.0, 1.0)
P_13 = (math.sqrt(3) / 2, 0.0, -0.5)
P_14 = (-math.sqrt(3) / 2, 0.0, -0.5)
DIHEDRAL_AXES = {(1, 2): P_12, (3, 4): P_12, (1, 3): P_13, (2, 4): P_13,
                 (1, 4): P_14, (2, 3): P_14}


def generic_states(rng, count):
    """Normalized complex 4-qubit vectors, outside the invariant subspace."""
    vectors = rng.standard_normal((count, 16)) + 1j * rng.standard_normal((count, 16))
    return list(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def random_su2(rng) -> np.ndarray:
    """A Haar-random 2x2 unitary divided by a square root of its determinant."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u / np.sqrt(np.linalg.det(u))


def assert_close(actual: complex, expected: complex, scale: float):
    assert abs(actual - expected) <= RTOL * scale, (actual, expected)


def amplitudes(states, rule):
    return vertex_amplitude(states, partner_rule_graph(rule)).value


class TestNodeRelabeling:
    @pytest.mark.parametrize("rule", RULES)
    def test_cyclic_node_shift(self, rule):
        """Only the rotation-symmetric slot rules are unchanged by n -> n+1 (mod 5)."""
        rng = np.random.default_rng(151)
        worst = 0.0
        for _ in range(20):
            states = generic_states(rng, 5)
            base = amplitudes(states, rule)
            for shifted in (states[1:] + states[:1], states[-1:] + states[:-1]):
                moved = amplitudes(shifted, rule)
                worst = max(worst, abs(moved - base) / max(abs(base), abs(moved)))
        if rule in ("cyclic", "anticyclic"):
            assert worst <= RTOL
        else:
            assert worst > 0.1

    def test_reversal_exchanges_cyclic_and_anticyclic(self):
        rng = np.random.default_rng(157)
        for _ in range(20):
            states = generic_states(rng, 5)
            forward = amplitudes(states, "cyclic")
            backward = amplitudes(states[::-1], "anticyclic")
            assert_close(backward, forward, max(abs(forward), abs(backward)))


class TestGaugeInvariance:
    @pytest.mark.parametrize("rule", RULES)
    def test_su2_at_node_5_with_invariant_nodes_elsewhere(self, rule):
        """U^(x4) on node 5 leaves the amplitude alone when det U = 1, for any state there."""
        rng = np.random.default_rng(163)
        for _ in range(10):
            fixed = [bloch_state(BlochPoint(math.acos(rng.uniform(-1, 1)),
                                            rng.uniform(0, 2 * math.pi))) for _ in range(4)]
            (psi,) = generic_states(rng, 1)
            u = random_su2(rng)
            rotated = np.kron(np.kron(u, u), np.kron(u, u)) @ psi
            base = amplitudes(fixed + [psi], rule)
            moved = amplitudes(fixed + [rotated], rule)
            assert_close(moved, base, max(abs(base), abs(moved)))

    def test_su2_in_the_frozen_convention(self):
        rng = np.random.default_rng(167)
        psis = generic_states(rng, 10)
        rotated = []
        for psi in psis:
            u = random_su2(rng)
            rotated.append(np.kron(np.kron(u, u), np.kron(u, u)) @ psi)
        for base, moved in zip(fifth_node_amplitudes(psis), fifth_node_amplitudes(rotated)):
            assert_close(moved, base, max(abs(base), abs(moved)))


class TestDihedralOperatorOnTheLogicalQubit:
    @pytest.mark.parametrize("pair", sorted(DIHEDRAL_AXES))
    def test_restriction_is_one_third_of_identity_plus_two_p_dot_sigma(self, pair):
        basis = np.stack([v.amplitudes for v in logical_basis()], axis=1)  # 16 x 2
        op = dihedral_operator(pair).entries
        expected = (np.eye(2) + 2 * np.einsum("a,aij->ij", DIHEDRAL_AXES[pair], SIGMA)) / 3
        assert np.abs(basis.conj().T @ op @ basis - expected).max() <= RTOL
        leakage = op @ basis - basis @ (basis.conj().T @ op @ basis)
        assert np.abs(leakage).max() <= RTOL
