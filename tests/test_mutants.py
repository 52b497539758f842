"""Named defects, planted one at a time: each must fail the oracle built to catch it.

A mutant monkeypatches one qtetra internal; its test runs the matching case of
``test_symmetries`` directly and expects an AssertionError. The frozen node
1-4 head is cached per process, so its cache is cleared around every patch: a
mutant neither sees a head built before it nor leaves one behind.
"""

import math

import numpy as np
import pytest

import test_symmetries as oracles
from qtetra import amplitude, named_states, tetrahedron

# Exchanging these operators keeps each one Hermitian and each closure pair
# together, but moves p_13 and p_14 onto each other's face pairs.
SWAPPED_PAIRS = {(1, 3): (1, 4), (1, 4): (1, 3), (2, 4): (2, 3), (2, 3): (2, 4)}


@pytest.fixture
def mutate(monkeypatch):
    """``monkeypatch.setattr``, with the frozen head rebuilt on each side of the patch."""
    named_states._frozen_head.cache_clear()
    yield monkeypatch.setattr
    monkeypatch.undo()
    named_states._frozen_head.cache_clear()


def triplet_column() -> np.ndarray:
    """(|01> + |10>)/sqrt(2) in the layout of ``amplitude._EPS_COLUMN``."""
    column = np.zeros((4, 1), dtype=complex)
    column[[0b01, 0b10], 0] = 1 / math.sqrt(2)
    return column


@pytest.mark.parametrize("rule", oracles.RULES)
def test_triplet_links_fail_su2_invariance(mutate, rule):
    mutate(amplitude, "_EPS_COLUMN", triplet_column())
    oracle = oracles.TestGaugeInvariance()
    with pytest.raises(AssertionError):
        oracle.test_su2_at_node_5_with_invariant_nodes_elsewhere(rule)


@pytest.mark.parametrize("pair", sorted(SWAPPED_PAIRS))
def test_swapped_dihedral_operators_fail_the_restriction_identity(mutate, pair):
    # ``dihedral_operator`` looks up ``_dihedral_operator`` at call time, so the
    # swap reaches the oracle's own reference to ``dihedral_operator``.
    original = tetrahedron._dihedral_operator
    mutate(tetrahedron, "_dihedral_operator",
           lambda k, m: original(*SWAPPED_PAIRS.get((k, m), (k, m))))
    oracle = oracles.TestDihedralOperatorOnTheLogicalQubit()
    with pytest.raises(AssertionError):
        oracle.test_restriction_is_one_third_of_identity_plus_two_p_dot_sigma(pair)
