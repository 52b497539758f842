"""Spin-network graphs and the three vertex-amplitude contraction routes."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qtetra import amplitude, named_states
from qtetra.amplitude import (
    _SINGLET,
    NODES,
    SLOTS,
    SpinNetworkGraph,
    amplitude_from_table,
    amplitude_sweep,
    basis_amplitude_table,
    cyclic_k5,
    k5_graph,
    partner_rule_graph,
    vertex_amplitude,
    vertex_amplitude_bruteforce,
)
from qtetra.named_states import NAMED_POINTS, fifth_node_amplitudes, regular_state
from qtetra.spin_algebra import StateVector, closure_defect
from qtetra.tetrahedron import (
    BlochPoint,
    _as_amplitudes,
    bloch_coefficients,
    bloch_state,
    logical_basis,
)
from qtetra.tomography import DEFAULT_NOISE, DensityMatrix, apply_noise, ml_purify


def random_points(rng, count):
    return [
        BlochPoint(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        for _ in range(count)
    ]


def random_states(rng, count=5):
    return [bloch_state(p) for p in random_points(rng, count)]


class TestGraphs:
    def test_canonical_slot_order(self):
        graph = partner_rule_graph("increasing")
        # node 3's slots meet partners 1, 2, 4, 5 in that order
        partners = {}
        for (n, s), (m, t) in graph.links:
            partners[(n, s)] = m
            partners[(m, t)] = n
        assert [partners[(3, s)] for s in SLOTS] == [1, 2, 4, 5]

    def test_cyclic_slot_order(self):
        graph = cyclic_k5()
        partners = {}
        for (n, s), (m, t) in graph.links:
            partners[(n, s)] = m
            partners[(m, t)] = n
        assert [partners[(3, s)] for s in SLOTS] == [4, 5, 1, 2]

    def test_link_count_and_coverage(self):
        graph = partner_rule_graph("increasing")
        assert len(graph.links) == 10
        endpoints = [ep for link in graph.links for ep in link]
        assert sorted(endpoints) == sorted((n, s) for n in NODES for s in SLOTS)

    def test_malformed_graphs_rejected(self):
        good = list(partner_rule_graph("increasing").links)
        with pytest.raises(ValueError):
            SpinNetworkGraph(tuple(good[:9]))
        # duplicate an endpoint
        bad = list(good)
        bad[0] = (bad[0][0], bad[1][0])
        with pytest.raises(ValueError):
            SpinNetworkGraph(tuple(bad))

    def test_k5_graph_validates_partner_lists(self):
        orders = {n: sorted(set(NODES) - {n}) for n in NODES}
        orders[2] = [1, 1, 4, 5]
        with pytest.raises(ValueError):
            k5_graph(orders)

    def test_unknown_rule(self):
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ValueError, match="unknown slot rule 'sorted'"):
                partner_rule_graph("sorted")

    @pytest.mark.parametrize("rule", ["increasing", "decreasing", "cyclic", "anticyclic"])
    def test_each_rule_graph_is_built_once(self, rule):
        assert partner_rule_graph(rule) is partner_rule_graph(rule)


class TestVertexAmplitude:
    def test_regular_zero_in_cyclic_convention(self):
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        probe = bloch_state(NAMED_POINTS["C0"])
        value = vertex_amplitude([reg] * 4 + [probe], graph).value
        assert abs(value) < 1e-14

    def test_magnitude_at_north_pole_probe(self):
        # frozen from the brute-force oracle: |A| = 1/192 with cyclic/C1 fixed
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        probe = bloch_state(NAMED_POINTS["A0"])
        seq = vertex_amplitude([reg] * 4 + [probe], graph)
        brute = vertex_amplitude_bruteforce([reg] * 4 + [probe], graph)
        assert seq.magnitude == pytest.approx(1 / 192, abs=1e-12)
        assert brute.magnitude == pytest.approx(1 / 192, abs=1e-12)

    def test_link_swap_negates(self):
        graph = cyclic_k5()
        rng = np.random.default_rng(41)
        states = random_states(rng)
        base = vertex_amplitude(states, graph).value
        for index in (0, 4, 9):
            swapped = vertex_amplitude(states, graph.with_link_swapped(index)).value
            assert abs(swapped + base) < 1e-14

    def test_three_route_agreement(self):
        graph = cyclic_k5()
        table = basis_amplitude_table(graph)
        rng = np.random.default_rng(43)
        for _ in range(10):
            points = random_points(rng, 5)
            states = [bloch_state(p) for p in points]
            seq = vertex_amplitude(states, graph).value
            brute = vertex_amplitude_bruteforce(states, graph).value
            multi = amplitude_from_table(table, [bloch_coefficients(x) for x in points])
            assert abs(seq - brute) < 1e-10
            assert abs(seq - multi) < 1e-10

    def test_magnitude_bounded_by_one(self):
        graph = partner_rule_graph("increasing")
        rng = np.random.default_rng(47)
        for _ in range(20):
            result = vertex_amplitude(random_states(rng), graph)
            assert result.magnitude <= 1.0 + 1e-12

    def test_wrong_state_count(self):
        graph = partner_rule_graph("increasing")
        with pytest.raises(ValueError):
            vertex_amplitude([StateVector(2, np.full(4, 0.5))] * 5, graph)
        with pytest.raises(ValueError):
            vertex_amplitude([bloch_state((0.0, 0.0))] * 4, graph)


class TestFifthNodeAmplitude:
    def _direct(self, state):
        return vertex_amplitude([regular_state()] * 4 + [state], cyclic_k5()).value

    def test_bloch_state_bit_for_bit(self):
        state = bloch_state(BlochPoint(0.7, 2.0))
        assert fifth_node_amplitudes([state])[0] == self._direct(state)

    def test_purified_non_invariant_state_bit_for_bit(self):
        ideal = DensityMatrix.from_state(bloch_state(NAMED_POINTS["B0"]).embedded)
        rng = np.random.default_rng(3)
        purified = ml_purify(apply_noise(ideal, DEFAULT_NOISE, rng))
        assert closure_defect(purified) > 1e-6
        assert fifth_node_amplitudes([purified])[0] == self._direct(purified)


class TestCalibration:
    def test_named_states_built_once_per_process(self, monkeypatch):
        built = []

        def counting(point):
            built.append(point)
            return bloch_state(point)

        monkeypatch.setattr(named_states, "bloch_state", counting)
        named_states._named_tensors.cache_clear()
        calibration = named_states.calibrate_reference_convention()
        # the ten named states, the regular candidates among them, and no more
        assert built == list(NAMED_POINTS.values())
        named_states.calibrate_reference_convention()
        assert len(built) == 10
        assert named_states.regular_state("C1") is named_states.regular_state("C1")
        monkeypatch.undo()
        fresh = named_states.reference_comparison(calibration.rule, calibration.regular)
        assert {n: bits(v) for n, v in calibration.comparison.computed.items()} == {
            n: bits(v) for n, v in fresh.computed.items()
        }


# The sequential contraction before graphs carried a plan: one
# np.multiply.outer per placed node and one np.tensordot per link. The plan in
# ``qtetra.amplitude`` must match it bit for bit.
def _tensordot_vertex_amplitude(states, graph: SpinNetworkGraph) -> complex:
    tensors = [_as_amplitudes(x).reshape(2, 2, 2, 2) for x in states]
    current = np.array(1.0, dtype=complex)
    open_axes = []
    placed = set()
    for (n, s), (m, t) in graph.links:
        for node in (n, m):
            if node not in placed:
                current = np.multiply.outer(current, tensors[node - 1])
                open_axes.extend((node, slot) for slot in SLOTS)
                placed.add(node)
        i = open_axes.index((n, s))
        j = open_axes.index((m, t))
        current = np.tensordot(current, _SINGLET.reshape(2, 2), axes=([i, j], [0, 1]))
        open_axes = [ax for idx, ax in enumerate(open_axes) if idx not in (i, j)]
    return complex(current)


def bits(value: complex) -> tuple[str, str]:
    """Both parts as exact hex strings: every bit, signed zeros included."""
    return value.real.hex(), value.imag.hex()


def assert_plan_bits(states, graph):
    assert bits(vertex_amplitude(states, graph).value) == bits(
        _tensordot_vertex_amplitude(states, graph)
    )


def assert_batch_bits(fixed, fifth, graph):
    batch = amplitude.fifth_node_amplitudes(fixed, fifth, graph)
    assert [bits(v) for v in batch] == [
        bits(_tensordot_vertex_amplitude(list(fixed) + [state], graph)) for state in fifth
    ]


def generic_states(rng, count):
    """Normalized complex 4-qubit vectors, outside the invariant subspace."""
    vectors = rng.standard_normal((count, 16)) + 1j * rng.standard_normal((count, 16))
    return list(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def purified_noisy_states(rng):
    states = []
    for point in NAMED_POINTS.values():
        ideal = DensityMatrix.from_state(bloch_state(point).embedded)
        states.append(ml_purify(apply_noise(ideal, DEFAULT_NOISE, rng)))
    return states


# Trial 1 of ``test_shuffled_and_reoriented_link_orders``: its ninth link
# places no node and contracts the first two open axes.
F_ORDERED_LINKS = (
    ((5, 4), (1, 1)), ((2, 1), (5, 3)), ((3, 3), (2, 3)), ((1, 2), (4, 4)), ((4, 3), (2, 2)),
    ((1, 4), (2, 4)), ((5, 1), (4, 1)), ((3, 4), (1, 3)), ((5, 2), (3, 1)), ((3, 2), (4, 2)),
)


class TestPlanBitIdentical:
    @pytest.mark.parametrize("rule", ["increasing", "decreasing", "cyclic", "anticyclic"])
    def test_rule_graphs_and_link_swaps(self, rule):
        base = partner_rule_graph(rule)
        zero_l, one_l = logical_basis()
        named = [bloch_state(p) for p in NAMED_POINTS.values()]
        regular = [regular_state()] * 4
        rng = np.random.default_rng(101)
        for graph in [base] + [base.with_link_swapped(i) for i in range(10)]:
            for _ in range(3):
                assert_plan_bits(random_states(rng), graph)
            for index in np.ndindex(*(2,) * 5):
                assert_plan_bits([(zero_l, one_l)[b] for b in index], graph)
            for state in named:
                assert_plan_bits(regular + [state], graph)
            assert_batch_bits(regular, named, graph)

    @pytest.mark.parametrize("rule", ["increasing", "decreasing", "cyclic", "anticyclic"])
    def test_basis_table(self, rule):
        graph = partner_rule_graph(rule)
        basis = logical_basis()
        table = basis_amplitude_table(graph)
        for index in np.ndindex(*(2,) * 5):
            assert bits(table[index]) == bits(
                _tensordot_vertex_amplitude([basis[b] for b in index], graph))

    def test_shuffled_and_reoriented_link_orders(self):
        rng = np.random.default_rng(103)
        rules = ["increasing", "decreasing", "cyclic", "anticyclic"]
        for trial in range(30):
            links = list(partner_rule_graph(rules[trial % 4]).links)
            links = [links[i] for i in rng.permutation(10)]
            links = [(b, a) if flip else (a, b) for (a, b), flip in zip(links, rng.random(10) < 0.5)]
            graph = SpinNetworkGraph(tuple(links))
            for _ in range(2):
                assert_plan_bits(generic_states(rng, 5), graph)
            assert_batch_bits(generic_states(rng, 4), generic_states(rng, 3), graph)

    def test_first_link_touching_node_5(self):
        links = list(cyclic_k5().links)
        first = next(i for i, (a, b) in enumerate(links) if b[0] == 5)
        graph = SpinNetworkGraph(tuple([links[first]] + links[:first] + links[first + 1:]))
        assert graph.plan[0].fused == 4  # node 5 is placed by the very first step
        assert graph.split == 0
        rng = np.random.default_rng(107)
        fixed = [regular_state()] * 4
        fifth = purified_noisy_states(rng)
        for state in fifth:
            assert_plan_bits(fixed + [state], graph)
        assert_batch_bits(fixed, fifth, graph)

    def test_f_ordered_link(self):
        # Step 8, the ninth link, places no node and contracts open axes 0 and
        # 1, where np.tensordot's transposed reshape hands BLAS an F-ordered matrix.
        graph = SpinNetworkGraph(F_ORDERED_LINKS)
        assert graph.plan[8].fused is None and graph.plan[8].at01 == (0, 1)
        rng = np.random.default_rng(131)
        for _ in range(4):
            assert_plan_bits(generic_states(rng, 5), graph)
        assert_batch_bits(generic_states(rng, 4), generic_states(rng, 4), graph)

    def test_node_5_placed_by_outer_product(self):
        links = list(cyclic_k5().links)
        first = links.index(((3, 2), (5, 3)))
        reordered = [links[0], ((5, 3), (3, 2))] + links[1:first] + links[first + 1:]
        graph = SpinNetworkGraph(tuple(reordered))
        assert graph.split == 1
        assert graph.plan[1].outer == (4,) and graph.plan[1].fused == 2
        rng = np.random.default_rng(137)
        fixed = [regular_state()] * 4
        fifth = purified_noisy_states(rng)
        for state in fifth[:3]:
            assert_plan_bits(fixed + [state], graph)
        assert_batch_bits(fixed, fifth, graph)
        for _ in range(2):
            assert_plan_bits(generic_states(rng, 5), graph)
        assert_batch_bits(generic_states(rng, 4), generic_states(rng, 3), graph)

    def test_purified_noisy_states_on_every_node(self):
        rng = np.random.default_rng(109)
        purified = purified_noisy_states(rng)
        assert min(closure_defect(state) for state in purified) > 1e-6
        graph = cyclic_k5()
        for start in range(0, 10, 5):
            assert_plan_bits(purified[start:start + 5], graph)
        assert_batch_bits(purified[:4], purified, graph)

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(113)
        fixed = random_states(rng, 4)
        fifth = random_states(rng, 3) + generic_states(rng, 3)
        for rule in ("increasing", "cyclic"):
            graph = partner_rule_graph(rule)
            batch = amplitude.fifth_node_amplitudes(fixed, fifth, graph)
            single = [vertex_amplitude(fixed + [state], graph).value for state in fifth]
            assert [bits(v) for v in batch] == [bits(v) for v in single]
            assert amplitude.fifth_node_amplitudes(fixed, [], graph) == []

    def test_one_head_serves_many_batches(self):
        rng = np.random.default_rng(127)
        fixed = random_states(rng, 4)
        graph = partner_rule_graph("anticyclic")
        head = amplitude.fifth_node_head(fixed, graph)
        assert not head.partial.flags.writeable
        for _ in range(3):
            fifth = random_states(rng, 2) + generic_states(rng, 2)
            assert [bits(v) for v in amplitude.fifth_node_tail(head, fifth)] == [
                bits(v) for v in amplitude.fifth_node_amplitudes(fixed, fifth, graph)]

    def test_frozen_head_is_built_once_per_process(self):
        head = named_states._frozen_head()
        assert named_states._frozen_head() is head
        state = bloch_state(BlochPoint(2.1, 4.0))
        assert bits(named_states.fifth_node_amplitudes([state])[0]) == bits(
            vertex_amplitude([regular_state()] * 4 + [state], cyclic_k5()).value)

    def test_batch_needs_four_fixed_states(self):
        with pytest.raises(ValueError, match="need exactly 4 fixed states, got 3"):
            amplitude.fifth_node_amplitudes([regular_state()] * 3, [regular_state()], cyclic_k5())


# numpy's SIMD loops limited to SSE, with two other OpenBLAS kernels: the
# split form must keep np.dot's bits wherever the plan replaced np.dot by it.
PLAN_KERNEL_VARIANTS = {
    core: {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "OPENBLAS_CORETYPE": core}
    for core in ("Haswell", "Nehalem")
}

# Runs the pytest node id in argv[1], or prints why numpy could not be imported.
_PLAN_CHILD = """
import sys
try:
    import numpy
except Exception as exc:
    print(f"skip: {type(exc).__name__}: {exc}")
    sys.exit(0)
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


@pytest.mark.parametrize("core", sorted(PLAN_KERNEL_VARIANTS))
def test_plan_bits_hold_under_other_cpu_kernels(core):
    """``TestPlanBitIdentical`` passes in a child process that takes other x86-64 kernels.

    As with the portable output pins, the variants emulate other CPUs on the
    host's CPU only. A variant whose child cannot import numpy is skipped.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, **PLAN_KERNEL_VARIANTS[core], "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _PLAN_CHILD, f"{__file__}::TestPlanBitIdentical"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    if child.stdout.startswith("skip: "):
        pytest.skip(f"numpy does not start under {core}: {child.stdout[6:].strip()}")
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr


class TestBasisTable:
    def test_entries_are_real(self):
        table = basis_amplitude_table(cyclic_k5())
        assert np.abs(table.imag).max() < 1e-15

    def test_all_zero_entry_matches_brute_force(self):
        graph = cyclic_k5()
        zero_l, _ = logical_basis()
        table = basis_amplitude_table(graph)
        brute = vertex_amplitude_bruteforce([zero_l] * 5, graph).value
        assert abs(table[0, 0, 0, 0, 0] - brute) < 1e-12
        # ten singlet bras closing over five two-singlet nodes: 1/512 here
        assert table[0, 0, 0, 0, 0].real == pytest.approx(1 / 512, abs=1e-12)

    def test_multilinearity_probes(self):
        graph = cyclic_k5()
        table = basis_amplitude_table(graph)
        zero_l, one_l = logical_basis()
        rng = np.random.default_rng(53)
        for _ in range(20):
            pairs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            states = [p[0] * zero_l.amplitudes + p[1] * one_l.amplitudes for p in pairs]
            direct = vertex_amplitude(states, graph).value
            from_table = amplitude_from_table(table, pairs)
            assert abs(direct - from_table) < 1e-12

    def test_doubling_one_coefficient(self):
        graph = cyclic_k5()
        zero_l, one_l = logical_basis()
        rng = np.random.default_rng(59)
        fixed = random_states(rng, 4)
        alpha, beta = 0.6, 0.8j
        base = vertex_amplitude(fixed + [alpha * zero_l.amplitudes + beta * one_l.amplitudes], graph).value
        doubled = vertex_amplitude(fixed + [alpha * zero_l.amplitudes + 2 * beta * one_l.amplitudes], graph).value
        only_alpha = vertex_amplitude(fixed + [alpha * zero_l.amplitudes], graph).value
        assert abs(doubled - (2 * base - only_alpha)) < 1e-14

    def test_conjugating_all_phis_conjugates_amplitude(self):
        graph = cyclic_k5()
        table = basis_amplitude_table(graph)
        rng = np.random.default_rng(61)
        points = random_points(rng, 5)
        mirrored = [BlochPoint(p.theta, (2 * math.pi - p.phi) % (2 * math.pi)) for p in points]
        forward = vertex_amplitude([bloch_state(p) for p in points], graph).value
        backward = vertex_amplitude([bloch_state(p) for p in mirrored], graph).value
        assert abs(backward - np.conj(forward)) < 1e-12

    def test_node_relabeling_permutes_entries_up_to_sign(self):
        base_graph = partner_rule_graph("increasing")
        table = basis_amplitude_table(base_graph)
        for perm in ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}):
            links = []
            flips = 0
            for (n, s), (m, t) in base_graph.links:
                a, b = (perm[n], s), (perm[m], t)
                if a[0] > b[0]:
                    a, b = b, a
                    flips += 1
                links.append((a, b))
            relabeled = SpinNetworkGraph(tuple(links))
            table2 = basis_amplitude_table(relabeled)
            sign = (-1) ** flips
            for bits in np.ndindex(2, 2, 2, 2, 2):
                moved = tuple(bits[perm[n] - 1] for n in NODES)
                assert abs(table2[bits] - sign * table[moved]) < 1e-12


class TestSweep:
    def test_single_cell_equals_direct_call(self):
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        grid = amplitude_sweep([reg] * 4, [0.7], [1.3], graph)
        direct = vertex_amplitude([reg] * 4 + [bloch_state((0.7, 1.3))], graph).value
        assert grid.shape == (1, 1)
        assert abs(grid[0, 0] - direct) < 1e-12

    def test_regular_cell_is_zero(self):
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        thetas = [math.pi / 2]
        phis = np.linspace(0, 2 * math.pi, 4, endpoint=False)
        grid = amplitude_sweep([reg] * 4, thetas, phis, graph)
        assert abs(grid[0, 3]) < 1e-14  # phi = 3*pi/2
        assert abs(grid[0, 1]) > 1e-3   # phi = pi/2 is the antipode, not zero

    def test_grid_shape_and_agreement(self):
        graph = cyclic_k5()
        rng = np.random.default_rng(67)
        fixed = random_states(rng, 4)
        thetas = np.linspace(0, math.pi, 3)
        phis = np.linspace(0, 2 * math.pi, 5, endpoint=False)
        grid = amplitude_sweep(fixed, thetas, phis, graph)
        assert grid.shape == (3, 5)
        for i in (0, 2):
            for j in (0, 4):
                direct = vertex_amplitude(
                    fixed + [bloch_state((thetas[i], phis[j]))], graph
                ).value
                assert abs(grid[i, j] - direct) < 1e-12

    def test_empty_grid_rejected(self):
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        with pytest.raises(ValueError):
            amplitude_sweep([reg] * 4, [], [0.0], graph)

    def test_out_of_range_grid_rejected(self):
        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        for thetas, phis in (
            ([0.5], [2 * math.pi]),
            ([math.nan], [0.0]),
            ([0.0], [math.nan]),
            ([0.5, math.nan], [0.0, 1.0]),
        ):
            with pytest.raises(ValueError):
                amplitude_sweep([reg] * 4, thetas, phis, graph)

    def test_named_coordinates_inside_a_sweep_match_references(self):
        # a rectangular grid covering all ten named (theta, phi) pairs
        from qtetra.named_states import REFERENCE_AMPLITUDES

        graph = cyclic_k5()
        reg = bloch_state(NAMED_POINTS["C1"])
        thetas = sorted({p.theta for p in NAMED_POINTS.values()})
        phis = sorted({p.phi for p in NAMED_POINTS.values()})
        grid = amplitude_sweep([reg] * 4, thetas, phis, graph)
        computed = {
            name: grid[thetas.index(p.theta), phis.index(p.phi)]
            for name, p in NAMED_POINTS.items()
        }
        names = [n for n in NAMED_POINTS if n != "C1"]
        comp = np.array([computed[n] for n in names])
        ref = np.array([REFERENCE_AMPLITUDES[n] for n in names])
        scale = np.vdot(comp, ref) / np.vdot(comp, comp)
        for c, r in zip(comp, ref):
            if r == 0:
                assert abs(scale * c) < 1e-6 * abs(scale)
            else:
                assert abs(scale * c - r) / abs(r) < 1e-3


class TestSlotBookkeeping:
    def test_relabeled_slots_with_permuted_tensor_is_a_no_op(self):
        # moving node 3's links to different slots while permuting the node
        # tensor's axes the same way must leave the amplitude unchanged
        from qtetra.amplitude import NODES, k5_graph

        rng = np.random.default_rng(71)
        states = random_states(rng)
        base_orders = {n: sorted(set(NODES) - {n}) for n in NODES}
        base = vertex_amplitude(states, k5_graph(base_orders)).value
        for perm in ((1, 0, 3, 2), (2, 0, 3, 1), (1, 2, 0, 3), (0, 2, 3, 1)):
            orders = dict(base_orders)
            orders[3] = [base_orders[3][i] for i in perm]
            permuted_states = list(states)
            tensor = states[2].embedded.amplitudes.reshape(2, 2, 2, 2)
            permuted_states[2] = np.transpose(tensor, perm).reshape(16)
            moved = vertex_amplitude(permuted_states, k5_graph(orders)).value
            assert abs(moved - base) < 1e-14

    def test_relabeling_without_permuting_the_tensor_changes_the_value(self):
        # sensitivity check: a 3-cycle of slots genuinely mixes the logical
        # basis, so forgetting the compensating transpose must be visible
        from qtetra.amplitude import NODES, k5_graph

        rng = np.random.default_rng(71)
        states = random_states(rng)
        base_orders = {n: sorted(set(NODES) - {n}) for n in NODES}
        base = vertex_amplitude(states, k5_graph(base_orders)).value
        orders = dict(base_orders)
        orders[3] = [base_orders[3][i] for i in (1, 2, 0, 3)]
        moved = vertex_amplitude(states, k5_graph(orders)).value
        assert abs(moved - base) > 1e-6
