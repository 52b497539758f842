"""Vertex amplitude of five invariant tensors glued over the complete graph K5.

Five 4-qubit invariant tensors sit on the nodes; each of the ten links carries
the two-qubit singlet (|01> - |10>)/sqrt(2), whose bra is contracted against
one qubit slot of each endpoint node. The resulting complex number is computed
along three independent routes (sequential contraction, a literal 20-qubit
brute force, and a 32-entry multilinear basis table) that must agree.

Because invariant tensors are not symmetric under slot permutations, the
amplitude depends on which slot of each node a link attaches to. Graphs are
therefore explicit: a SpinNetworkGraph lists ten links ((n, s), (m, t)), and
the stored endpoint order fixes the singlet orientation (first factor on the
first endpoint). ``partner_rule_graph`` names four slot assignments, among them:

* ``partner_rule_graph("increasing")``: at each node, slots 1..4 host the
  incident links in increasing order of the partner node.
* ``cyclic_k5()``, the ``"cyclic"`` rule: node n's slots 1..4 host partners
  n+1, n+2, n+3, n+4 (mod 5). This is the assignment under which four
  regular tensors at (pi/2, pi/2) make the amplitude vanish exactly at
  i5 = (pi/2, 3*pi/2); the bundled reference amplitudes are reproduced in
  this convention.

Each graph compiles its sequential contraction into a fixed plan once, when
it is built: per link, the nodes the link places, the transpose that moves
the contracted qubit pair last, and the row count of the matrix that meets
the singlet. ``vertex_amplitude`` runs that plan. ``fifth_node_head`` runs
the steps before node 5 is first placed, and ``fifth_node_tail`` the rest
for each of a batch of fifth-node states, so one head can serve many
batches. The plan performs the float operations of a ``np.multiply.outer``
then ``np.tensordot`` per link, on the same operands in the same order, and
numpy rounds each complex product the same whatever the memory layout, so
its amplitudes are bit-identical to that form; the tests keep that form as
their reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .tetrahedron import _as_amplitudes, bloch_coefficients, logical_basis

NODES = (1, 2, 3, 4, 5)
SLOTS = (1, 2, 3, 4)

Endpoint = tuple[int, int]
Link = tuple[Endpoint, Endpoint]

_SINGLET = np.zeros(4)
_SINGLET[0b01] = 1.0 / math.sqrt(2)
_SINGLET[0b10] = -1.0 / math.sqrt(2)
_EPS = _SINGLET.reshape(2, 2).copy()
# np.dot would cast the float singlet to complex on every call; casting once is exact.
_EPS_COLUMN = _EPS.reshape(4, 1).astype(complex)
_ONE = np.array(1.0, dtype=complex)
_ONE.setflags(write=False)
# 2^6 rows of a fused product, 32 complex entries each: 32 KB, which stays in
# a typical L1 data cache while every entry of the tile is written.
_TILE_AXES = 6


@dataclass(frozen=True, eq=False)
class AmplitudeResult:
    """A complex amplitude with a magnitude accessor."""

    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


class _Step(NamedTuple):
    """One link of a contraction plan; node indices are 0-based."""

    outer: tuple[int, ...]  # nodes placed by a plain outer product first
    fused: int | None  # node whose product is written straight in contracted layout
    current_shape: tuple[int, ...]  # open axes, then four unit axes if ``fused``
    node_shape: tuple[int, ...]  # unit axes for the open axes, then the fused node's four
    order: tuple[int, ...]  # transpose moving the contracted pair last
    rows: int
    loop: tuple[int, ...]  # fused product's iteration order over the contracted layout


def _contraction_plan(links: tuple[Link, ...]) -> tuple[_Step, ...]:
    """Per link, the steps that ``np.multiply.outer`` and ``np.tensordot`` would take."""
    steps = []
    open_axes: list[Endpoint] = []
    placed: set[int] = set()
    for (n, s), (m, t) in links:
        new = [node for node in (n, m) if node not in placed]
        placed.update(new)
        for node in new[:-1]:
            open_axes.extend((node, slot) for slot in SLOTS)
        k = len(open_axes)
        current_shape, node_shape = (2,) * k, ()
        if new:
            current_shape += (1,) * 4
            node_shape = (1,) * k + (2,) * 4
            open_axes.extend((new[-1], slot) for slot in SLOTS)
        i, j = open_axes.index((n, s)), open_axes.index((m, t))
        kept = [a for a in range(len(open_axes)) if a not in (i, j)]
        order = tuple(kept) + (i, j)
        # A fused product is written tile by tile: the innermost loop runs over
        # the last _TILE_AXES kept axes of ``current`` with the node factor
        # fixed, and every column of a tile's rows is written before the next.
        row_axes = [p for p in range(len(kept)) if order[p] < k]
        tile = row_axes[-_TILE_AXES:]
        loop = [p for p in range(len(order)) if p not in tile]
        steps.append(_Step(
            outer=tuple(node - 1 for node in new[:-1]),
            fused=new[-1] - 1 if new else None,
            current_shape=current_shape,
            node_shape=node_shape,
            order=order,
            rows=2 ** len(kept),
            loop=tuple(loop) + tuple(tile) if new else (),
        ))
        open_axes = [open_axes[a] for a in kept]
    return tuple(steps)


def _run_plan(current: np.ndarray, tensors, steps) -> np.ndarray:
    """Run plan steps from the partial contraction ``current``.

    A fused step writes the outer product of ``current`` and the new node
    straight into ``np.tensordot``'s transposed layout. Its factors keep the
    outer product's argument order: numpy's vectorized complex multiply uses
    fused multiply-adds that treat them differently, so ``x * y`` and
    ``y * x`` can differ in the last bit.
    """
    for step in steps:
        for node in step.outer:
            current = np.multiply.outer(current, tensors[node])
        view = current.reshape(step.current_shape).transpose(step.order)
        if step.fused is not None:
            factor = tensors[step.fused].reshape(step.node_shape).transpose(step.order)
            loop = step.loop
            product = np.empty((2,) * len(loop), dtype=complex)
            np.multiply(view.transpose(loop), factor.transpose(loop),
                        out=product.transpose(loop), order="C")
            view = product
        current = np.dot(view.reshape(step.rows, 4), _EPS_COLUMN)
    return current


@dataclass(frozen=True)
class SpinNetworkGraph:
    """Ten links pairing the twenty (node, slot) endpoints of five nodes."""

    links: tuple[Link, ...]
    plan: tuple[_Step, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        links = tuple((tuple(a), tuple(b)) for a, b in self.links)
        object.__setattr__(self, "links", links)
        if len(links) != 10:
            raise ValueError(f"a K5 spin network needs 10 links, got {len(links)}")
        endpoints = [ep for link in links for ep in link]
        expected = {(n, s) for n in NODES for s in SLOTS}
        if len(set(endpoints)) != 20 or set(endpoints) != expected:
            raise ValueError("every (node, slot) must appear in exactly one link")
        pairs = {frozenset((a[0], b[0])) for a, b in links}
        if len(pairs) != 10 or any(len(p) != 2 for p in pairs):
            raise ValueError("links must cover all ten unordered node pairs")
        object.__setattr__(self, "plan", _contraction_plan(links))

    def with_link_swapped(self, index: int) -> "SpinNetworkGraph":
        """Copy of the graph with one link's endpoint qubits exchanged."""
        links = list(self.links)
        a, b = links[index]
        links[index] = (b, a)
        return SpinNetworkGraph(tuple(links))


def k5_graph(partner_orders: dict[int, Sequence[int]]) -> SpinNetworkGraph:
    """Build a K5 graph from an explicit partner order at every node.

    ``partner_orders[n]`` lists the partner node met by slots 1..4 of node n.
    Links are emitted in lexicographic order of the node pair, first factor on
    the lower-numbered node.
    """
    slot_of = {}
    for n in NODES:
        order = list(partner_orders[n])
        if sorted(order) != sorted(set(NODES) - {n}):
            raise ValueError(f"node {n} must list each of its four partners once")
        for s, m in zip(SLOTS, order):
            slot_of[(n, m)] = s
    links = []
    for n in NODES:
        for m in NODES:
            if n < m:
                links.append(((n, slot_of[(n, m)]), (m, slot_of[(m, n)])))
    return SpinNetworkGraph(tuple(links))


def partner_rule_graph(rule: str) -> SpinNetworkGraph:
    """Named slot-assignment rules: increasing, decreasing, cyclic, anticyclic.

    Built once per rule; the returned graph is shared (it is immutable).
    """
    return _partner_rule_graph(rule)


@functools.cache
def _partner_rule_graph(rule: str) -> SpinNetworkGraph:
    orders: dict[int, list[int]] = {}
    for n in NODES:
        others = sorted(set(NODES) - {n})
        if rule == "increasing":
            orders[n] = others
        elif rule == "decreasing":
            orders[n] = others[::-1]
        elif rule == "cyclic":
            orders[n] = [(n - 1 + s) % 5 + 1 for s in SLOTS]
        elif rule == "anticyclic":
            orders[n] = [(n - 1 - s) % 5 + 1 for s in SLOTS]
        else:
            raise ValueError(f"unknown slot rule {rule!r}")
    return k5_graph(orders)


def cyclic_k5() -> SpinNetworkGraph:
    """Slots in cyclic partner order; the calibrated reference convention."""
    return partner_rule_graph("cyclic")


def _node_tensors(states) -> list[np.ndarray]:
    if len(states) != 5:
        raise ValueError(f"need exactly 5 node states, got {len(states)}")
    return [_as_amplitudes(s).reshape(2, 2, 2, 2) for s in states]


def vertex_amplitude(states, graph: SpinNetworkGraph) -> AmplitudeResult:
    """Contract the network link by link, materializing nodes on first touch.

    Runs ``graph.plan``: links in their stored order, each node's tensor
    multiplied onto the open indices when a link first touches it, and each
    link's qubit pair contracted with one ``np.dot`` against the singlet.
    Those are the float operations of ``np.multiply.outer`` and
    ``np.tensordot`` per link on the same values, so the bits cannot move;
    only the transposed copy of each product is never made.
    """
    return AmplitudeResult(complex(_run_plan(_ONE, _node_tensors(states), graph.plan)[0, 0]))


class FifthNodeHead(NamedTuple):
    """Nodes 1-4 of a graph, contracted up to the plan step that first places node 5."""

    partial: np.ndarray  # the contraction so far, read-only
    tensors: tuple[np.ndarray, ...]  # nodes 1-4, which the later steps may still place
    steps: tuple[_Step, ...]  # the rest of the plan


def fifth_node_head(fixed, graph: SpinNetworkGraph) -> FifthNodeHead:
    """Run the plan steps of ``graph`` before node 5 is first placed, ``fixed`` at nodes 1-4."""
    if len(fixed) != 4:
        raise ValueError(f"need exactly 4 fixed states, got {len(fixed)}")
    tensors = tuple(_as_amplitudes(s).reshape(2, 2, 2, 2) for s in fixed)
    split = next(i for i, step in enumerate(graph.plan) if 4 in (step.fused, *step.outer))
    partial = _run_plan(_ONE, tensors, graph.plan[:split])
    partial.setflags(write=False)
    return FifthNodeHead(partial, tensors, graph.plan[split:])


def fifth_node_tail(head: FifthNodeHead, states) -> list[complex]:
    """Vertex amplitudes of the head's nodes 1-4 with each of ``states`` at node 5."""
    values = []
    for state in states:
        tensors = (*head.tensors, _as_amplitudes(state).reshape(2, 2, 2, 2))
        values.append(complex(_run_plan(head.partial, tensors, head.steps)[0, 0]))
    return values


def fifth_node_amplitudes(fixed, states, graph: SpinNetworkGraph) -> list[complex]:
    """Vertex amplitudes of ``fixed`` (nodes 1-4) with each of ``states`` at node 5.

    The head runs once for the batch and the tail once per state; each
    amplitude is bit-identical to ``vertex_amplitude(fixed + [state], graph)``.
    """
    return fifth_node_tail(fifth_node_head(fixed, graph), states)


def vertex_amplitude_bruteforce(states, graph: SpinNetworkGraph) -> AmplitudeResult:
    """Reference oracle: the full 20-qubit product state, projected literally.

    Builds the tensor product of all five node states (2^20 amplitudes,
    qubit (n, s) at global position 4*(n-1) + s) and applies the ten singlet
    bras one after the other.
    """
    _node_tensors(states)  # validation only
    full = np.array([1.0 + 0.0j])
    for state in states:
        full = np.kron(full, _as_amplitudes(state))
    tensor = full.reshape((2,) * 20)
    labels = [(n, s) for n in NODES for s in SLOTS]
    bra = _SINGLET.conj().reshape(2, 2)
    for first, second in graph.links:
        i, j = labels.index(first), labels.index(second)
        tensor = np.moveaxis(tensor, (i, j), (0, 1))
        tensor = np.tensordot(bra, tensor, axes=([0, 1], [0, 1]))
        labels = [lab for lab in labels if lab not in (first, second)]
    return AmplitudeResult(complex(tensor))


def basis_amplitude_table(graph: SpinNetworkGraph) -> np.ndarray:
    """Amplitudes A(b1..b5) for all 32 logical basis assignments.

    Returned as a complex array of shape (2,)*5 indexed by the logical bit of
    each node; any amplitude of invariant tensors is the multilinear
    contraction of this table with the five (alpha, beta) coefficient pairs.
    """
    zero_l, one_l = logical_basis()
    basis = (zero_l.amplitudes, one_l.amplitudes)
    table = np.empty((2,) * 5, dtype=complex)
    for index in np.ndindex(*table.shape):
        table[index] = vertex_amplitude([basis[b] for b in index], graph).value
    return table


def amplitude_from_table(table: np.ndarray, coefficient_pairs) -> complex:
    """Contract the 32-entry table with five logical coefficient pairs."""
    pairs = [np.asarray(p, dtype=complex).reshape(2) for p in coefficient_pairs]
    if len(pairs) != 5:
        raise ValueError(f"need exactly 5 coefficient pairs, got {len(pairs)}")
    return complex(np.einsum("abcde,a,b,c,d,e->", table, *pairs))


def amplitude_sweep(fixed, theta_grid, phi_grid, graph: SpinNetworkGraph) -> np.ndarray:
    """Amplitudes over a (theta, phi) grid for the fifth node.

    The four fixed states are contracted once against each logical basis state
    at node 5; grid values follow by multilinearity, exactly equal to a full
    contraction per cell. Returns a complex array of shape
    (len(theta_grid), len(phi_grid)), row-major in theta.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    phis = np.asarray(phi_grid, dtype=float)
    if thetas.size == 0 or phis.size == 0:
        raise ValueError("theta and phi grids must be non-empty")
    # written so that NaN, which fails every comparison, is out of range too
    if not np.all((thetas >= 0) & (thetas <= math.pi)):
        raise ValueError("theta grid must lie within [0, pi]")
    if not np.all((phis >= 0) & (phis < 2 * math.pi)):
        raise ValueError("phi grid must lie within [0, 2*pi)")

    h0, h1 = fifth_node_amplitudes(fixed, logical_basis(), graph)
    alpha = np.cos(thetas / 2)[:, None]
    beta = np.sin(thetas / 2)[:, None] * np.exp(1j * phis)[None, :]
    return alpha * h0 + beta * h1


def node_coefficient_pairs(points) -> list[np.ndarray]:
    """Logical (alpha, beta) pairs for a sequence of Bloch points."""
    return [bloch_coefficients(p) for p in points]
