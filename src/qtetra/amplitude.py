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
it is built: per link, the nodes it places and the slices that meet the
singlet's two nonzero entries; and ``split``, the first step that places node 5.
``fifth_node_head`` runs the steps before ``split``, and ``fifth_node_tail``
the rest for each of a batch of fifth-node states, so one head serves many
batches; no other code runs a plan, and ``vertex_amplitude`` is a batch of
one. Each link writes ``p01 * s01 + p10 * s10`` from the contracted pair's
(0, 1) and (1, 0) slices and never forms the products of the two zero entries.
That is bit-identical to the tests' reference, a ``np.multiply.outer`` per
placed node then a ``np.tensordot`` per link, where BLAS rounds each product
once and then their sum (checked on several x86-64 OpenBLAS kernels). Two
kinds of link keep ``np.dot``, as BLAS takes other kernels there: the last,
whose (1, 4) row it contracts as a dot product, and one that places no node
and contracts the first two open axes, which ``np.tensordot``'s transposed
reshape hands to BLAS as an F-ordered matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .tetrahedron import _as_amplitudes, logical_basis

NODES = (1, 2, 3, 4, 5)
SLOTS = (1, 2, 3, 4)

Endpoint = tuple[int, int]
Link = tuple[Endpoint, Endpoint]

_SINGLET = np.zeros(4)
_SINGLET[0b01] = 1.0 / math.sqrt(2)
_SINGLET[0b10] = -1.0 / math.sqrt(2)
# What every link reads: np.dot's column, whose rows 0b01 and 0b10 are the
# split form's coefficients. Casting the float singlet to complex is exact.
_EPS_COLUMN = _SINGLET.reshape(4, 1).astype(complex)
_ONE = np.array(1.0, dtype=complex)
_ONE.setflags(write=False)


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
    fused: int | None  # node placed by this link's two half-size products
    at01: tuple  # index of the partial contraction's slice meeting singlet entry (0, 1)
    at10: tuple  # ... and entry (1, 0)
    node01: tuple | None  # index of the fused node's slice meeting entry (0, 1)
    node10: tuple | None  # ... and entry (1, 0)
    order: tuple[int, ...] | None  # np.dot links only: transpose moving the contracted pair last


def _fix(bits: dict[int, int]) -> tuple:
    """Basic index fixing each ``axis: bit`` of ``bits`` and keeping every other axis."""
    index: list = [slice(None)] * (max(bits) + 1)
    for axis, bit in bits.items():
        index[axis] = bit
    return tuple(index)


def _contraction_plan(links: tuple[Link, ...]) -> tuple[_Step, ...]:
    """Per link, the slices that meet the singlet's two nonzero entries.

    A placing link's slices are outer products: the partial contraction with
    its contracted axis fixed, and the node with its slot fixed. ``order`` is
    set only at the links that keep ``np.dot`` (see the module docstring).
    """
    steps = []
    open_axes: list[Endpoint] = []
    placed: set[int] = set()
    for (n, s), (m, t) in links:
        new = [node for node in (n, m) if node not in placed]
        placed.update(new)
        for node in new[:-1]:
            open_axes.extend((node, slot) for slot in SLOTS)
        fused = new[-1] if new else None
        node01 = node10 = order = None
        if fused is None:
            i, j = open_axes.index((n, s)), open_axes.index((m, t))
            at01, at10 = _fix({i: 0, j: 1}), _fix({i: 1, j: 0})
            kept = [a for a in range(len(open_axes)) if a not in (i, j)]
            if not kept or (i, j) == (0, 1):
                order = tuple(kept) + (i, j)
            open_axes = [open_axes[a] for a in kept]
        else:
            # entry (0, 1) fixes bit x of the partial contraction's endpoint and
            # bit 1 - x of the node's, where x = 1 when the node's endpoint is first
            other, slot = ((n, s), t) if fused == m else ((m, t), s)
            c, x = open_axes.index(other), int(fused == n)
            at01, at10 = _fix({c: x}), _fix({c: 1 - x})
            node01, node10 = _fix({slot - 1: 1 - x}), _fix({slot - 1: x})
            open_axes = [a for a in open_axes if a != other]
            open_axes.extend((fused, q) for q in SLOTS if q != slot)
        steps.append(_Step(tuple(node - 1 for node in new[:-1]),
                           None if fused is None else fused - 1,
                           at01, at10, node01, node10, order))
    return tuple(steps)


def _run_plan(current: np.ndarray, tensors, steps) -> np.ndarray:
    """Run plan steps from the partial contraction ``current``.

    The partial contraction stays the first factor of a placing link's outer
    products: numpy's vectorized complex multiply uses fused multiply-adds
    that treat its factors differently, so ``x * y`` and ``y * x`` can differ
    in the last bit.
    """
    s01, s10 = _EPS_COLUMN[0b01, 0], _EPS_COLUMN[0b10, 0]
    for step in steps:
        for node in step.outer:
            current = np.multiply.outer(current, tensors[node])
        if step.order is not None:
            view = current.transpose(step.order)
            current = np.dot(view.reshape(-1, 4), _EPS_COLUMN).reshape(view.shape[:-2])
            continue
        if step.fused is None:
            p01, p10 = current[step.at01] * s01, current[step.at10] * s10
        else:
            node = tensors[step.fused]
            p01 = np.multiply.outer(current[step.at01], node[step.node01])
            p10 = np.multiply.outer(current[step.at10], node[step.node10])
            p01 *= s01
            p10 *= s10
        current = np.add(p01, p10, out=p01)
    return current


@dataclass(frozen=True)
class SpinNetworkGraph:
    """Ten links pairing the twenty (node, slot) endpoints of five nodes."""

    links: tuple[Link, ...]
    plan: tuple[_Step, ...] = field(init=False, repr=False, compare=False)
    split: int = field(init=False, repr=False, compare=False)  # first plan step placing node 5

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
        plan = _contraction_plan(links)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "split", next(
            i for i, step in enumerate(plan) if 4 in (step.fused, *step.outer)))

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
    partial = _run_plan(_ONE, tensors, graph.plan[:graph.split])
    partial.setflags(write=False)
    return FifthNodeHead(partial, tensors, graph.plan[graph.split:])


def fifth_node_tail(head: FifthNodeHead, states) -> list[complex]:
    """Vertex amplitudes of the head's nodes 1-4 with each of ``states`` at node 5."""
    values = []
    for state in states:
        tensors = (*head.tensors, _as_amplitudes(state).reshape(2, 2, 2, 2))
        values.append(complex(_run_plan(head.partial, tensors, head.steps)))
    return values


def fifth_node_amplitudes(fixed, states, graph: SpinNetworkGraph) -> list[complex]:
    """Vertex amplitudes of ``fixed`` (nodes 1-4) with each of ``states`` at node 5.

    The head runs once for the batch and the tail once per state.
    """
    return fifth_node_tail(fifth_node_head(fixed, graph), states)


def _check_five(states) -> None:
    if len(states) != 5:
        raise ValueError(f"need exactly 5 node states, got {len(states)}")


def vertex_amplitude(states, graph: SpinNetworkGraph) -> AmplitudeResult:
    """The amplitude of five node states: a batch of one in ``fifth_node_amplitudes``."""
    _check_five(states)
    return AmplitudeResult(fifth_node_amplitudes(states[:4], states[4:], graph)[0])


def vertex_amplitude_bruteforce(states, graph: SpinNetworkGraph) -> AmplitudeResult:
    """Reference oracle: the full 20-qubit product state, projected literally.

    Builds the tensor product of all five node states (2^20 amplitudes,
    qubit (n, s) at global position 4*(n-1) + s) and applies the ten singlet
    bras one after the other.
    """
    _check_five(states)
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
    basis = logical_basis()
    table = np.empty((2,) * 5, dtype=complex)
    for index in np.ndindex(*table.shape[:4]):
        table[index] = fifth_node_amplitudes([basis[b] for b in index], basis, graph)
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

