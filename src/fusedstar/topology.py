"""Two-fused-star network topology: nodes, edges, strata and edge orbits.

A two-fused-star (TFS) network consists of two symmetric stars sharing a
single central node.  The first star has ``n1`` branches, each a path of
``m1`` nodes; the second has ``n2`` branches of ``m2`` nodes.  Nodes carry
labels ``(i, mu)`` where ``i`` is the stratum (distance from the center,
negative on the first star, positive on the second, 0 at the center) and
``mu`` numbers the branch within its star.  The center is ``(0, 0)``.

Edges fall into ``m1 + m2`` orbits of the branch-permuting symmetry group,
labeled by the stratum they lead away from the center into: orbit ``i < 0``
holds the edges between strata ``i`` and ``i + 1`` of the first star, orbit
``i > 0`` the edges between strata ``i - 1`` and ``i`` of the second.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np


class InvalidParameterError(ValueError):
    """Network parameters outside their valid range."""


class InvalidNodeError(ValueError):
    """Node label that does not exist for the given parameters."""


class NotAnEdgeError(ValueError):
    """Node pair that is not an edge of the network."""


@dataclass(frozen=True, order=True)
class NodeId:
    """Node label ``(i, mu)``: stratum index and branch number."""

    i: int
    mu: int


@dataclass(frozen=True)
class TfsParams:
    """Branch lengths ``m1, m2`` and branch counts ``n1, n2`` of the two stars."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("m1", "n1", "m2", "n2"):
            value = getattr(self, name)
            try:
                real = float(value)
            except OverflowError:
                raise InvalidParameterError(
                    f"{name} is too large for floating-point arithmetic"
                ) from None
            # inf and nan fail the first test, before int() could raise
            if not np.isfinite(real) or int(value) != value or value < 1:
                raise InvalidParameterError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
            object.__setattr__(self, name, int(value))

    @property
    def n_nodes(self) -> int:
        return self.m1 * self.n1 + self.m2 * self.n2 + 1

    @property
    def n_edges(self) -> int:
        # a tree: one edge per non-central node
        return self.m1 * self.n1 + self.m2 * self.n2

    @property
    def orbit_labels(self) -> tuple[int, ...]:
        """Edge-orbit labels in canonical order: -m1..-1 then 1..m2."""
        return tuple(range(-self.m1, 0)) + tuple(range(1, self.m2 + 1))

    @property
    def stratum_labels(self) -> tuple[int, ...]:
        return tuple(range(-self.m1, self.m2 + 1))

    def swap(self) -> "TfsParams":
        """Parameters of the mirror network with the two stars exchanged."""
        return TfsParams(self.m2, self.n2, self.m1, self.n1)


def _branch_count(params: TfsParams, i: int) -> int:
    return params.n1 if i < 0 else params.n2


def _check_node(params: TfsParams, node: NodeId) -> None:
    i, mu = node.i, node.mu
    if i == 0:
        if mu != 0:
            raise InvalidNodeError(f"center node must be (0, 0), got {node}")
        return
    if not -params.m1 <= i <= params.m2:
        raise InvalidNodeError(f"stratum {i} out of range for {params}")
    if not 1 <= mu <= _branch_count(params, i):
        raise InvalidNodeError(f"branch {mu} out of range in stratum {i}")


def canonical_nodes(params: TfsParams) -> Iterator[NodeId]:
    """Nodes in canonical order: stratum-major, branch-minor, center between."""
    for i in range(-params.m1, 0):
        for mu in range(1, params.n1 + 1):
            yield NodeId(i, mu)
    yield NodeId(0, 0)
    for i in range(1, params.m2 + 1):
        for mu in range(1, params.n2 + 1):
            yield NodeId(i, mu)


def node_index(params: TfsParams, node: NodeId) -> int:
    """Position of ``node`` in the canonical ordering (0-based).

    The center sits at index ``m1 * n1``; strata are contiguous.
    """
    _check_node(params, node)
    i, mu = node.i, node.mu
    if i < 0:
        return (i + params.m1) * params.n1 + (mu - 1)
    if i == 0:
        return params.m1 * params.n1
    return params.m1 * params.n1 + 1 + (i - 1) * params.n2 + (mu - 1)


def edge_orbit(params: TfsParams, edge: tuple[NodeId, NodeId]) -> int:
    """Orbit label of an edge under the branch-permuting symmetry group.

    Raises NotAnEdgeError if the endpoints are not adjacent.
    """
    u, v = edge
    _check_node(params, u)
    _check_node(params, v)
    if u.i > v.i:
        u, v = v, u
    if u.i == v.i:
        raise NotAnEdgeError(f"{edge} joins nodes of the same stratum")
    if v.i - u.i != 1:
        raise NotAnEdgeError(f"{edge} joins non-adjacent strata")
    if u.i != 0 and v.i != 0 and u.mu != v.mu:
        raise NotAnEdgeError(f"{edge} joins different branches")
    if v.i <= 0:
        return u.i  # within the first star, including (-1, mu) -- center
    return v.i  # center -- (1, mu), or within the second star


@dataclass(frozen=True)
class TfsGraph:
    """A TFS network: parameters, canonical node/edge lists and strata.

    Only ``params`` is stored, so two graphs are equal when their
    parameters are.  The node, edge and stratum lists are built the
    first time they are read: the numerical routes work from ``params``
    and the index arithmetic of ``edge_table``.
    """

    params: TfsParams

    @cached_property
    def nodes(self) -> tuple[NodeId, ...]:
        """Nodes in canonical order (see ``canonical_nodes``)."""
        return tuple(canonical_nodes(self.params))

    @cached_property
    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Edges orbit by orbit (orbit -m1 first, ascending label) and
        branch by branch within each orbit; endpoints ordered by stratum."""
        params = self.params
        center = NodeId(0, 0)
        edges: list[tuple[NodeId, NodeId]] = []
        for label in params.orbit_labels:
            if label < -1:
                for mu in range(1, params.n1 + 1):
                    edges.append((NodeId(label, mu), NodeId(label + 1, mu)))
            elif label == -1:
                for mu in range(1, params.n1 + 1):
                    edges.append((NodeId(-1, mu), center))
            elif label == 1:
                for mu in range(1, params.n2 + 1):
                    edges.append((center, NodeId(1, mu)))
            else:
                for mu in range(1, params.n2 + 1):
                    edges.append((NodeId(label - 1, mu), NodeId(label, mu)))
        return tuple(edges)

    @cached_property
    def strata(self) -> Mapping[int, tuple[NodeId, ...]]:
        """Nodes of each stratum, keyed by stratum label."""
        params = self.params
        strata = {
            i: tuple(
                NodeId(i, mu) for mu in range(1, _branch_count(params, i) + 1)
            )
            for i in params.stratum_labels
            if i != 0
        }
        strata[0] = (NodeId(0, 0),)
        return strata


def build_topology(params: TfsParams) -> TfsGraph:
    """The TFS network of ``params``; O(1), node and edge lists on demand."""
    return TfsGraph(params)


def edge_table(params: TfsParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges as index arrays ``(a, b, k)`` in ``TfsGraph.edges`` order.

    ``a`` and ``b`` are the canonical indices of the lower- and
    higher-stratum endpoints, ``k`` the position of the edge's orbit in
    ``params.orbit_labels``.  Each non-central node owns the edge towards
    the center: node ``f`` of the first star leads one stratum up, node
    ``g`` of the second one stratum down.
    """
    n1, n2, center = params.n1, params.n2, params.m1 * params.n1
    f = np.arange(center)
    g = np.arange(center + 1, params.n_nodes)
    a = np.concatenate([f, np.maximum(g - n2, center)])
    b = np.concatenate([np.minimum(f + n1, center), g])
    k = np.concatenate([f // n1, params.m1 + (g - center - 1) // n2])
    return a, b, k


def degrees(graph: TfsGraph) -> dict[NodeId, int]:
    """Degree of every node (leaves 1, branch interiors 2, center n1 + n2)."""
    out = {node: 0 for node in graph.nodes}
    for u, v in graph.edges:
        out[u] += 1
        out[v] += 1
    return out
