"""Two-fused-star network topology: parameters, edge orbits and edges.

A two-fused-star (TFS) network consists of two symmetric stars sharing a
single central node.  The first star has ``n1`` branches, each a path of
``m1`` nodes; the second has ``n2`` branches of ``m2`` nodes.  Nodes sit
in strata: ``i`` is the distance from the center, negative on the first
star, positive on the second, 0 at the center.  In canonical order the
strata are contiguous, the center at index ``m1 * n1``.

Edges fall into ``m1 + m2`` orbits of the branch-permuting symmetry group,
labeled by the stratum they lead away from the center into: orbit ``i < 0``
holds the edges between strata ``i`` and ``i + 1`` of the first star, orbit
``i > 0`` the edges between strata ``i - 1`` and ``i`` of the second.
Everything numerical works from ``TfsParams`` and the index arithmetic of
``edge_table``; the node labels ``(i, mu)`` and the node and edge lists
built from them are in ``fusedstar.reference``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidParameterError(ValueError):
    """Network parameters outside their valid range."""


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

    def swap(self) -> "TfsParams":
        """Parameters of the mirror network with the two stars exchanged."""
        return TfsParams(self.m2, self.n2, self.m1, self.n1)


@dataclass(frozen=True)
class TfsGraph:
    """A TFS network, given by its parameters alone: two graphs are equal
    when their parameters are."""

    params: TfsParams


def build_topology(params: TfsParams) -> TfsGraph:
    """The TFS network of ``params``; O(1)."""
    return TfsGraph(params)


def edge_table(params: TfsParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges as index arrays ``(a, b, k)``, orbit by orbit (orbit ``-m1``
    first) and branch by branch within each orbit.

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
