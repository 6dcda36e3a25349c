"""Topology construction: node identity, orbit labelling, degrees."""

import pytest

from fusedstar.reference import (
    InvalidNodeError,
    NodeId,
    NotAnEdgeError,
    canonical_nodes,
    degrees,
    edge_orbit,
    edges,
    node_index,
    nodes,
    strata,
    stratum_labels,
)
from fusedstar.topology import InvalidParameterError, TfsParams, edge_table


def test_params_counts():
    assert TfsParams(3, 2, 2, 3).n_nodes == 13
    assert TfsParams(3, 2, 2, 3).n_edges == 12
    assert TfsParams(3, 4, 4, 3).n_nodes == 25
    assert TfsParams(1, 1, 1, 1).n_nodes == 3


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        TfsParams(0, 2, 2, 3)
    with pytest.raises(InvalidParameterError):
        TfsParams(3, 2, -1, 3)
    with pytest.raises(InvalidParameterError):
        TfsParams(3, 2.5, 2, 3)
    with pytest.raises(InvalidParameterError):
        TfsParams(float("inf"), 2, 2, 2)
    with pytest.raises(InvalidParameterError):
        TfsParams(2, 2, float("nan"), 2)


def test_params_reject_counts_beyond_the_float_range():
    # every solver computes with float(n); 10**400 overflows it
    with pytest.raises(InvalidParameterError, match="n1 is too large"):
        TfsParams(2, 10**400, 2, 2)
    with pytest.raises(InvalidParameterError, match="n2 is too large"):
        TfsParams(2, 2, 2, 10**400)
    assert TfsParams(2, 10**300, 2, 2).n1 == 10**300


def test_orbit_labels():
    p = TfsParams(3, 2, 2, 3)
    assert p.orbit_labels == (-3, -2, -1, 1, 2)
    assert 0 not in p.orbit_labels
    assert len(p.orbit_labels) == p.m1 + p.m2


def test_stratum_labels():
    assert stratum_labels(TfsParams(2, 2, 3, 2)) == (-2, -1, 0, 1, 2, 3)


def test_swap():
    p = TfsParams(3, 4, 4, 3)
    q = p.swap()
    assert (q.m1, q.n1, q.m2, q.n2) == (4, 3, 3, 4)
    assert q.n_nodes == p.n_nodes


def test_node_index_layout():
    # stratum-major layout with the center at position m1*n1
    p = TfsParams(3, 4, 4, 3)
    assert node_index(p, NodeId(-3, 1)) == 0
    assert node_index(p, NodeId(0, 0)) == 12
    assert node_index(p, NodeId(4, 3)) == 24

    indices = [node_index(p, v) for v in canonical_nodes(p)]
    assert indices == list(range(p.n_nodes))


def test_node_index_rejects_bad_nodes():
    p = TfsParams(3, 2, 2, 3)
    with pytest.raises(InvalidNodeError):
        node_index(p, NodeId(4, 1))
    with pytest.raises(InvalidNodeError):
        node_index(p, NodeId(0, 1))  # center has a single copy
    with pytest.raises(InvalidNodeError):
        node_index(p, NodeId(-1, 3))  # branch number out of range for n1=2


def test_edge_orbit_examples():
    p = TfsParams(3, 2, 2, 3)
    assert edge_orbit(p, (NodeId(-1, 2), NodeId(0, 0))) == -1
    assert edge_orbit(p, (NodeId(-3, 1), NodeId(-2, 1))) == -3
    assert edge_orbit(p, (NodeId(0, 0), NodeId(1, 3))) == 1
    # endpoint order is irrelevant
    assert edge_orbit(p, (NodeId(1, 3), NodeId(0, 0))) == 1


def test_edge_orbit_rejects_non_edges():
    p = TfsParams(3, 2, 2, 3)
    with pytest.raises(NotAnEdgeError):
        edge_orbit(p, (NodeId(-1, 1), NodeId(1, 1)))  # arms meet only at center
    with pytest.raises(NotAnEdgeError):
        edge_orbit(p, (NodeId(-2, 1), NodeId(-1, 2)))  # different branches
    with pytest.raises(NotAnEdgeError):
        edge_orbit(p, (NodeId(1, 1), NodeId(1, 2)))  # same stratum


def test_edges_come_orbit_by_orbit():
    p = TfsParams(3, 2, 2, 3)
    assert len(edges(p)) == p.n_edges
    labels = [edge_orbit(p, e) for e in edges(p)]
    assert labels == sorted(labels)
    # orbit sizes: n1 per negative label, n2 per positive label
    assert labels.count(-2) == p.n1
    assert labels.count(2) == p.n2


def test_strata_partition():
    p = TfsParams(2, 3, 1, 4)
    sizes = {i: len(strata(p)[i]) for i in stratum_labels(p)}
    assert sizes == {-2: 3, -1: 3, 0: 1, 1: 4}
    assert sum(sizes.values()) == p.n_nodes


def test_degrees():
    p = TfsParams(3, 4, 4, 3)
    d = degrees(p)
    assert d[NodeId(0, 0)] == 7
    assert d[NodeId(-3, 2)] == 1
    assert d[NodeId(-2, 1)] == 2
    assert sum(d.values()) == 2 * p.n_edges


def test_degrees_single_hop_branches():
    d = degrees(TfsParams(1, 2, 1, 2))
    for node, deg in d.items():
        assert deg == (2 + 2 if node.i == 0 else 1)


def test_minimal_network_is_a_path():
    p = TfsParams(1, 1, 1, 1)
    assert len(edges(p)) == 2
    assert degrees(p)[NodeId(0, 0)] == 2


def test_swap_isomorphism():
    p = TfsParams(2, 3, 4, 5)
    mirrored = {frozenset((NodeId(-u.i, u.mu), NodeId(-v.i, v.mu))) for u, v in edges(p)}
    assert mirrored == {frozenset(e) for e in edges(p.swap())}


@pytest.mark.parametrize("params", [(1, 2, 1, 2), (2, 3, 4, 5), (5, 2, 3, 7)])
def test_node_count_formula(params):
    p = TfsParams(*params)
    assert p.n_nodes == p.m1 * p.n1 + p.m2 * p.n2 + 1
    assert len(list(canonical_nodes(p))) == p.n_nodes
    assert len(nodes(p)) == p.n_nodes


@pytest.mark.parametrize("m1", [1, 2, 4])
@pytest.mark.parametrize("n1", [1, 2, 5])
@pytest.mark.parametrize("m2", [1, 3])
@pytest.mark.parametrize("n2", [1, 3])
def test_edge_table_matches_node_view(m1, n1, m2, n2):
    p = TfsParams(m1, n1, m2, n2)
    expected = [
        (node_index(p, u), node_index(p, v), p.orbit_labels.index(edge_orbit(p, (u, v))))
        for u, v in edges(p)
    ]
    a, b, k = edge_table(p)
    assert list(zip(a.tolist(), b.tolist(), k.tolist())) == expected
