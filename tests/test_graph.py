import random

import pytest

from hermix import (
    BadVertexId,
    Cycle,
    DuplicateEdge,
    MixedGraph,
    NotUnicyclic,
    SameVertex,
    SelfLoop,
    enumerate_paths,
    remove_vertices,
    unique_cycle,
)

from conftest import (
    canonical_cycle,
    c6_two_pendants,
    deep_path,
    p4,
    pentagon_tail,
    random_mixed_graph,
    simple_paths_oracle,
)


def test_vertex_and_edge_validation():
    with pytest.raises(BadVertexId):
        MixedGraph(-1)
    with pytest.raises(BadVertexId):
        MixedGraph(3, digons=[(0, 3)])
    with pytest.raises(SelfLoop):
        MixedGraph(3, digons=[(1, 1)])
    with pytest.raises(DuplicateEdge):
        MixedGraph(3, digons=[(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdge):
        MixedGraph(3, digons=[(0, 1)], arcs=[(0, 1)])
    with pytest.raises(DuplicateEdge):
        MixedGraph(3, arcs=[(0, 1), (1, 0)])


def test_hermitian_exponent_orientation():
    x = MixedGraph(3, digons=[(0, 1)], arcs=[(1, 2)])
    assert x.hermitian_exponent(0, 1) == 0
    assert x.hermitian_exponent(1, 0) == 0
    assert x.hermitian_exponent(1, 2) == 1
    assert x.hermitian_exponent(2, 1) == -1
    assert x.hermitian_exponent(0, 2) is None
    assert x.hermitian_exponent(0, 0) is None
    assert x.has_edge(1, 2) and not x.has_edge(0, 2)


def test_neighbors_sorted_and_degree():
    x = MixedGraph(4, digons=[(2, 0)], arcs=[(3, 0), (0, 1)])
    assert x.neighbors(0) == (1, 2, 3)
    assert x.degree(0) == 3
    assert x.degree(1) == 1


def test_underlying_forgets_orientation():
    x = MixedGraph(3, digons=[(0, 1)], arcs=[(2, 1)])
    u = x.underlying()
    assert u.arcs == frozenset()
    assert u.digons == frozenset({(0, 1), (1, 2)})
    assert x.underlying_edges() == ((0, 1), (1, 2))


def test_graph_value_semantics():
    a = MixedGraph(2, arcs=[(0, 1)])
    b = MixedGraph(2, arcs=[(0, 1)])
    c = MixedGraph(2, arcs=[(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_remove_vertices_remaps_densely():
    x = pentagon_tail()
    sub = remove_vertices(x, [0, 3])
    assert sub.kept == (1, 2, 4, 5, 6, 7)
    # arc 1->2 maps to 0->1 in the new ids
    assert (0, 1) in sub.graph.arcs
    assert sub.graph.n == 6
    assert not sub.graph.has_edge(1, 2)  # old (2, 3) is gone


def test_enumerate_paths_against_networkx():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 8)
        x = random_mixed_graph(rng, n)
        i, j = rng.sample(range(n), 2)
        assert enumerate_paths(x, i, j) == simple_paths_oracle(x, i, j)


def test_enumerate_paths_deep_path():
    x = deep_path()
    assert enumerate_paths(x, 0, x.n - 1) == [tuple(range(x.n))]


def test_enumerate_paths_rejects_equal_endpoints():
    with pytest.raises(SameVertex):
        enumerate_paths(p4(), 1, 1)


def test_canonical_cycle_invariance():
    base = canonical_cycle([3, 1, 4, 2])
    for rot in range(4):
        seq = [3, 1, 4, 2][rot:] + [3, 1, 4, 2][:rot]
        assert canonical_cycle(seq) == base
        assert canonical_cycle(seq[::-1]) == base
    assert base.vertices[0] == 1
    assert base.vertices[1] < base.vertices[-1]


def test_cycle_edges_and_walk():
    c = Cycle((0, 2, 5))
    assert c.edges == ((0, 2), (0, 5), (2, 5))
    assert c.closed_walk() == (0, 2, 5, 0)
    assert 2 in c and 3 not in c
    assert len(c) == 3


def test_unique_cycle_on_decorated_hexagon():
    c = unique_cycle(c6_two_pendants())
    assert c.vertices == (0, 1, 2, 3, 4, 5)


def test_unique_cycle_rejections():
    with pytest.raises(NotUnicyclic):
        unique_cycle(p4())  # tree
    with pytest.raises(NotUnicyclic):
        unique_cycle(MixedGraph(6, digons=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    theta = MixedGraph(4, digons=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    with pytest.raises(NotUnicyclic):
        unique_cycle(theta)


def test_unique_cycle_whole_graph_is_cycle():
    x = MixedGraph(5, digons=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert unique_cycle(x).vertices == (0, 1, 2, 3, 4)
