import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermix import (
    BadVertexId,
    DuplicateEdge,
    MixedGraph,
    NotUnicyclic,
    SameVertex,
    SelfLoop,
    co_augmenting_paths,
    ensure_class_h,
    enumerate_paths,
    generate_instance,
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
    to_networkx,
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


def test_constructor_reports_the_first_bad_edge():
    # edges are checked in order, digons first; within an edge the ids come
    # before the self-loop test, and a duplicate is named as its low-high pair
    cases = [
        (([("a", 1)], []), BadVertexId, "vertex 'a' outside 0..2"),
        (([(3, 3)], []), BadVertexId, "vertex 3 outside 0..2"),
        (([(0, 1), (2, 2), (5, 1)], []), SelfLoop, "self-loop at 2"),
        (([(2, 1), (0, 1), (1, 2), (9, 0)], []), DuplicateEdge, r"pair \(1, 2\) used more than once"),
        (([(0, 1)], [(1, 0), (-1, 2)]), DuplicateEdge, r"pair \(0, 1\) used more than once"),
    ]
    for (digons, arcs), error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            MixedGraph(3, digons, arcs)


def test_booleans_are_not_vertex_ids():
    # bool is an int subclass; True must not pass for vertex 1
    with pytest.raises(BadVertexId, match=r"^vertex count must be a nonnegative integer, got True$"):
        MixedGraph(True)
    for digons, arcs, bad in (([], [(True, 2)], True), ([(0, False)], [], False)):
        with pytest.raises(BadVertexId, match=rf"^vertex {bad} outside 0\.\.2$"):
            MixedGraph(3, digons, arcs)
    x = p4()
    with pytest.raises(BadVertexId, match=r"^vertex True outside 0\.\.3$"):
        x.hermitian_exponent(True, 0)
    with pytest.raises(BadVertexId, match=r"^vertex False outside 0\.\.3$"):
        x.hermitian_exponent(1, False)
    with pytest.raises(BadVertexId, match=r"^vertex True outside 0\.\.3$"):
        co_augmenting_paths(x, ensure_class_h(x), True)
    assert co_augmenting_paths(x, ensure_class_h(x), 1) == [(1, 0)]


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
    assert list(x.adjacency[0]) == [1, 2, 3]
    assert len(x.adjacency[0]) == 3
    assert len(x.adjacency[1]) == 1


@st.composite
def edge_lists(draw):
    """A vertex count and digon and arc lists in any order, each pair used
    once; a digon may be given high-low."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    digons, arcs = [], []
    for u, v in chosen:
        kind = draw(st.sampled_from(("digon", "flipped digon", "arc", "reversed arc")))
        if kind.endswith("digon"):
            digons.append((v, u) if kind == "flipped digon" else (u, v))
        else:
            arcs.append((v, u) if kind == "reversed arc" else (u, v))
    return n, digons, arcs


def assert_rows_match_edge_lists(n, digons, arcs):
    x = MixedGraph(n, digons, arcs)
    want = {}
    for u, v in digons:
        want[u, v] = want[v, u] = 0
    for u, v in arcs:
        want[u, v], want[v, u] = 1, -1
    for u in range(n):
        for v in range(n):
            assert x.hermitian_exponent(u, v) == want.get((u, v))
    for u in range(n):
        nbrs = sorted(v for w, v in want if w == u)
        assert list(x.adjacency[u]) == nbrs
        assert dict(x.adjacency[u]) == {v: want[u, v] for v in nbrs}
        with pytest.raises(TypeError):
            x.adjacency[u][u] = 0
        for bad in (-1, n):
            for pair in ((u, bad), (bad, u)):
                with pytest.raises(BadVertexId):
                    x.hermitian_exponent(*pair)
    assert x.underlying_edges() == tuple(sorted((u, v) for u, v in want if u < v))
    assert x.edge_count == len(digons) + len(arcs)


@given(edge_lists())
def test_exponent_rows_match_edge_lists(graph):
    assert_rows_match_edge_lists(*graph)


def test_exponent_rows_of_generated_documents():
    for seed in range(1, 6):
        for n, unicyclic in ((10, False), (24, True), (40, True)):
            doc = generate_instance(seed, n, unicyclic)
            assert_rows_match_edge_lists(doc.n, doc.digons, doc.arcs)


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
    assert base[0] == 1
    assert base[1] < base[-1]


def test_unique_cycle_on_decorated_hexagon():
    assert unique_cycle(c6_two_pendants()) == (0, 1, 2, 3, 4, 5)


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
    assert unique_cycle(x) == (0, 1, 2, 3, 4)


def test_unique_cycle_against_networkx():
    # generated documents, then copies under a random relabelling, so that the
    # least cycle vertex and the order of its cycle neighbours vary
    rng = random.Random(15)
    for seed in range(1, 11):
        for n in (6, 10, 16, 40, 80, 160):
            doc = generate_instance(seed, n, True)
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = MixedGraph(
                n,
                [(perm[u], perm[v]) for u, v in doc.digons],
                [(perm[u], perm[v]) for u, v in doc.arcs],
            )
            for x in (doc.to_graph(), relabelled):
                found = nx.find_cycle(to_networkx(x))
                assert unique_cycle(x) == canonical_cycle(u for u, _ in found)
