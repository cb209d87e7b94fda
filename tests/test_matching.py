import random

import pytest

from hermix import (
    InvalidParameter,
    Matching,
    MixedGraph,
    NotBipartite,
    NotInClassH,
    NotPerfect,
    SameVertex,
    bipartition,
    co_augmenting_paths,
    ensure_class_h,
    is_unique_perfect_matching,
    remove_vertices,
    unique_perfect_matching,
)
from hermix.matching import paths_by_pair

from conftest import (
    all_perfect_matchings,
    c6_two_pendants,
    coaug_paths_oracle,
    deep_path,
    find_perfect_matching,
    has_alternating_cycle,
    h_corpus,
    is_co_augmenting,
    k2_digon,
    p4,
    random_mixed_graph,
)


def random_bipartite(rng: random.Random, n: int, p: float = 0.5) -> MixedGraph:
    split = rng.randrange(n + 1)
    digons = [
        (u, v)
        for u in range(split)
        for v in range(split, n)
        if rng.random() < p
    ]
    return MixedGraph(n, digons=digons)


def random_balanced_bipartite(rng: random.Random, n: int, p: float = 0.6) -> MixedGraph:
    half = n // 2
    digons = [
        (u, v)
        for u in range(half)
        for v in range(half, 2 * half)
        if rng.random() < p
    ]
    return MixedGraph(2 * half, digons=digons)


def test_matching_rejects_overlap_and_loops():
    with pytest.raises(InvalidParameter):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(InvalidParameter):
        Matching([(2, 2)])


def test_matching_contains_normalizes_order():
    m = Matching([(3, 0), (1, 2)])
    assert (0, 3) in m and (3, 0) in m
    assert (1, 2) in m and (0, 1) not in m
    assert m.partner[0] == 3 and m.partner[2] == 1
    assert len(m) == 2 and m.covers(4)


def test_bipartition_deterministic_sides():
    left, right = bipartition(p4())
    assert left == frozenset({0, 2})
    assert right == frozenset({1, 3})


def test_bipartition_rejects_odd_cycles():
    for k, v, w in ((3, 1, 2), (5, 2, 3)):
        cyc = MixedGraph(k, digons=[(i, (i + 1) % k) for i in range(k)])
        msg = f"^odd cycle through vertices {v} and {w}$"
        with pytest.raises(NotBipartite, match=msg):
            bipartition(cyc)


def test_find_perfect_matching_against_enumeration():
    rng = random.Random(11)
    hits = 0
    for _ in range(150):
        n = rng.randrange(0, 9)
        x = random_bipartite(rng, n)
        oracle = all_perfect_matchings(x)
        got = find_perfect_matching(x)
        if oracle:
            assert got is not None
            assert got.edges in oracle
            hits += 1
        else:
            assert got is None
    assert hits > 10  # the sampler does produce matchable graphs


def test_unique_matching_iff_enumeration_finds_one():
    rng = random.Random(12)
    unique_seen = multi_seen = 0
    for _ in range(200):
        n = rng.randrange(2, 9)
        x = random_balanced_bipartite(rng, n)
        oracle = all_perfect_matchings(x)
        got = unique_perfect_matching(x)
        if len(oracle) == 1:
            assert got is not None and got.edges == oracle[0]
            unique_seen += 1
        else:
            assert got is None
            if len(oracle) > 1:
                multi_seen += 1
    assert unique_seen > 5 and multi_seen > 5


def test_alternating_cycle_iff_second_matching():
    rng = random.Random(13)
    with_cycle = without = 0
    for _ in range(300):
        n = rng.randrange(2, 9)
        x = random_balanced_bipartite(rng, n)
        oracle = all_perfect_matchings(x)
        if not oracle:
            continue
        for pm in oracle[:3]:  # any perfect matching works as the reference
            m = Matching(pm)
            assert has_alternating_cycle(x, m) == (len(oracle) > 1)
        if len(oracle) > 1:
            with_cycle += 1
        else:
            without += 1
    assert with_cycle > 20 and without > 20


def test_alternating_cycle_needs_perfect_matching():
    with pytest.raises(NotPerfect):
        has_alternating_cycle(p4(), Matching([(0, 1)]))


def test_ensure_class_h_accepts_and_certifies():
    m = ensure_class_h(c6_two_pendants())
    assert m.edges == frozenset({(0, 6), (3, 7), (1, 2), (4, 5)})


def test_ensure_class_h_rejections():
    c4 = MixedGraph(4, digons=[(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotInClassH):
        ensure_class_h(c4)  # two perfect matchings
    c3 = MixedGraph(3, digons=[(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotInClassH):
        ensure_class_h(c3)  # odd cycle
    with pytest.raises(NotInClassH):
        ensure_class_h(MixedGraph(3))  # odd order has no perfect matching


def test_matched_pair_removal_stays_in_class():
    # dropping both endpoints of a matching edge keeps the rest in the class,
    # with the restricted matching
    for doc in h_corpus(30, sizes=(6, 8, 10), unicyclic=False, seed0=100):
        x = doc.to_graph()
        m = ensure_class_h(x)
        for u, v in sorted(m.edges)[:3]:
            sub = remove_vertices(x, [u, v])
            rest = ensure_class_h(sub.graph)
            back = {(sub.kept[a], sub.kept[b]) for a, b in rest.edges}
            assert back == {e for e in m.edges if u not in e and v not in e}


def test_co_augmenting_path_removal_stays_in_class():
    for doc in h_corpus(30, sizes=(8, 10, 12), unicyclic=True, seed0=200):
        x = doc.to_graph()
        m = ensure_class_h(x)
        found = None
        for i in range(x.n):
            for j in range(i + 1, x.n):
                paths = co_augmenting_paths(x, m, i, j)
                if paths and len(paths[0]) >= 4:
                    found = paths[0]
                    break
            if found:
                break
        if found is None:
            continue
        sub = remove_vertices(x, found)
        if sub.graph.n:
            assert is_unique_perfect_matching(sub.graph)


def test_is_co_augmenting_shapes():
    m = Matching([(0, 1), (2, 3)])
    assert is_co_augmenting((0, 1), m)
    assert is_co_augmenting((1, 0), m)
    assert is_co_augmenting((0, 1, 2, 3), m)  # matched, bridge, matched
    assert is_co_augmenting((1, 2, 3), m) is False  # starts unmatched
    assert is_co_augmenting((0, 1, 2), m) is False  # even edge count
    assert is_co_augmenting((0,), m) is False
    assert is_co_augmenting((1, 2), m) is False


def test_co_augmenting_paths_against_filtered_enumeration():
    cases = []
    for doc in h_corpus(25, sizes=(6, 8, 10), unicyclic=True, seed0=300) + h_corpus(
        15, sizes=(6, 8), unicyclic=False, seed0=400
    ):
        x = doc.to_graph()
        cases.append((x, ensure_class_h(x)))
    # beyond class H: random mixed graphs, many of them not bipartite, each with
    # a random perfect matching of 0..n-1 whose pairs need not be edges
    rng = random.Random(21)
    odd_cycles = loose_pairs = 0
    for _ in range(60):
        n = rng.choice((2, 4, 6, 8))
        x = random_mixed_graph(rng, n)
        order = rng.sample(range(n), n)
        m = Matching(zip(order[::2], order[1::2]))
        cases.append((x, m))
        try:
            bipartition(x)
        except NotBipartite:
            odd_cycles += 1
        loose_pairs += any(not x.has_edge(u, v) for u, v in m.edges)
    assert odd_cycles >= 10 and loose_pairs >= 10
    for x, m in cases:
        pairs = paths_by_pair(x, m)
        for i in range(x.n):
            for j in range(x.n):
                if i != j:
                    assert co_augmenting_paths(x, m, i, j) == coaug_paths_oracle(
                        x, m, i, j
                    )
                    # one search per start vertex, grouped by end, gives each pair's list
                    assert pairs.get((i, j), []) == co_augmenting_paths(x, m, i, j)


def test_co_augmenting_paths_matched_pair_is_single_edge():
    x = k2_digon()
    m = ensure_class_h(x)
    assert co_augmenting_paths(x, m, 0, 1) == [(0, 1)]
    assert co_augmenting_paths(x, m, 1, 0) == [(1, 0)]


def test_co_augmenting_paths_deep_path():
    x = deep_path()
    m = ensure_class_h(x)
    assert co_augmenting_paths(x, m, 0, x.n - 1) == [tuple(range(x.n))]


def test_co_augmenting_paths_argument_errors():
    x = p4()
    m = ensure_class_h(x)
    with pytest.raises(SameVertex):
        co_augmenting_paths(x, m, 2, 2)
    with pytest.raises(NotPerfect):
        co_augmenting_paths(x, Matching([(0, 1)]), 0, 3)
    # as many matched vertices as the graph has, but 5 is not one of them
    k2, foreign = MixedGraph(2, digons=[(0, 1)]), Matching([(0, 5)])
    assert not foreign.covers(2)
    with pytest.raises(NotPerfect):
        co_augmenting_paths(k2, foreign, 1, 0)
    with pytest.raises(NotPerfect):
        co_augmenting_paths(k2, foreign, 1)
