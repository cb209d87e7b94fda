import pytest

import hermix.unicyclic as unicyclic
from hermix import (
    CyclotomicContext,
    DiagonalSigns,
    DimensionTooLarge,
    Disconnected,
    ExactHermitianMatrix,
    GenerationFailed,
    InternalCheckFailed,
    InvalidParameter,
    MixedGraph,
    NoDoublePath,
    NotAWalk,
    NotInClassH,
    NotSimilar,
    NotTwoPegs,
    NotUnicyclic,
    Obstruction,
    OTHER,
    SignedPower,
    Similar,
    check_her,
    classify_entry,
    classify_gamma_similarity,
    co_augmenting_paths,
    ensure_class_h,
    exhaustive_diag_similarity,
    f_walk,
    generate_instance,
    h_alpha_matrix,
    inverse_bipartite_upm,
    OddCycleParity,
    peg_info,
    sign_assignment,
    two_peg_entry,
)

from conftest import (
    c4_four_pendants,
    c6_four_pendants,
    c6_two_pendants,
    c8_two_adjacent_pendants,
    cycle_with_pendants,
    h_corpus,
    p4,
    pegs_oracle,
    pentagon_tail,
    two_peg_instance,
)


def test_peg_info_desk_graphs():
    x = c6_two_pendants()
    info = peg_info(x)
    assert info.pegs == ((0, 6), (3, 7))
    assert info.cycle_vertices == (0, 1, 2, 3, 4, 5)
    assert info.unmatched_cycle_edge_count == 4

    y = c4_four_pendants()
    info = peg_info(y)
    assert len(info.pegs) == 4
    assert info.unmatched_cycle_edge_count == 4
    assert info.cycle_vertices == (0, 1, 2, 3)

    z = c6_four_pendants()
    info = peg_info(z)
    assert len(info.pegs) == 4
    assert info.unmatched_cycle_edge_count == 5

    w = c8_two_adjacent_pendants()
    info = peg_info(w)
    assert info.pegs == ((0, 8), (1, 9))
    assert info.cycle_vertices == (0, 1, 2, 3, 4, 5, 6, 7)
    assert info.unmatched_cycle_edge_count == 5

    with pytest.raises(NotInClassH):
        peg_info(MixedGraph(4, digons=[(0, 1), (1, 2), (2, 3), (0, 3)]))  # two matchings


def test_peg_info_matches_the_matching_edge_scan():
    # pegs read at the cycle's own vertices, against a scan of every matching edge
    graphs = [c6_two_pendants(), c4_four_pendants(), c6_four_pendants(), c8_two_adjacent_pendants()]
    for n in (6, 8, 10, 12, 16, 20, 32, 64):
        for seed in range(1, 60):
            try:
                graphs.append(generate_instance(seed, n, True).to_graph())
            except GenerationFailed:
                continue
    for x in graphs:
        assert peg_info(x).pegs == pegs_oracle(x, ensure_class_h(x))
    assert len(graphs) > 400


def test_f_walk_signs_flip_on_unmatched_edges():
    x = p4()
    m = ensure_class_h(x)
    assert f_walk(x, m, (0, 1, 2, 3)) == [1, 1, -1, -1]
    assert f_walk(x, m, (3, 2, 1, 0)) == [1, 1, -1, -1]
    assert f_walk(x, m, (1,)) == [1]
    with pytest.raises(NotAWalk):
        f_walk(x, m, ())
    with pytest.raises(NotAWalk):
        f_walk(x, m, (0, 2))


def test_sign_assignment_tree():
    x = p4()
    m = ensure_class_h(x)
    d = sign_assignment(x, m, 0)
    assert d == DiagonalSigns((1, 1, -1, -1), 0)
    d2 = sign_assignment(x, m, 2)
    assert d2.signs == (-1, -1, 1, 1)


def test_sign_assignment_basepoints_differ_by_global_sign():
    for doc in h_corpus(10, sizes=(8, 10), unicyclic=False, seed0=1100):
        g = doc.to_graph().underlying()
        m = ensure_class_h(g)
        base = sign_assignment(g, m, 0)
        for b in range(1, g.n, 3):
            other = sign_assignment(g, m, b)
            rel = base.signs[b]
            assert all(
                other.signs[v] == rel * base.signs[v] for v in range(g.n)
            )


def test_sign_assignment_odd_parity_raises():
    g = c6_four_pendants()
    m = ensure_class_h(g)
    # the message names the first conflicting edge in breadth-first order
    for basepoint, v, w in ((0, 4, 3), (3, 5, 0), (5, 3, 2)):
        msg = rf"^edge \({v}, {w}\) closes a cycle with odd unmatched-edge count$"
        with pytest.raises(OddCycleParity, match=msg):
            sign_assignment(g, m, basepoint)


def test_sign_assignment_requires_connectivity():
    g = MixedGraph(4, digons=[(0, 1), (2, 3)])
    m = ensure_class_h(g)
    with pytest.raises(Disconnected):
        sign_assignment(g, m, 0)


def test_check_her_on_trees_and_even_unicyclic():
    docs = h_corpus(15, sizes=(6, 8, 10), unicyclic=False, seed0=1200)
    even_unicyclic = []
    for doc in h_corpus(40, sizes=(8, 10, 12), unicyclic=True, seed0=1300):
        g = doc.to_graph().underlying()
        if peg_info(g).unmatched_cycle_edge_count % 2 == 0:
            even_unicyclic.append(doc)
    assert len(even_unicyclic) >= 5
    for doc in docs + even_unicyclic[:15]:
        g = doc.to_graph().underlying()
        m = ensure_class_h(g)
        assert check_her(g, m, 0)
        assert check_her(g, m, g.n - 1)


def test_two_peg_entry_branch_values():
    ctx = CyclotomicContext(3)
    gamma = ctx.root_power(1)

    plain = c6_two_pendants()
    assert two_peg_entry(plain, ctx, 6, 7) == 2

    forward = c6_two_pendants(cycle_arcs=((0, 1),))
    v = two_peg_entry(forward, ctx, 6, 7)
    assert v == -(gamma * gamma)
    assert classify_entry(v) == SignedPower(-1, 2)

    backward = c6_two_pendants(cycle_arcs=((1, 0),))
    w = two_peg_entry(backward, ctx, 6, 7)
    assert w == -gamma
    assert classify_entry(w) == SignedPower(-1, 1)

    even_cycle = c8_two_adjacent_pendants()
    assert two_peg_entry(even_cycle, ctx, 8, 9).is_zero()

    # even half-length with a twisted cycle: the bracket is 1 - gamma^k, which
    # is not 0, +-1, or a signed power, so the entry classifies as Other
    twisted = c8_two_adjacent_pendants(cycle_arcs=((2, 3),))
    t = two_peg_entry(twisted, ctx, 8, 9)
    assert classify_entry(t) is OTHER


def test_two_peg_entry_equals_path_sum():
    for k, x in enumerate(
        [two_peg_instance(m, r, seed, chain) for m in (2, 3) for r in (1, 3) for seed in (0, 1) for chain in (False, True)]
    ):
        ctx = CyclotomicContext(3 if k % 2 else 10)
        m = ensure_class_h(x)
        inv = inverse_bipartite_upm(x, ctx)
        double_pairs = 0
        for i in range(x.n):
            for j in range(i + 1, x.n):
                paths = co_augmenting_paths(x, m, i, j)
                if len(paths) != 2:
                    continue
                double_pairs += 1
                assert two_peg_entry(x, ctx, i, j) == inv.entry(i, j)
                assert two_peg_entry(x, ctx, i, j, paths[0]) == inv.entry(i, j)
                assert two_peg_entry(x, ctx, i, j, paths[1]) == inv.entry(i, j)
        assert double_pairs >= 1


def test_two_peg_entry_argument_errors():
    ctx = CyclotomicContext(3)
    with pytest.raises(NotTwoPegs):
        two_peg_entry(c4_four_pendants(), ctx, 4, 6)
    x = c6_two_pendants()
    with pytest.raises(NoDoublePath):
        two_peg_entry(x, ctx, 0, 6)  # single matching edge, one path
    with pytest.raises(InvalidParameter):
        two_peg_entry(x, ctx, 6, 7, path=(7, 3, 4, 5, 0, 6))  # reversed
    with pytest.raises(NotUnicyclic):
        two_peg_entry(p4(), ctx, 0, 3)


def test_exhaustive_search_small_cases():
    ctx = CyclotomicContext(3)
    found = exhaustive_diag_similarity(
        inverse_bipartite_upm(c4_four_pendants(), ctx)
    )
    assert found is not None
    assert found.signs[0] == 1
    # an entry equal to 2 classifies as Other: no diagonal can exist
    assert (
        exhaustive_diag_similarity(
            inverse_bipartite_upm(c6_two_pendants(), ctx)
        )
        is None
    )


def test_exhaustive_search_dimension_cap():
    ctx = CyclotomicContext(3)
    big = h_alpha_matrix(MixedGraph(17), ctx)
    with pytest.raises(DimensionTooLarge):
        exhaustive_diag_similarity(big)


def test_classification_desk_outcomes():
    two_pegs = classify_gamma_similarity(c6_two_pendants())
    assert isinstance(two_pegs, NotSimilar)
    assert two_pegs.reason is Obstruction.TWO_PEGS

    odd = classify_gamma_similarity(c6_four_pendants())
    assert isinstance(odd, NotSimilar)
    assert odd.reason is Obstruction.ODD_PARITY

    sim = classify_gamma_similarity(c4_four_pendants())
    assert isinstance(sim, Similar)
    ctx = CyclotomicContext(3)
    assert sim.conjugated == h_alpha_matrix(sim.graph, ctx)
    assert sim.signs.signs[0] == 1
    inv = inverse_bipartite_upm(c4_four_pendants(), ctx)
    assert inv.conjugated_by_signs(sim.signs.signs) == sim.conjugated


def test_classification_similar_with_arcs():
    # orient one unmatched cycle edge; parity stays even, so still Similar,
    # and the certificate graph picks up arcs
    x = cycle_with_pendants(2, (0, 1, 2, 3), cycle_arcs=((0, 1), (2, 3)))
    verdict = classify_gamma_similarity(x)
    assert isinstance(verdict, Similar)
    assert verdict.graph.arcs
    ctx = CyclotomicContext(3)
    assert verdict.conjugated == h_alpha_matrix(verdict.graph, ctx)


def test_two_peg_similar_when_pegs_adjacent():
    # pendants at adjacent cycle vertices leave the short cycle route with no
    # interior matched edge, so only one route constrains the peg pair and the
    # usual two-peg obstruction collapses
    x = c8_two_adjacent_pendants()
    verdict = classify_gamma_similarity(x)
    assert isinstance(verdict, Similar)
    ctx = CyclotomicContext(3)
    assert verdict.conjugated == h_alpha_matrix(verdict.graph, ctx)
    assert not verdict.graph.arcs  # all-digon input conjugates to a plain graph
    assert exhaustive_diag_similarity(
        inverse_bipartite_upm(x, ctx)
    ) is not None

    # orienting a cycle edge moves the double-path bracket off the adjacency
    # alphabet, and the obstruction is back
    twisted = c8_two_adjacent_pendants(cycle_arcs=((2, 3),))
    refused = classify_gamma_similarity(twisted)
    assert isinstance(refused, NotSimilar)
    assert refused.reason is Obstruction.TWO_PEGS


def test_two_peg_similarity_needs_adjacent_attachments():
    # the corpus and counts the README's "Classification semantics" states
    similar, adjacent = [], []
    for n in (6, 8, 10, 12, 16, 20, 32, 64):
        for seed in range(1, 60):
            try:
                x = generate_instance(seed, n, True).to_graph()
            except GenerationFailed:
                continue
            info = peg_info(x)
            if len(info.pegs) != 2:
                continue
            cyc = info.cycle_vertices
            p, q = (cyc.index(u if u in cyc else v) for u, v in info.pegs)
            adjacent.append((p - q) % len(cyc) in (1, len(cyc) - 1))
            similar.append(isinstance(classify_gamma_similarity(x), Similar))
    assert all(a for a, s in zip(adjacent, similar) if s)
    assert any(a and not s for a, s in zip(adjacent, similar))
    assert (len(similar), sum(similar), sum(adjacent)) == (391, 73, 318)


def test_similarity_certificate_is_verified(monkeypatch):
    x = c4_four_pendants()  # Similar, with D = [1, -1, 1, -1, ...]
    with monkeypatch.context() as patch:
        # a conjugation that does nothing leaves entries -gamma^k behind
        patch.setattr(ExactHermitianMatrix, "conjugated_by_signs", lambda m, s: m)
        with pytest.raises(InternalCheckFailed, match="not an adjacency value"):
            classify_gamma_similarity(x)

    def inverse_with_diagonal(g, ctx, m):
        rows = [dict(row) for row in inverse_bipartite_upm(g, ctx).rows]
        rows[0][0] = ctx.one()
        return ExactHermitianMatrix(ctx, rows)

    # the classification builds its inverse from the matching it certified
    monkeypatch.setattr(unicyclic, "_inverse_upm", inverse_with_diagonal)
    with pytest.raises(InternalCheckFailed):
        classify_gamma_similarity(x)


def test_classify_reads_only_nonzero_entries(monkeypatch):
    # the order-3 inverse has 820 nonzeros of 25,600 entries, none on the
    # diagonal, and a handful of distinct values: each is classified once
    x = generate_instance(1, 160, True).to_graph()
    inv = inverse_bipartite_upm(x, CyclotomicContext(3))
    distinct = {(a.nums, a.den) for row in inv.rows for a in row.values()}
    calls = []

    def counted(a):
        calls.append(a)
        return classify_entry(a)

    monkeypatch.setattr(unicyclic, "classify_entry", counted)
    classify_gamma_similarity(x)
    assert 0 < len(calls) <= len(distinct) < 20


def test_classification_ignores_the_inverse_storage_order():
    # the sign constraints and the balance search read the inverse's rows in
    # storage order; stored in reverse, every verdict and certificate is the same
    ctx = CyclotomicContext(3)
    kinds = set()
    for doc in h_corpus(40, sizes=(6, 8, 10, 12, 16, 20), unicyclic=True, seed0=1):
        x = doc.to_graph()
        info = unicyclic._peg_info(x, ensure_class_h(x))
        hinv = inverse_bipartite_upm(x, ctx)
        flipped = ExactHermitianMatrix(ctx, [dict(reversed(row.items())) for row in hinv.rows])
        assert [list(row) for row in flipped.rows] != [list(row) for row in hinv.rows]
        for basepoint in (0, x.n - 1):
            verdict = unicyclic._classify(x, info, hinv, basepoint)
            assert unicyclic._classify(x, info, flipped, basepoint) == verdict
            kinds.add(type(verdict))
    assert kinds == {Similar, NotSimilar}


def test_classification_rejects_wrong_shapes():
    with pytest.raises(NotUnicyclic):
        classify_gamma_similarity(p4())
    with pytest.raises(NotInClassH):
        classify_gamma_similarity(pentagon_tail())


def test_classification_agrees_with_exhaustive_sample():
    ctx = CyclotomicContext(3)
    outcomes = {Obstruction.TWO_PEGS: 0, Obstruction.ODD_PARITY: 0, "similar": 0}
    pool = [
        two_peg_instance(2, 1, 7),
        two_peg_instance(3, 3, 8),
        cycle_with_pendants(3, (0, 1, 2, 3)),
        cycle_with_pendants(2, (0, 1, 2, 3)),
        cycle_with_pendants(3, tuple(range(6))),
        cycle_with_pendants(4, tuple(range(8))),
    ] + [d.to_graph() for d in h_corpus(12, sizes=(8, 10), unicyclic=True, seed0=1400)]
    for x in pool:
        verdict = classify_gamma_similarity(x)
        found = exhaustive_diag_similarity(inverse_bipartite_upm(x, ctx))
        if isinstance(verdict, Similar):
            assert found is not None
            outcomes["similar"] += 1
        else:
            assert found is None
            outcomes[verdict.reason] += 1
    assert all(v > 0 for v in outcomes.values())
