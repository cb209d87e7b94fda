import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermix import (
    BadVertexId,
    ContextMismatch,
    CyclotomicContext,
    CyclotomicNumber,
    DimensionTooLarge,
    ExactHermitianMatrix,
    GenerationFailed,
    MixedGraph,
    NotAWalk,
    NumericallySingular,
    det_leibniz,
    det_via_elementary,
    enumerate_paths,
    enumerate_spanning_elementary,
    generate_instance,
    h_alpha_matrix,
    inverse_bipartite_upm,
    numeric_inverse,
    remove_vertices,
    walk_value,
)
from hermix import spectral
from hermix.graph import simple_paths

from conftest import (
    deep_path,
    dense,
    h_corpus,
    k2_arc,
    k2_digon,
    lowest_vertex_elementary_oracle,
    p4,
    pentagon_tail,
    random_mixed_graph,
    spanning_elementary_oracle,
    sparse,
)


def test_matrix_must_be_hermitian():
    ctx = CyclotomicContext(4)
    zero, a = ctx.zero(), ctx.root_power(1)
    # one non-real value at both (0, 1) and (1, 0), and one on the diagonal
    with pytest.raises(ValueError, match=r"not hermitian at \(0, 1\)$"):
        ExactHermitianMatrix(ctx, [{1: a}, {0: a}])
    with pytest.raises(ValueError, match=r"not hermitian at \(0, 0\)$"):
        ExactHermitianMatrix(ctx, [{0: a}])
    # rational entries are their own conjugates, and asymmetry is still caught
    for rational in ([[0, 1], [2, 0]], [[0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            ExactHermitianMatrix(ctx, sparse([[ctx.from_rational(q) for q in row] for row in rational]))
    # a stored (i, j) with nothing stored at (j, i), above or below the diagonal
    for rows in ([{2: a}, {}, {}], [{}, {}, {0: a}]):
        with pytest.raises(ValueError, match=r"not hermitian at \(0, 2\)$"):
            ExactHermitianMatrix(ctx, rows)
    ExactHermitianMatrix(ctx, [{1: a}, {0: a.conj()}])
    # a column outside the matrix, even one holding a zero; a bool or a float
    # key equals an int column and is outside too, also beside an equal int
    # key in another row
    one = ctx.one()
    for bad in (
        [{2: a}, {}], [{}, {-1: a}], [{1: a}, {0: a.conj(), 5: zero}],
        [{1.0: one}, {0: one}], [{True: one}, {0: one}], [{0: one, 1: one}, {0: one, True: one}],
    ):
        with pytest.raises(ValueError, match=r"column outside 0\.\.1$"):
            ExactHermitianMatrix(ctx, bad)


def test_matrix_drops_explicit_zeros():
    ctx = CyclotomicContext(3)
    h = h_alpha_matrix(p4(), ctx)
    full = ExactHermitianMatrix(ctx, sparse(dense(h)))
    assert full == h and full.rows == h.rows
    # an explicit zero needs no partner across the diagonal
    rows = [dict(row) for row in h.rows]
    rows[0][3] = ctx.zero()
    assert ExactHermitianMatrix(ctx, rows) == h
    assert ExactHermitianMatrix(ctx, [{0: ctx.zero()}]) == ExactHermitianMatrix(ctx, [{}])


def test_matrix_rejects_foreign_entries():
    ctx = CyclotomicContext(4)
    alien = CyclotomicContext(3).one()
    with pytest.raises(ContextMismatch):
        ExactHermitianMatrix(ctx, [{0: alien}])
    # deep inside an otherwise hermitian matrix, with a zero the constructor
    # would otherwise drop
    h = sparse(dense(h_alpha_matrix(p4(), ctx)))
    h[3][3] = CyclotomicContext(3).zero()
    with pytest.raises(ContextMismatch):
        ExactHermitianMatrix(ctx, h)
    # a second context of the same order holds its own objects: an entry from it
    # could be a second object of a value the matrix holds
    with pytest.raises(ContextMismatch):
        ExactHermitianMatrix(ctx, [{0: CyclotomicContext(4).one()}])


def first_pairwise_failure(rows):
    """The constructor's former rule on dense rows, pair by pair over i <= j
    in row-major order: entry (i, j) must equal conj of entry (j, i). None
    when it holds."""
    dim = len(rows)
    return next(
        ((i, j) for i in range(dim) for j in range(i, dim) if rows[i][j] != rows[j][i].conj()),
        None,
    )


def test_matrix_check_names_first_fault_in_row_major_order():
    ctx = CyclotomicContext(3)
    two = ctx.from_rational(2)
    h = sparse(dense(h_alpha_matrix(p4(), ctx)))
    h[3][1] = two  # only the lower triangle is wrong: reported as (1, 3)
    with pytest.raises(ValueError, match=r"not hermitian at \(1, 3\)$"):
        ExactHermitianMatrix(ctx, h)
    h[2][0] = two  # (0, 2) comes before (1, 3)
    with pytest.raises(ValueError, match=r"not hermitian at \(0, 2\)$"):
        ExactHermitianMatrix(ctx, h)
    h[1][1] = ctx.root_power(1)  # (0, 2) still comes first
    with pytest.raises(ValueError, match=r"not hermitian at \(0, 2\)$"):
        ExactHermitianMatrix(ctx, h)


def test_matrix_check_compares_every_pair_of_a_shared_entry():
    # one object at (0, 1) and (0, 2): its mirror is right at (1, 0) and
    # wrong at (2, 0), so checking the object once is not enough
    ctx = CyclotomicContext(3)
    a = ctx.root_power(1)
    rows = [{1: a, 2: a}, {0: a.conj()}, {0: a}]
    with pytest.raises(ValueError, match=r"not hermitian at \(0, 2\)$"):
        ExactHermitianMatrix(ctx, rows)
    rows[2][0] = a.conj()
    assert ExactHermitianMatrix(ctx, rows).entry(2, 0) == ctx.root_power(2)


@given(st.data())
def test_matrix_check_matches_pairwise_rule(data):
    ctx = CyclotomicContext(data.draw(st.sampled_from((2, 3, 4))))
    coeffs = st.lists(st.integers(-2, 2), min_size=ctx.degree, max_size=ctx.degree)
    # a few shared values and their conjugates, zero among them at times;
    # rational entries are their own conjugates
    base = [CyclotomicNumber(ctx, c) for c in data.draw(st.lists(coeffs, min_size=1, max_size=3))]
    pool = base + [a.conj() for a in base]
    partner = pool[len(base):] + base  # partner[k] is the conjugate of pool[k]
    pick = st.integers(0, len(pool) - 1)
    dim = data.draw(st.integers(1, 4))
    # start hermitian: a real diagonal and conjugate partners across it ...
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            k = data.draw(pick)
            rows[i][j], rows[j][i] = (pool[k], partner[k]) if j > i else (pool[k] + partner[k],) * 2
    # ... then overwrite up to two entries with pool values
    place = st.integers(0, dim - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        rows[data.draw(place)][data.draw(place)] = pool[data.draw(pick)]
    fault = first_pairwise_failure(rows)
    if fault is None:
        m = ExactHermitianMatrix(ctx, sparse(rows))
        assert dense(m) == rows
        # one object per value
        held = [a for row in m.rows for a in row.values()]
        assert len({id(a) for a in held}) == len({(a.nums, a.den) for a in held})
    else:
        with pytest.raises(ValueError, match=rf"not hermitian at \({fault[0]}, {fault[1]}\)$"):
            ExactHermitianMatrix(ctx, sparse(rows))


def test_h_alpha_matrix_entries():
    ctx = CyclotomicContext(4)
    h = h_alpha_matrix(k2_arc(), ctx)
    assert abs(h.entry(0, 1).to_complex() - 1j) < 1e-12
    assert abs(h.entry(1, 0).to_complex() + 1j) < 1e-12
    assert h.entry(0, 0).is_zero()
    hd = h_alpha_matrix(k2_digon(), ctx)
    assert hd.entry(0, 1) == 1 and hd.entry(1, 0) == 1


def test_conjugation_by_signs():
    ctx = CyclotomicContext(3)
    h = h_alpha_matrix(p4(), ctx)
    flipped = h.conjugated_by_signs((1, -1, 1, -1))
    assert flipped.entry(0, 1) == -h.entry(0, 1)
    assert flipped.entry(0, 2) == h.entry(0, 2)
    with pytest.raises(ValueError):
        h.conjugated_by_signs((1, 2, 1, 1))
    # entry (i, j) is d_i * d_j * M_ij, on adjacency matrices and inverses
    rng = random.Random(24)
    docs = h_corpus(6, sizes=(6, 10, 16), unicyclic=True, seed0=1300) + h_corpus(
        6, sizes=(6, 10, 16), unicyclic=False, seed0=1320
    )
    for doc in docs:
        x = doc.to_graph()
        for order in (3, 6):
            ctx = CyclotomicContext(order)
            for m in (h_alpha_matrix(x, ctx), inverse_bipartite_upm(x, ctx)):
                d = [rng.choice((1, -1)) for _ in range(x.n)]
                want = [[d[i] * d[j] * m.entry(i, j) for j in range(x.n)] for i in range(x.n)]
                assert dense(m.conjugated_by_signs(d)) == want


def test_conjugation_by_signs_gives_the_constructor_one_object_per_value(monkeypatch):
    # an inverse holds both gamma and -gamma; each negation is the object already
    # held for its value, so the constructor has no object to replace
    rng, given, opposite = random.Random(40), [], 0
    build = ExactHermitianMatrix.__init__

    def built(self, ctx, rows):
        rows = tuple(rows)
        given.append(rows)
        build(self, ctx, rows)

    for seed in range(10):
        hinv = inverse_bipartite_upm(generate_instance(seed, 40, True).to_graph(), CyclotomicContext(3))
        held = {(a.nums, a.den) for row in hinv.rows for a in row.values()}
        opposite += sum(((-a).nums, (-a).den) in held for row in hinv.rows for a in row.values())
        given.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ExactHermitianMatrix, "__init__", built)
            hinv.conjugated_by_signs([rng.choice((1, -1)) for _ in range(hinv.dim)])
        (rows,) = given
        values = [a for row in rows for a in row.values()]
        assert len({id(a) for a in values}) == len({(a.nums, a.den) for a in values})
        assert not any(a.is_zero() for a in values)
    assert opposite > 0


def test_walk_value_products_and_errors():
    ctx = CyclotomicContext(5)
    x = pentagon_tail()
    assert walk_value(x, ctx, (1, 2)) == ctx.root_power(1)
    assert walk_value(x, ctx, (2, 1)) == ctx.root_power(-1)
    assert walk_value(x, ctx, (0, 1, 2)) == ctx.root_power(1)
    assert walk_value(x, ctx, (3,)) == 1
    with pytest.raises(NotAWalk):
        walk_value(x, ctx, ())
    with pytest.raises(NotAWalk):
        walk_value(x, ctx, (0, 2))
    # reversal conjugates
    w = walk_value(x, ctx, (0, 1, 2, 3))
    assert walk_value(x, ctx, (3, 2, 1, 0)) == w.conj()


def test_spanning_elementary_against_subset_scan():
    rng = random.Random(21)
    nonempty = 0
    for _ in range(60):
        n = rng.randrange(0, 7)
        x = random_mixed_graph(rng, n, p=0.5)
        got = set(enumerate_spanning_elementary(x))
        want = spanning_elementary_oracle(x)
        assert got == want
        assert len(got) == len(enumerate_spanning_elementary(x))  # no duplicates
        if got:
            nonempty += 1
    assert nonempty > 15


def assert_same_subgraphs(x, drop):
    got = enumerate_spanning_elementary(x, drop)
    want = lowest_vertex_elementary_oracle(x, drop)
    assert sorted(got) == sorted(want)  # the same parts, and no duplicates


def test_forced_edge_search_against_lowest_vertex_oracle():
    # sparse to dense, bipartite or not, at drop = () and at every i..j path
    rng = random.Random(25)
    nonempty = 0
    for _ in range(400):
        x = random_mixed_graph(rng, rng.randrange(0, 10), p=rng.choice((0.2, 0.4, 0.6)))
        drops = [()]
        if x.n > 1:
            drops += enumerate_paths(x, *rng.sample(range(x.n), 2))
        for drop in drops:
            assert_same_subgraphs(x, drop)
        nonempty += bool(enumerate_spanning_elementary(x))
    assert nonempty > 100


def test_forced_edge_search_on_every_path_minor_of_class_h():
    # the documents check serves: generated trees and unicyclic graphs
    minors = 0
    for n in (8, 10, 12, 16, 20):
        for seed in range(1, 11):
            for unicyclic in (False, True):
                try:
                    x = generate_instance(seed, n, unicyclic).to_graph()
                except GenerationFailed:
                    continue
                pairs = combinations(range(n), 2)
                for path_set in {frozenset(p) for i, j in pairs for p in enumerate_paths(x, i, j)}:
                    assert_same_subgraphs(x, tuple(sorted(path_set)))
                    minors += 1
    assert minors > 5000


def test_class_h_determinant_takes_forced_edges(monkeypatch):
    # a tree is all forced edges; a unicyclic graph may leave its bare cycle,
    # one search. The lowest-vertex search took seconds on some of these.
    searches = []

    def counted(adj, start, target, blocked):
        searches.append(start)
        return simple_paths(adj, start, target, blocked)

    monkeypatch.setattr(spectral, "simple_paths", counted)
    ctx = CyclotomicContext(3)
    cases = [(n, seed, False, 0) for n in (40, 80, 160, 320) for seed in (1, 2)]
    cases += [(160, seed, True, 1) for seed in range(1, 6)] + [(320, 1, True, 1), (320, 2, True, 1)]
    for n, seed, unicyclic, most in cases:
        searches.clear()
        x = generate_instance(seed, n, unicyclic).to_graph()
        assert det_via_elementary(x, ctx) == (-1) ** (n // 2)
        assert len(searches) <= most


def test_spanning_elementary_edge_cases():
    assert enumerate_spanning_elementary(MixedGraph(0)) == [()]
    isolated = enumerate_spanning_elementary(MixedGraph(3, digons=[(0, 1)]))
    assert isolated == []


def test_spanning_elementary_deep_path():
    x = deep_path()
    matching = tuple((k, k + 1) for k in range(0, x.n, 2))
    assert enumerate_spanning_elementary(x) == [matching]


def test_hexagon_has_three_spanning_elementary():
    c6 = MixedGraph(6, digons=[(i, (i + 1) % 6) for i in range(6)])
    subs = enumerate_spanning_elementary(c6)
    assert sorted(subs) == [
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1, 2, 3, 4, 5),),
        ((0, 5), (1, 2), (3, 4)),
    ]


def test_rank_corank_bookkeeping():
    c6 = MixedGraph(6, digons=[(i, (i + 1) % 6) for i in range(6)])
    for s in enumerate_spanning_elementary(c6):
        # the parts partition the vertices, so the rank det_via_elementary
        # sums is the vertex count minus the component count
        assert sorted(v for p in s for v in p) == list(range(6))
        rank = sum(len(p) - 1 for p in s)
        assert rank == 6 - len(s)
        # corank, edge count minus rank, is the cycle count
        edge_count = sum(len(p) if len(p) > 2 else 1 for p in s)
        assert edge_count - rank == sum(len(p) > 2 for p in s)


def test_small_determinants_known_values():
    ctx = CyclotomicContext(4)
    assert det_via_elementary(k2_digon(), ctx) == -1
    assert det_via_elementary(k2_arc(), ctx) == -1  # -alpha*conj(alpha)
    assert det_via_elementary(p4(), ctx) == 1
    c6 = MixedGraph(6, digons=[(i, (i + 1) % 6) for i in range(6)])
    assert det_via_elementary(c6, ctx) == -4
    c4 = MixedGraph(4, digons=[(i, (i + 1) % 4) for i in range(4)])
    assert det_via_elementary(c4, ctx).is_zero()
    assert det_via_elementary(MixedGraph(0), ctx) == 1
    assert det_via_elementary(MixedGraph(1), ctx).is_zero()


def test_determinant_triple_agreement_sample():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randrange(1, 7)
        x = random_mixed_graph(rng, n)
        for order in (2, 3, 10):
            ctx = CyclotomicContext(order)
            exact = det_via_elementary(x, ctx)
            assert exact == det_leibniz(h_alpha_matrix(x, ctx))
            numeric = np.linalg.det(h_alpha_matrix(x, ctx).to_complex())
            assert abs(exact.to_complex() - numeric) < 1e-9


def test_drop_covers_the_minor_the_induced_subgraph_gives():
    # det(H - V(P)) for every i..j path P three ways: covering P in x, the graph
    # remove_vertices builds, and Leibniz on the principal submatrix
    rng = random.Random(24)
    paths = 0
    for _ in range(30):
        x = random_mixed_graph(rng, rng.randrange(2, 10))
        i, j = rng.sample(range(x.n), 2)
        for order in (3, 4):
            ctx = CyclotomicContext(order)
            h = h_alpha_matrix(x, ctx)
            for path in enumerate_paths(x, i, j):
                sub, kept = remove_vertices(x, path)
                new_id = {old: k for k, old in enumerate(kept)}
                minor = ExactHermitianMatrix(
                    ctx, [{new_id[c]: a for c, a in h.rows[r].items() if c in new_id} for r in kept]
                )
                got = det_via_elementary(x, ctx, path)
                assert got == det_via_elementary(sub, ctx) == det_leibniz(minor)
                # the same subgraphs in the same order (so the same canonical sets),
                # in the ids of x
                mapped = [
                    tuple(tuple(kept[v] for v in p) for p in s)
                    for s in enumerate_spanning_elementary(sub)
                ]
                covered = enumerate_spanning_elementary(x, path)
                assert covered == mapped
                paths += 1
    assert paths > 100


def test_drop_ids_are_checked():
    x, ctx = p4(), CyclotomicContext(3)
    assert det_via_elementary(x, ctx, (0, 1)) == -1  # the digon 2-3 is left
    assert det_via_elementary(x, ctx, (1, 2)).is_zero()  # 0 and 3 are isolated
    # a repeated id, out of order, drops the same vertices: the sign comes
    # from the parts, not from how many ids were passed
    assert enumerate_spanning_elementary(x, (1, 0, 1)) == enumerate_spanning_elementary(x, (0, 1))
    assert det_via_elementary(x, ctx, (1, 0, 1)) == -1
    for drop in ((4,), (-1,), (0, True), (1.0,)):
        with pytest.raises(BadVertexId):
            enumerate_spanning_elementary(x, drop)
        with pytest.raises(BadVertexId):
            det_via_elementary(x, ctx, drop)


def test_determinant_ignores_arc_direction_reversal():
    # every cycle term is 2 Re, so reversing all arcs preserves the determinant
    rng = random.Random(23)
    for _ in range(20):
        x = random_mixed_graph(rng, rng.randrange(2, 7))
        rev = MixedGraph(x.n, x.digons, [(v, u) for u, v in x.arcs])
        ctx = CyclotomicContext(10)
        assert det_via_elementary(x, ctx) == det_via_elementary(rev, ctx)


def test_leibniz_dimension_cap():
    p12 = MixedGraph(12, digons=[(i, i + 1) for i in range(11)])
    with pytest.raises(DimensionTooLarge):
        det_leibniz(h_alpha_matrix(p12, CyclotomicContext(2)))  # the cap is 10


def test_numeric_inverse_agrees_and_detects_singularity():
    ctx = CyclotomicContext(3)
    h = h_alpha_matrix(p4(), ctx)
    inv = numeric_inverse(h)
    assert np.abs(h.to_complex() @ inv - np.eye(4)).max() < 1e-9
    c4 = MixedGraph(4, digons=[(i, (i + 1) % 4) for i in range(4)])
    with pytest.raises(NumericallySingular):
        numeric_inverse(h_alpha_matrix(c4, ctx))


def test_matrix_multiply_identity():
    ctx = CyclotomicContext(3)
    h = h_alpha_matrix(pentagon_tail(), ctx)
    eye = ExactHermitianMatrix.identity(ctx, h.dim)
    assert h.multiply(eye) == h.rows
