import random
from collections import Counter

import numpy as np
import pytest

from hermix import (
    CyclotomicContext,
    CyclotomicNumber,
    ExactHermitianMatrix,
    HasArcs,
    InvalidParameter,
    Matching,
    MixedGraph,
    NotInClassH,
    SameVertex,
    SingularMatrix,
    co_augmenting_paths,
    det_via_elementary,
    ensure_class_h,
    generate_instance,
    h_alpha_matrix,
    inverse_bipartite_upm,
    inverse_entry_general,
    numeric_inverse,
    orient_nonmatching,
    walk_value,
)
from hermix import inverse
from hermix.graph import simple_paths
from hermix.inverse import _adjugate_row

from conftest import (
    c8_two_adjacent_pendants,
    coaug_paths_oracle,
    h_corpus,
    k2_arc,
    k2_digon,
    p4,
    pentagon_tail,
    random_mixed_graph,
    sparse,
    triangular_graph,
)


def test_p4_inverse_exact_values():
    ctx = CyclotomicContext(3)
    inv = inverse_bipartite_upm(p4(), ctx)
    one, zero = ctx.one(), ctx.zero()
    expect = [
        [zero, one, zero, -one],
        [one, zero, zero, zero],
        [zero, zero, zero, one],
        [-one, zero, one, zero],
    ]
    assert inv == type(inv)(ctx, sparse(expect))


def test_k2_inverses_are_self():
    for x in (k2_digon(), k2_arc()):
        ctx = CyclotomicContext(6)
        h = h_alpha_matrix(x, ctx)
        inv = inverse_bipartite_upm(x, ctx)
        assert inv == h  # [[0, w], [conj(w), 0]] squares to the identity


def test_inverse_identity_and_zero_diagonal():
    for doc in h_corpus(25, sizes=(4, 6, 8, 10), unicyclic=False, seed0=500) + h_corpus(
        25, sizes=(6, 8, 10), unicyclic=True, seed0=600
    ):
        x = doc.to_graph()
        ctx = CyclotomicContext(doc.alpha_order)
        h = h_alpha_matrix(x, ctx)
        inv = inverse_bipartite_upm(x, ctx)
        product = inv.multiply(h)
        for i in range(x.n):
            assert inv.entry(i, i).is_zero()
            for j in range(x.n):
                assert product[i].get(j, 0) == (1 if i == j else 0)


def test_recurrence_matches_path_sum_oracle():
    # the paper's entry: the signed walk values of the co-augmenting paths,
    # listed here by brute force
    graphs = [triangular_graph(k, seed=k) for k in range(1, 8)]
    graphs += [
        doc.to_graph()
        for doc in h_corpus(4, sizes=(10, 16, 20), unicyclic=True, seed0=700)
        + h_corpus(3, sizes=(8, 14, 20), unicyclic=False, seed0=720)
    ]
    for x in graphs:
        m = ensure_class_h(x)
        oracle = {
            (i, j): coaug_paths_oracle(x, m, i, j)
            for i in range(x.n)
            for j in range(x.n)
            if i != j
        }
        # degree 1 (orders 1, 2), phi(n) < n - 1 (4, 6, 8, 12), and composite orders
        for order in (1, 2, 3, 4, 5, 6, 8, 12):
            ctx = CyclotomicContext(order)
            inv = inverse_bipartite_upm(x, ctx)
            for i in range(x.n):
                assert inv.entry(i, i).is_zero()
            for (i, j), paths in oracle.items():
                expect = ctx.zero()
                for path in paths:
                    expect = expect + walk_value(x, ctx, path) * (-1) ** ((len(path) - 2) // 2)
                assert inv.entry(i, j) == expect


def test_triangular_inverse_at_n80():
    # 2^41 - 2 co-augmenting paths; the recurrence lists none of them
    x = triangular_graph(40, seed=80)
    assert x.n == 80 and x.edge_count == 820
    for order in (3, 4):
        ctx = CyclotomicContext(order)
        inv = inverse_bipartite_upm(x, ctx)
        assert inv.multiply(h_alpha_matrix(x, ctx)) == ExactHermitianMatrix.identity(ctx, x.n).rows
        assert all(inv.entry(i, i).is_zero() for i in range(x.n))


def test_matrices_are_built_without_comparing_entries(monkeypatch):
    # both matrices hold one object per value, so the constructor checks each
    # entry by identity: no entry is compared or hashed, and each distinct
    # value is conjugated once
    x = generate_instance(1, 40, True).to_graph()
    ctx = CyclotomicContext(3)
    calls = Counter()
    for name in ("__eq__", "__hash__", "conj"):
        def counted(*args, _name=name, _method=getattr(CyclotomicNumber, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(CyclotomicNumber, name, counted)
    h = h_alpha_matrix(x, ctx)
    hinv = inverse_bipartite_upm(x, ctx)
    monkeypatch.undo()
    assert calls == {"conj": sum(len({id(a) for row in m.rows for a in row.values()}) for m in (h, hinv))}
    for m in (h, hinv):
        held = [a for row in m.rows for a in row.values()]
        assert len({id(a) for a in held}) == len({(a.nums, a.den) for a in held})


def test_recurrence_gives_the_constructor_one_object_per_value(monkeypatch):
    # on this document two coefficient vectors of the recurrence reduce to
    # one value; the rows handed to the constructor still hold it as one object
    x = generate_instance(3, 8, True).to_graph()
    ctx = CyclotomicContext(3)
    reduced, given = [], []
    power_sum = CyclotomicContext._power_sum

    def counted(self, terms, den=1):
        reduced.append(self)
        return power_sum(self, terms, den)

    def built(c, rows):
        given.append((len(reduced), rows))
        return ExactHermitianMatrix(c, rows)

    monkeypatch.setattr(CyclotomicContext, "_power_sum", counted)
    monkeypatch.setattr(inverse, "ExactHermitianMatrix", built)
    inverse._inverse_upm(x, ctx, ensure_class_h(x))
    monkeypatch.undo()
    # one reduction per distinct vector, all before the constructor runs
    ((vectors, rows),) = given
    values = [a for row in rows for a in row.values()]
    assert len({id(a) for a in values}) == len({(a.nums, a.den) for a in values}) < vectors


def test_general_formula_matches_closed_form_on_class_h():
    for doc in h_corpus(10, sizes=(6, 8), unicyclic=True, seed0=800) + h_corpus(
        10, sizes=(4, 6, 8), unicyclic=False, seed0=900
    ):
        x = doc.to_graph()
        ctx = CyclotomicContext(doc.alpha_order)
        inv = inverse_bipartite_upm(x, ctx)
        for i in range(x.n):
            for j in range(x.n):
                if i != j:
                    assert inverse_entry_general(x, ctx, i, j) == inv.entry(i, j)


def test_general_formula_against_numeric_inverse():
    rng = random.Random(31)
    done = nonbipartite = 0
    while done < 12:
        x = random_mixed_graph(rng, rng.randrange(2, 7))
        ctx = CyclotomicContext(4)
        if det_via_elementary(x, ctx).is_zero():
            continue
        num = numeric_inverse(h_alpha_matrix(x, ctx))
        for i in range(x.n):
            for j in range(x.n):
                if i != j:
                    got = inverse_entry_general(x, ctx, i, j)
                    assert abs(got.to_complex() - num[i, j]) < 1e-9
        done += 1
        try:
            ensure_class_h(x)
        except NotInClassH:
            nonbipartite += 1
    assert nonbipartite > 3


def test_adjugate_row_keeps_nonzero_sums_only():
    # the two co-augmenting 8..9 paths, 8-0-1-9 and the one around the cycle, cancel
    x, ctx = c8_two_adjacent_pendants(), CyclotomicContext(3)
    row = _adjugate_row(x, ctx, simple_paths(x.adjacency, 8, None, bytearray(x.n)), {})
    assert row and 9 not in row and not any(v.is_zero() for v in row.values())
    assert inverse_entry_general(x, ctx, 8, 9) == ctx.zero()


def test_pentagon_tail_diagonal_value():
    # the general formula covers off-diagonal entries; the known diagonal
    # value -2 Re(alpha) at order 10 is checked numerically
    x = pentagon_tail()
    ctx = CyclotomicContext(10)
    assert det_via_elementary(x, ctx) == 1
    num = numeric_inverse(h_alpha_matrix(x, ctx))
    alpha = ctx.root_power(1).to_complex()
    assert abs(num[0, 0] - (-2 * alpha.real)) < 1e-9
    got = inverse_entry_general(x, ctx, 0, 3)
    assert abs(got.to_complex() - num[0, 3]) < 1e-9


def test_general_formula_argument_errors():
    ctx = CyclotomicContext(3)
    with pytest.raises(SameVertex):
        inverse_entry_general(p4(), ctx, 1, 1)
    c4 = MixedGraph(4, digons=[(i, (i + 1) % 4) for i in range(4)])
    with pytest.raises(SingularMatrix):
        inverse_entry_general(c4, ctx, 0, 1)


def test_inverse_requires_class_membership():
    ctx = CyclotomicContext(3)
    with pytest.raises(NotInClassH):
        inverse_bipartite_upm(pentagon_tail(), ctx)


def test_orient_nonmatching_shapes():
    x = p4()
    m = ensure_class_h(x)
    oriented = orient_nonmatching(x, m)
    assert oriented.digons == frozenset({(0, 1), (2, 3)})
    assert oriented.arcs == frozenset({(1, 2)})
    with pytest.raises(HasArcs):
        orient_nonmatching(k2_arc(), Matching([(0, 1)]))
    with pytest.raises(InvalidParameter):
        orient_nonmatching(MixedGraph(2), Matching([(0, 1)]))


def test_coaug_counts_equal_order_two_inverse():
    for doc in h_corpus(12, sizes=(6, 8, 10), unicyclic=True, seed0=1000):
        g = doc.to_graph().underlying()
        m = ensure_class_h(g)
        ctx2 = CyclotomicContext(2)
        inv = inverse_bipartite_upm(orient_nonmatching(g, m), ctx2)
        for i in range(g.n):
            assert inv.entry(i, i) == 0
            for j in range(g.n):
                if i != j:
                    assert inv.entry(i, j) == len(co_augmenting_paths(g, m, i, j))
