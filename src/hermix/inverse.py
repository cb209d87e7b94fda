"""Combinatorial inverses of hermitian adjacency matrices.

Two routes live here. ``inverse_entry_general`` works on any invertible mixed
graph (off-diagonal entries only) by summing, over all simple i..j paths, the
path value times the minor the path's vertex set leaves behind. Rows of those sums share
one table of minors and keep nonzero entries only, the row convention of ``ExactHermitianMatrix``.
``inverse_bipartite_upm`` covers bipartite graphs with a unique perfect
matching, where entry (i, j) is a signed sum over co-augmenting i..j paths;
one recurrence builds it, listing no path. Each path value is a power of alpha,
so the recurrence runs on integer coefficient vectors, where a step is a
rotation plus a negation, and each distinct value is reduced into Q(alpha) once,
as one object.
"""

from __future__ import annotations

from operator import add

from .cyclotomic import CyclotomicContext, CyclotomicNumber
from .errors import HasArcs, InvalidParameter, NotPerfect, SameVertex, SingularMatrix
from .graph import MixedGraph, enumerate_paths
from .matching import Matching, ensure_class_h
from .spectral import ExactHermitianMatrix, det_via_elementary, walk_value


def inverse_entry_general(
    x: MixedGraph, ctx: CyclotomicContext, i: int, j: int
) -> CyclotomicNumber:
    """Exact (i, j) entry of the inverse, i != j, for any invertible mixed graph."""
    x.check_vertex(i)
    x.check_vertex(j)
    if i == j:
        raise SameVertex("general inverse formula covers off-diagonal entries only")
    det = det_via_elementary(x, ctx)
    if det.is_zero():
        raise SingularMatrix("determinant is exactly zero")
    return _adjugate_row(x, ctx, enumerate_paths(x, i, j), {}).get(j, ctx.zero()) * det.inv()


def _adjugate_row(x: MixedGraph, ctx: CyclotomicContext, paths, minors: dict) -> dict:
    # det(H) * (H^-1)_ij per last vertex j of the i..j paths P: sum h(P) * det(H - V(P)),
    # negated on odd edge counts; only the nonzero sums, the row convention of
    # ExactHermitianMatrix. ``minors`` keeps each minor by the bit set of V(P)
    acc = {}
    for path in paths:
        key = sum(1 << v for v in path)
        if key not in minors:
            minors[key] = det_via_elementary(x, ctx, path)
        if not minors[key].is_zero():
            j, term = path[-1], walk_value(x, ctx, path) * minors[key]
            term = -term if len(path) % 2 == 0 else term
            acc[j] = acc[j] + term if j in acc else term
    return {j: v for j, v in acc.items() if not v.is_zero()}


def inverse_bipartite_upm(x: MixedGraph, ctx: CyclotomicContext) -> ExactHermitianMatrix:
    """Exact inverse for a bipartite unique-perfect-matching graph.

    Entry (i, j), i != j, is the sum over co-augmenting i..j paths P of
    (-1)^((|E(P)|-1)/2) * h_alpha(P); diagonal entries are exactly zero.
    """
    return _inverse_upm(x, ctx, ensure_class_h(x))


def _inverse_upm(x: MixedGraph, ctx: CyclotomicContext, m: Matching) -> ExactHermitianMatrix:
    # m must be the certified unique perfect matching of x. Row m(i) of H * H^-1 = I gives
    #   row(i) = h(i, m(i)) * (e_m(i) - sum over u ~ m(i), u != i, of h(m(i), u) * row(u));
    # with no alternating cycle the steps i -> u never return: a stack orders the rows.
    # Each h is a power of alpha, so the rows are built in the group ring Z[t]/(t^n - 1),
    # n = ctx.order, an entry being its n integer coefficients: times -t^k is a rotation
    # and a negation. The ring map t -> alpha then reduces each distinct entry once.
    n = ctx.order
    adj, partner = x.adjacency, m.partner
    rows: list[dict[int, tuple[int, ...]] | None] = [None] * x.n
    one = (1,) + (0,) * (n - 1)
    turned: dict[int, dict] = {}  # turned[k][v] is -t^k * v: v rotated right by k, negated
    stack = list(range(x.n))
    while stack:
        i = stack.pop()
        if rows[i] is not None:
            continue
        mate = partner[i]
        todo = [u for u in adj[mate] if u != i and rows[u] is None]
        if todo:
            stack += [i, *todo]
            continue
        e = adj[i][mate] % n
        row = {mate: one[n - e:] + one[:n - e]}  # t^e
        for u, f in adj[mate].items():
            if u != i:
                k = (e + f) % n
                turn = turned.setdefault(k, {})
                for j, v in rows[u].items():
                    w = turn.get(v)
                    if w is None:
                        w = turn[v] = tuple(-c for c in v[n - k:] + v[:n - k])
                    row[j] = tuple(map(add, row[j], w)) if j in row else w
        rows[i] = row
    # two coefficient vectors can reduce to one value: each value is kept as one object
    held: dict[tuple, CyclotomicNumber] = {}
    value = {}
    for v in {v for row in rows for v in row.values()}:
        a = ctx._power_sum(enumerate(v))
        value[v] = held.setdefault((a.nums, a.den), a)
    # the constructor drops the entries that reduce to zero
    return ExactHermitianMatrix(ctx, [{j: value[v] for j, v in row.items()} for row in rows])


def orient_nonmatching(g: MixedGraph, m: Matching) -> MixedGraph:
    """Turn every non-matching digon into an arc from lower to higher id."""
    if g.arcs:
        raise HasArcs("orientation starts from an all-digon graph")
    if not m.covers(g.n):
        raise NotPerfect("matching does not cover every vertex")
    for edge in m.edges:
        if edge not in g.digons:
            raise InvalidParameter(f"matching edge {edge} is not in the graph")
    digons = [e for e in g.digons if e in m]
    arcs = [e for e in g.digons if e not in m]
    return MixedGraph(g.n, digons, arcs)

