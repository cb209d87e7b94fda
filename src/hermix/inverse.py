"""Combinatorial inverses of hermitian adjacency matrices.

Two routes live here. ``inverse_entry_general`` works on any invertible mixed
graph (off-diagonal entries only) by summing, over all simple i..j paths, the
path value times the determinant of what the path leaves behind.
``inverse_bipartite_upm`` is the closed form for bipartite graphs with a
unique perfect matching: a signed sum over co-augmenting paths, with an exactly
zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclotomicContext, CyclotomicNumber
from .errors import HasArcs, InvalidParameter, NotPerfect, SameVertex, SingularMatrix
from .graph import MixedGraph, enumerate_paths, remove_vertices
from .matching import Matching, co_augmenting_paths, ensure_class_h
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
    return _adjugate_entry(x, ctx, i, j) * det.inv()


def _adjugate_entry(x: MixedGraph, ctx: CyclotomicContext, i: int, j: int) -> CyclotomicNumber:
    # det(H) * (H^-1)_ij: over simple i..j paths, the path value times the
    # determinant of what the path leaves behind, negated on odd edge counts
    acc = ctx.zero()
    for path in enumerate_paths(x, i, j):
        inner = det_via_elementary(remove_vertices(x, path).graph, ctx)
        if inner.is_zero():
            continue
        term = walk_value(x, ctx, path) * inner
        acc = acc + (-term if len(path) % 2 == 0 else term)
    return acc


@dataclass(frozen=True)
class InverseReport:
    """Exact inverse plus, per ordered pair, the co-augmenting paths behind it."""

    matrix: ExactHermitianMatrix
    contributions: dict[tuple[int, int], tuple[tuple[tuple[int, ...], int], ...]]


def _coaug_sign(path: tuple[int, ...]) -> int:
    # (-1)^((edge count - 1) / 2); co-augmenting paths have odd edge count
    return -1 if ((len(path) - 2) // 2) % 2 else 1


def inverse_bipartite_upm(x: MixedGraph, ctx: CyclotomicContext) -> InverseReport:
    """Exact inverse for a bipartite unique-perfect-matching graph.

    Entry (i, j), i != j, is the sum over co-augmenting i..j paths P of
    (-1)^((|E(P)|-1)/2) * h_alpha(P); diagonal entries are exactly zero.
    """
    return _inverse_upm(x, ctx, ensure_class_h(x))


def _inverse_upm(x: MixedGraph, ctx: CyclotomicContext, m: Matching) -> InverseReport:
    # m must be the certified unique perfect matching of x; one path
    # enumeration per source i gives row i
    zero = ctx.zero()
    contributions: dict[tuple[int, int], tuple[tuple[tuple[int, ...], int], ...]] = {}
    rows = []
    for i in range(x.n):
        bags = [[] for _ in range(x.n)]
        acc = [zero] * x.n
        for path in co_augmenting_paths(x, m, i):
            j = path[-1]
            sign = _coaug_sign(path)
            value = walk_value(x, ctx, path)
            acc[j] = acc[j] + (value if sign == 1 else -value)
            bags[j].append((path, sign))
        for j in range(x.n):
            if j != i:
                contributions[(i, j)] = tuple(bags[j])
        rows.append(acc)
    return InverseReport(ExactHermitianMatrix(ctx, rows), contributions)


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

