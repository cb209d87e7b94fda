"""Perfect matchings, uniqueness certificates, and co-augmenting paths."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import (
    InvalidParameter,
    NotBipartite,
    NotInClassH,
    NotPerfect,
    SameVertex,
)
from .graph import MixedGraph, balance, simple_paths


class Matching:
    """A set of vertex-disjoint unordered edges with O(1) partner lookup."""

    __slots__ = ("edges", "partner")

    def __init__(self, edges: Iterable[tuple[int, int]]):
        norm = set()
        partner: dict[int, int] = {}
        for u, v in edges:
            if u == v:
                raise InvalidParameter(f"matching edge with equal endpoints {u}")
            if u in partner or v in partner:
                raise InvalidParameter("matching edges are not vertex-disjoint")
            partner[u] = v
            partner[v] = u
            norm.add((u, v) if u < v else (v, u))
        self.edges = frozenset(norm)
        self.partner = partner

    def covers(self, n: int) -> bool:
        """Is this a perfect matching of the vertex set 0..n-1?"""
        return len(self.partner) == n and all(0 <= v < n for v in self.partner)

    def __contains__(self, edge) -> bool:
        u, v = edge
        return ((u, v) if u < v else (v, u)) in self.edges

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Matching({sorted(self.edges)})"


def bipartition(x: MixedGraph) -> tuple[frozenset[int], frozenset[int]]:
    """2-color the underlying graph; raise NotBipartite on an odd cycle.

    Deterministic: each component is rooted at its smallest vertex, which goes
    into the first class.
    """
    label, conflict = balance(x.adjacency, range(x.n), ())
    if conflict:
        v, w = conflict
        raise NotBipartite(f"odd cycle through vertices {v} and {w}")
    side0 = frozenset(v for v, s in enumerate(label) if s == 1)
    side1 = frozenset(v for v, s in enumerate(label) if s == -1)
    return side0, side1


def unique_perfect_matching(x: MixedGraph) -> Matching | None:
    """Pendant elimination: peel degree-1 vertices with their forced partners.

    Succeeds exactly when the (bipartite) graph has one perfect matching, and
    the peeled edges are that matching.
    """
    bipartition(x)
    adj = x.adjacency
    alive = [True] * x.n
    deg = [len(row) for row in adj]
    queue = deque(v for v in range(x.n) if deg[v] == 1)
    edges = []
    remaining = x.n
    while queue:
        v = queue.popleft()
        if not alive[v] or deg[v] != 1:
            continue
        u = next(w for w in adj[v] if alive[w])
        edges.append((v, u) if v < u else (u, v))
        alive[v] = alive[u] = False
        remaining -= 2
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    if remaining:
        return None
    return Matching(edges)


def is_unique_perfect_matching(x: MixedGraph) -> bool:
    return unique_perfect_matching(x) is not None


def ensure_class_h(x: MixedGraph) -> Matching:
    """Certify bipartite + unique perfect matching; return that matching."""
    try:
        m = unique_perfect_matching(x)
    except NotBipartite as exc:
        raise NotInClassH(str(exc)) from exc
    if m is None:
        raise NotInClassH("graph has zero or several perfect matchings")
    return m


class _Steps:
    """The exits from v of an alternating path that starts at i, read by
    simple_paths just after it marks v in ``on_path``.

    If partner[v] is on the path, v came in by its matching edge and may leave
    by any edge; its partner is blocked. Otherwise v is i or came in by a
    non-matching edge, and may leave only by its matching edge, which it
    lacks when that pair is not an edge of x.
    """

    __slots__ = ("adj", "partner", "on_path")

    def __init__(self, adj, partner, on_path):
        self.adj, self.partner, self.on_path = adj, partner, on_path

    def __getitem__(self, v):
        mate = self.partner[v]
        if self.on_path[mate]:
            return self.adj[v]
        return (mate,) if mate in self.adj[v] else ()


def co_augmenting_paths(
    x: MixedGraph, m: Matching, i: int, j: int | None = None
) -> list[tuple[int, ...]]:
    """All co-augmenting i..j paths, lexicographic on vertex sequences.

    With ``j`` omitted, every co-augmenting path that starts at ``i``, in the
    same order; grouped by endpoint, that is the i..j list for every j.

    One simple_paths search from i under the _Steps rule: the path alternates
    matching and non-matching edges from a matching edge at i, so it is
    co-augmenting exactly when it ends on a matching edge, at an even vertex
    count.
    """
    x.check_vertex(i)
    if j is not None:
        x.check_vertex(j)
        if i == j:
            raise SameVertex(f"need two distinct endpoints, got {i} twice")
    if not m.covers(x.n):
        raise NotPerfect("matching does not cover every vertex")
    on_path = bytearray(x.n)
    walks = simple_paths(_Steps(x.adjacency, m.partner, on_path), i, None, on_path)
    return [p for p in walks if not len(p) % 2 and (j is None or p[-1] == j)]


def paths_by_pair(x: MixedGraph, m: Matching) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Every co-augmenting path, in lexicographic order, keyed by its (start, end)
    pair; one search per start vertex. Pairs with no path are absent."""
    pairs: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for i in range(x.n):
        for path in co_augmenting_paths(x, m, i):
            pairs.setdefault((i, path[-1]), []).append(path)
    return pairs


def _coaug_sign(path: tuple[int, ...]) -> int:
    # (-1)^((edge count - 1) / 2); co-augmenting paths have odd edge count
    return -1 if ((len(path) - 2) // 2) % 2 else 1
