"""Perfect matchings, uniqueness certificates, and co-augmenting paths."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import (
    BadVertexId,
    InvalidParameter,
    NotBipartite,
    NotInClassH,
    NotPerfect,
    SameVertex,
)
from .graph import MixedGraph, balance


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
        return len(self.partner) == n

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


def find_perfect_matching(x: MixedGraph) -> Matching | None:
    """Maximum matching by augmenting-path search; None when not perfect."""
    left, _ = bipartition(x)
    match: dict[int, int] = {}

    def augment(v: int, seen: set[int]) -> bool:
        for w in x.neighbors(v):
            if w in seen:
                continue
            seen.add(w)
            if w not in match or augment(match[w], seen):
                match[w] = v
                match[v] = w
                return True
        return False

    for v in sorted(left):
        if v not in match:
            augment(v, set())
    if len(match) != x.n:
        return None
    return Matching((v, w) for v, w in match.items() if v < w)


def unique_perfect_matching(x: MixedGraph) -> Matching | None:
    """Pendant elimination: peel degree-1 vertices with their forced partners.

    Succeeds exactly when the (bipartite) graph has one perfect matching, and
    the peeled edges are that matching.
    """
    bipartition(x)
    alive = [True] * x.n
    deg = [x.degree(v) for v in range(x.n)]
    nbrs = [set(x.neighbors(v)) for v in range(x.n)]
    queue = deque(v for v in range(x.n) if deg[v] == 1)
    edges = []
    remaining = x.n
    while queue:
        v = queue.popleft()
        if not alive[v] or deg[v] != 1:
            continue
        u = next(w for w in nbrs[v] if alive[w])
        edges.append((v, u) if v < u else (u, v))
        alive[v] = alive[u] = False
        remaining -= 2
        for w in nbrs[u]:
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


def has_alternating_cycle(x: MixedGraph, m: Matching) -> bool:
    """Does some cycle alternate between matching and non-matching edges?

    Uses the one-side transition digraph: for a non-matching edge {a, b} with
    a in the first color class, add arc a -> partner(b). A directed cycle there
    is exactly an alternating cycle of the graph.
    """
    if not m.covers(x.n):
        raise NotPerfect("matching does not cover every vertex")
    left, _ = bipartition(x)
    succ: dict[int, list[int]] = {v: [] for v in left}
    for u, v in x.underlying_edges():
        if (u, v) in m:
            continue
        a, b = (u, v) if u in left else (v, u)
        succ[a].append(m.partner[b])
    state = {v: 0 for v in left}  # 0 fresh, 1 on stack, 2 done
    for root in sorted(left):
        if state[root]:
            continue
        stack = [(root, iter(sorted(succ[root])))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return True
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(sorted(succ[w]))))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return False


def is_co_augmenting(path: tuple[int, ...], m: Matching) -> bool:
    """Edges alternate in/out of the matching with both end edges matching."""
    if len(path) < 2:
        return False
    steps = list(zip(path, path[1:]))
    if len(steps) % 2 == 0:
        return False
    return all(((e in m) == (k % 2 == 0)) for k, e in enumerate(steps))


def co_augmenting_paths(
    x: MixedGraph, m: Matching, i: int, j: int
) -> list[tuple[int, ...]]:
    """All co-augmenting i..j paths, lexicographic on vertex sequences.

    The DFS carries the alternation state: the step leaving a vertex an odd
    number of edges in must be its matching edge, so those steps are forced.
    """
    x.check_vertex(i)
    x.check_vertex(j)
    if i == j:
        raise SameVertex(f"need two distinct endpoints, got {i} twice")
    if not m.covers(x.n):
        raise NotPerfect("matching does not cover every vertex")
    out: list[tuple[int, ...]] = []
    path = [i]
    on_path = {i}

    def step(cur: int, need_matching: bool) -> None:
        if need_matching:
            w = m.partner[cur]
            if w in on_path or not x.has_edge(cur, w):
                return
            if w == j:
                out.append(tuple(path) + (j,))
                return
            path.append(w)
            on_path.add(w)
            step(w, False)
            on_path.remove(w)
            path.pop()
        else:
            mate = m.partner[cur]
            for w in x.neighbors(cur):
                # j can only be entered by a matching edge, and never passed through
                if w == mate or w in on_path or w == j:
                    continue
                path.append(w)
                on_path.add(w)
                step(w, True)
                on_path.remove(w)
                path.pop()

    step(i, True)
    return out
