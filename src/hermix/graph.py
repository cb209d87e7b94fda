"""Mixed graphs: undirected digons plus directed arcs on dense vertex ids 0..n-1."""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    BadVertexId,
    DuplicateEdge,
    NotUnicyclic,
    SameVertex,
    SelfLoop,
)


class MixedGraph:
    """Immutable mixed graph. At most one edge (digon or arc) per vertex pair.

    ``adjacency[u]`` is the read-only row of vertex u: a mapping from each
    neighbour v, in increasing order, to the power of alpha at matrix position
    (u, v), which is 0 for a digon, +1 for an arc u->v and -1 for an arc v->u.
    ``n``, ``digons``, ``arcs`` and ``adjacency`` are plain attributes, built
    once by the constructor; callers must not reassign them.
    """

    __slots__ = ("n", "digons", "arcs", "adjacency")

    def __init__(self, n: int, digons: Iterable = (), arcs: Iterable = ()):
        if type(n) is not int or n < 0:  # type(): bool is an int subclass
            raise BadVertexId(f"vertex count must be a nonnegative integer, got {n!r}")
        self.n = n
        pairs: dict[tuple[int, int], int] = {}  # low-high pair -> exponent at (low, high)
        for edges, e in ((digons, 0), (arcs, 1)):
            for u, v in edges:
                self.check_vertex(u)
                self.check_vertex(v)
                if u == v:
                    raise SelfLoop(f"self-loop at {u}")
                key = (u, v) if u < v else (v, u)
                if key in pairs:
                    raise DuplicateEdge(f"pair {key} used more than once")
                pairs[key] = e if u < v else -e
        # filled in pair order, every row gets its neighbours in increasing order
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for u, v in sorted(pairs):
            e = pairs[u, v]
            rows[u][v], rows[v][u] = e, -e
        self.adjacency = tuple(map(MappingProxyType, rows))
        self.digons = frozenset(key for key, e in pairs.items() if not e)
        self.arcs = frozenset(key if e == 1 else key[::-1] for key, e in pairs.items() if e)

    # -- structure queries ----------------------------------------------------

    def check_vertex(self, v) -> int:
        if type(v) is not int or not 0 <= v < self.n:
            raise BadVertexId(f"vertex {v!r} outside 0..{self.n - 1}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return self.hermitian_exponent(u, v) is not None

    def hermitian_exponent(self, u: int, v: int) -> int | None:
        """Power of alpha at matrix position (u, v): 0 digon, +1 arc u->v,
        -1 arc v->u, None when the pair carries no edge."""
        self.check_vertex(u)
        return self.adjacency[u].get(self.check_vertex(v))

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, row in enumerate(self.adjacency) for v in row if u < v)

    @property
    def edge_count(self) -> int:
        return len(self.digons) + len(self.arcs)

    def underlying(self) -> "MixedGraph":
        """Forget orientations: every arc becomes a digon."""
        return MixedGraph(self.n, self.underlying_edges(), ())

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.digons == other.digons
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.digons, self.arcs))

    def __repr__(self):
        return (
            f"MixedGraph(n={self.n}, digons={sorted(self.digons)}, "
            f"arcs={sorted(self.arcs)})"
        )


class InducedSubgraph(NamedTuple):
    graph: MixedGraph
    kept: tuple[int, ...]  # kept[new_id] = old_id


def remove_vertices(x: MixedGraph, drop: Iterable[int]) -> InducedSubgraph:
    """Induced subgraph on the complement of ``drop``, ids remapped densely."""
    dropped = {x.check_vertex(v) for v in drop}
    kept = tuple(v for v in range(x.n) if v not in dropped)
    new_id = {old: i for i, old in enumerate(kept)}
    digons = [
        (new_id[u], new_id[v])
        for u, v in x.digons
        if u not in dropped and v not in dropped
    ]
    arcs = [
        (new_id[u], new_id[v])
        for u, v in x.arcs
        if u not in dropped and v not in dropped
    ]
    return InducedSubgraph(MixedGraph(len(kept), digons, arcs), kept)


def enumerate_paths(x: MixedGraph, i: int, j: int) -> list[tuple[int, ...]]:
    """All simple paths i..j in the underlying graph, lexicographic order."""
    x.check_vertex(i)
    x.check_vertex(j)
    if i == j:
        raise SameVertex(f"need two distinct endpoints, got {i} twice")
    return list(simple_paths(x.adjacency, i, j, bytearray(x.n)))


def simple_paths(adj, start, target, blocked) -> Iterator[tuple[int, ...]]:
    """Every path start..target with no repeated inner vertex and none blocked,
    in lexicographic order; with target == start, the closed walks through start;
    with target None, every path from start, each given as its last vertex is entered.

    ``blocked[v]`` is nonzero for a vertex the walk may not enter, and must be
    zero at start. Depth-first over an explicit stack of neighbour iterators;
    the walk marks its own vertices in ``blocked`` and clears them on the way
    back, so ``blocked`` is as it was once every path is read. It reads
    ``adj[v]`` just after it marks v, so a row may depend on the vertices the
    path holds then (co_augmenting_paths relies on that). A generator: the
    caller reads each path as it is found, and no list of them is kept.
    """
    path = [start]
    blocked[start] = 1
    stack = [iter(adj[start])]
    while stack:
        for w in stack[-1]:
            if w == target:
                yield (*path, w)
            elif not blocked[w]:
                if target is None:
                    yield (*path, w)
                blocked[w] = 1
                path.append(w)
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            blocked[path.pop()] = 0


def balance(adj, roots, keep) -> tuple[list[int], tuple[int, int] | None]:
    """Spread +-1 labels breadth-first over a signed graph.

    ``adj[v]`` lists the neighbours of v. Each root not yet labelled gets +1;
    every edge flips the label across it unless the edge, as a low-high pair,
    is in ``keep``. Returns the labels (0 for a vertex no root reaches) and the
    first edge (v, w), in visiting order, whose ends disagree, or None when the
    reached part is balanced in Harary's sense.
    """
    label = [0] * len(adj)
    conflict = None
    for root in roots:
        if label[root]:
            continue
        label[root] = 1
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                want = -label[v]
                if keep and ((v, w) if v < w else (w, v)) in keep:
                    want = label[v]
                if not label[w]:
                    label[w] = want
                    queue.append(w)
                elif label[w] != want and conflict is None:
                    conflict = (v, w)
    return label, conflict


def unique_cycle(x: MixedGraph) -> tuple[int, ...]:
    """The single cycle of a connected unicyclic graph (|E| = |V|), as its
    canonical vertex tuple: least vertex first, and its second vertex the
    smaller of that vertex's two cycle neighbours."""
    if x.n == 0 or not all(balance(x.adjacency, (0,), ())[0]):
        raise NotUnicyclic("underlying graph is not connected")
    if x.edge_count != x.n:
        raise NotUnicyclic(
            f"connected unicyclic needs |E| = |V|, got {x.edge_count} edges on {x.n} vertices"
        )
    # peel pendant vertices until only the cycle is left
    adj = x.adjacency
    peeled = bytearray(x.n)
    deg = [len(row) for row in adj]
    queue = deque(v for v in range(x.n) if deg[v] == 1)
    while queue:
        v = queue.popleft()
        peeled[v] = 1
        for w in adj[v]:
            if not peeled[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    # the closed walks through the least cycle vertex; second < last is canonical
    start = peeled.index(0)
    walks = simple_paths(adj, start, start, peeled)
    return next(c[:-1] for c in walks if c[1] < c[-2])
