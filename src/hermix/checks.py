"""The invariant checks of ``hermix check``: each exact answer against an
independent route. ``CHECKS`` holds them in output order, and ``run_check``
runs one on the ``GraphFacts`` of a graph."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .cyclotomic import CyclotomicContext
from .errors import NotInClassH, NotUnicyclic
from .graph import MixedGraph, simple_paths
from .inverse import _adjugate_row, _inverse_upm, orient_nonmatching
from .matching import ensure_class_h, paths_by_pair
from .spectral import (
    LEIBNIZ_CAP,
    RESIDUAL_TOLERANCE,
    ExactHermitianMatrix,
    det_leibniz,
    det_via_elementary,
    h_alpha_matrix,
    numeric_inverse,
)
from .unicyclic import (
    Similar,
    _classify,
    _peg_info,
    _signed_entries,
    _two_peg_value,
    sign_assignment,
)


class GraphFacts:
    """What the checks read about one graph, each computed once. Outside
    class H the matching, the inverse, the co-augmenting paths and the pegs
    are None; the pegs also when the graph is not unicyclic."""

    def __init__(self, x: MixedGraph, ctx: CyclotomicContext):
        self.x, self.ctx = x, ctx
        self.h = h_alpha_matrix(x, ctx)
        self.det = det_via_elementary(x, ctx)
        self.matching = self.inverse = self.paths = self.pegs = None
        # only ensure_class_h raises NotInClassH, and only _peg_info NotUnicyclic
        try:
            self.matching = ensure_class_h(x)
            self.inverse = _inverse_upm(x, ctx, self.matching)
            self.paths = paths_by_pair(x, self.matching)
            self.pegs = _peg_info(x, self.matching)
        except (NotInClassH, NotUnicyclic):
            pass


# The checks of ``hermix check`` in output order: name -> (applies, holds).
# A check reports skip on every graph where ``applies`` is false.
CHECKS: dict[str, tuple[Callable[[GraphFacts], bool], Callable[[GraphFacts], bool]]] = {}


def _check(applies):
    def register(holds):
        CHECKS[holds.__name__] = (applies, holds)
        return holds
    return register


def run_check(name: str, facts: GraphFacts) -> str:
    """pass, fail or skip: the outcome of one registered check on one graph."""
    applies, holds = CHECKS[name]
    return ("pass" if holds(facts) else "fail") if applies(facts) else "skip"


@_check(lambda f: f.x.n <= LEIBNIZ_CAP)
def det_elementary_vs_leibniz(f: GraphFacts) -> bool:
    return f.det == det_leibniz(f.h)


@_check(lambda f: np.isfinite(f.det.to_complex()))
def det_elementary_vs_numeric(f: GraphFacts) -> bool:
    numeric = complex(np.linalg.det(f.h.to_complex()))
    return abs(f.det.to_complex() - numeric) <= RESIDUAL_TOLERANCE * max(1.0, abs(numeric))


@_check(lambda f: f.inverse is not None)
def det_sign_law(f: GraphFacts) -> bool:
    return f.det == f.ctx.from_rational(1 if (f.x.n // 2) % 2 == 0 else -1)


@_check(lambda f: f.inverse is not None)
def inverse_identity(f: GraphFacts) -> bool:
    return f.inverse.multiply(f.h) == ExactHermitianMatrix.identity(f.ctx, f.x.n).rows


@_check(lambda f: f.inverse is not None)
def inverse_zero_diagonal(f: GraphFacts) -> bool:
    return all(i not in row for i, row in enumerate(f.inverse.rows))


@_check(lambda f: f.inverse is not None)
def inverse_vs_numeric(f: GraphFacts) -> bool:
    numeric = numeric_inverse(f.h)
    diff = np.abs(f.inverse.to_complex() - numeric).max(initial=0.0)
    return diff <= RESIDUAL_TOLERANCE * max(1.0, np.abs(numeric).max(initial=0.0))


class _MinorSteps:
    """The exits from v of a path P from ``start`` in a class-H graph below
    which some path can have a nonzero minor det(H - V(P)); read by
    simple_paths just after it marks v.

    A vertex off P whose neighbours are all on P is bare: its row of H - V(P)
    is zero, and so is the minor. A bare z stays bare on every longer path
    that misses it, and once entered it has no exit. In class H every vertex
    has a neighbour, its partner, so z turned bare when its last neighbour
    joined P as P's end. Hence with two bare vertices no path below P has a
    nonzero minor, and with one, z, only P + z can: z is then the one exit.

    simple_paths clears its marks without telling the rule, so the rule keeps
    its own copy of P: ``sync`` each path as it is yielded, which is before
    its last vertex's exits are read.
    """

    __slots__ = ("adj", "path", "on_path", "outside", "bare")

    def __init__(self, adj, start):
        self.adj, self.path, self.on_path = adj, [], bytearray(len(adj))
        self.outside = [len(row) for row in adj]  # each vertex's neighbours off P
        self.bare = set()
        self._push(start)

    def _push(self, v):
        self.path.append(v)
        self.on_path[v] = 1
        self.bare.discard(v)
        for u in self.adj[v]:
            self.outside[u] -= 1
            if not self.outside[u] and not self.on_path[u]:
                self.bare.add(u)

    def _pop(self):
        v = self.path.pop()
        self.on_path[v] = 0
        for u in self.adj[v]:
            if not self.outside[u]:
                self.bare.discard(u)
            self.outside[u] += 1
        if not self.outside[v]:
            self.bare.add(v)

    def sync(self, path):
        while len(self.path) >= len(path):
            self._pop()
        self._push(path[-1])

    def __getitem__(self, v):
        if not self.bare:
            return self.adj[v]
        return tuple(self.bare) if len(self.bare) == 1 else ()


def _minor_paths(adj, start):
    """The paths from ``start`` of a class-H graph whose minor can be nonzero:
    an even vertex count, and no bare vertex (see _MinorSteps). The graph is
    bipartite, so an odd count leaves the sides of H - V(P) unequal: it is
    [[0, B], [B*, 0]] with B not square, and singular."""
    steps = _MinorSteps(adj, start)
    for path in simple_paths(steps, start, None, bytearray(len(adj))):
        steps.sync(path)
        if not steps.bare and not len(path) % 2:
            yield path


@_check(lambda f: f.inverse is not None)
def inverse_vs_general_formula(f: GraphFacts) -> bool:
    # one path search per source, each minor once; both sides keep nonzeros only, none at det 0.
    # Class H is bipartite, and only the terms whose minor is zero by a zero row or by
    # parity are left out (_minor_paths), so the sum is the paper's formula read whole
    minors, live = {}, not f.det.is_zero()
    for i, row in enumerate(f.inverse.rows):
        sums = _adjugate_row(f.x, f.ctx, _minor_paths(f.x.adjacency, i), minors)
        if sums != {j: f.det * v for j, v in row.items() if live and j != i}:
            return False
    return True


@_check(lambda f: f.inverse is not None)
def coaugmenting_counts(f: GraphFacts) -> bool:
    """With every non-matching edge oriented, the order-2 inverse from the row
    recurrence counts the co-augmenting paths the path search lists per pair."""
    # orienting edges keeps the underlying graph, so f.matching stays its
    # unique perfect matching
    oriented = orient_nonmatching(f.x.underlying(), f.matching)
    counts = _inverse_upm(oriented, CyclotomicContext(2), f.matching)
    # a pair with no path and a zero count is absent from both sides
    stored = {(i, j): v for i, row in enumerate(counts.rows) for j, v in row.items()}
    return stored == {pair: len(bag) for pair, bag in f.paths.items()}


@_check(lambda f: f.pegs is not None)
def peg_structure(f: GraphFacts) -> bool:
    """At least two pegs. With more than two, no pair has two co-augmenting
    paths; with exactly two, each path of such a pair runs over both pegs, and
    the two-peg closed form read off its first path is the inverse entry."""
    pegs = set(f.pegs.pegs)
    if len(pegs) > 2:
        return all(len(bag) <= 1 for bag in f.paths.values())
    doubles = [(pair, bag) for pair, bag in f.paths.items() if len(bag) == 2]
    return (
        len(pegs) == 2
        and all(
            pegs <= {(min(u, v), max(u, v)) for u, v in zip(path, path[1:])}
            for _, bag in doubles
            for path in bag
        )
        and all(
            _two_peg_value(f.x, f.ctx, f.pegs.cycle_vertices, bag[0]) == f.inverse.entry(i, j)
            for (i, j), bag in doubles
        )
    )


def _gf2_solvable(n: int, constraints) -> bool:
    """Is there an x in GF(2)^n with x_i + x_j = b for every (i, j, b)? A
    constraint with i == j is refused: it stands for a nonzero diagonal entry,
    which no sign diagonal clears. Union-find, each vertex holding its parity
    against its parent."""
    parent, parity, size = list(range(n)), [0] * n, [1] * n

    def root(v):
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    for i, j, b in constraints:
        if i == j:
            return False
        (ri, pi), (rj, pj) = root(i), root(j)
        if ri == rj:
            if pi ^ pj != b:
                return False
            continue
        if size[ri] < size[rj]:
            ri, rj = rj, ri
        parent[rj], parity[rj] = ri, pi ^ pj ^ b
        size[ri] += size[rj]
    return True


def _gf2_similar(hinv: ExactHermitianMatrix) -> bool:
    """Does some +-1 diagonal D make D * hinv * D an adjacency matrix: every
    entry Zero or a positive power of alpha, and the diagonal zero?"""
    entries = _signed_entries(hinv)
    return entries is not None and _gf2_solvable(
        hinv.dim, ((i, j, kind.sign == -1) for i, j, kind in entries)
    )


@_check(lambda f: f.pegs is not None)
def similarity_vs_gf2(f: GraphFacts) -> bool:
    """The classify decision at order 3 is whether the sign constraints
    d_i d_j = +-1 solve over GF(2); with more than two pegs a Similar
    certificate's D is the f-walk sign assignment from vertex 0."""
    order3 = f.inverse if f.ctx.order == 3 else _inverse_upm(f.x, CyclotomicContext(3), f.matching)
    verdict = _classify(f.x, f.pegs, order3, 0)
    solvable = _gf2_similar(order3)
    if isinstance(verdict, Similar) != solvable:
        return False
    if not solvable or len(f.pegs.pegs) <= 2:
        return True
    return verdict.signs.signs == sign_assignment(f.x.underlying(), f.matching, 0).signs
