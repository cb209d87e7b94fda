"""Unicyclic bipartite graphs with unique perfect matching: pegs, walk signs,
two-peg inverse entries, and +-1 diagonal similarity to an adjacency matrix."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .cyclotomic import (
    OTHER,
    CyclotomicContext,
    CyclotomicNumber,
    classify_entry,
)
from .errors import (
    Disconnected,
    DimensionTooLarge,
    InternalCheckFailed,
    InvalidParameter,
    NoDoublePath,
    NotAWalk,
    NotTwoPegs,
    OddCycleParity,
)
from .graph import MixedGraph, balance, unique_cycle
from .inverse import _inverse_upm, orient_nonmatching
from .matching import Matching, _coaug_sign, co_augmenting_paths, ensure_class_h
from .spectral import ExactHermitianMatrix, h_alpha_matrix, walk_value

EXHAUSTIVE_CAP = 16  # largest dimension exhaustive_diag_similarity sweeps


@dataclass(frozen=True)
class PegInfo:
    """Cycle bookkeeping: pegs are matching edges hanging off the cycle.

    A peg is a matching edge that is not a cycle edge and touches exactly one
    cycle vertex. cycle_vertices is the canonical vertex tuple unique_cycle
    returns; every graph in the class has an even cycle and at least two pegs.
    """

    pegs: tuple[tuple[int, int], ...]
    cycle_vertices: tuple[int, ...]
    unmatched_cycle_edge_count: int


def peg_info(x: MixedGraph) -> PegInfo:
    """Pegs and cycle counts of a unicyclic graph, after certifying it is in
    class H (bipartite with a unique perfect matching)."""
    return _peg_info(x, ensure_class_h(x))


def _peg_info(x: MixedGraph, m: Matching) -> PegInfo:
    """Pegs are the matching edges (v, m.partner[v]) of cycle vertices v whose
    partner is off the cycle. m must be the certified unique perfect matching of x."""
    cycle = unique_cycle(x)
    cyc_set = set(cycle)
    mates = ((v, m.partner[v]) for v in cycle)
    pegs = tuple(sorted((min(e), max(e)) for e in mates if e[1] not in cyc_set))
    walk = cycle + cycle[:1]
    unmatched = sum(1 for e in zip(walk, walk[1:]) if e not in m)
    return PegInfo(pegs, cycle, unmatched)


def f_walk(g: MixedGraph, m: Matching, walk) -> list[int]:
    """Walk signs: start at +1, flip across each non-matching edge."""
    verts = tuple(walk)
    if not verts:
        raise NotAWalk("empty walk")
    g.check_vertex(verts[0])
    signs = [1]
    for u, v in zip(verts, verts[1:]):
        if not g.has_edge(u, v):
            raise NotAWalk(f"step ({u}, {v}) is not an edge")
        signs.append(signs[-1] if (u, v) in m else -signs[-1])
    return signs


@dataclass(frozen=True)
class DiagonalSigns:
    """A +-1 sign per vertex, anchored at a basepoint with sign +1."""

    signs: tuple[int, ...]
    basepoint: int


def sign_assignment(g: MixedGraph, m: Matching, basepoint: int) -> DiagonalSigns:
    """Propagate f_walk signs from the basepoint over the whole graph.

    Well-defined only when every cycle carries an even number of unmatched
    edges; a parity conflict on any non-tree edge raises OddCycleParity.
    """
    g.check_vertex(basepoint)
    signs, conflict = balance(g.adjacency, (basepoint,), m.edges)
    if conflict:
        v, w = conflict
        raise OddCycleParity(
            f"edge ({v}, {w}) closes a cycle with odd unmatched-edge count"
        )
    if not all(signs):
        raise Disconnected("sign propagation did not reach every vertex")
    return DiagonalSigns(tuple(signs), basepoint)


def check_her(g: MixedGraph, m: Matching, basepoint: int) -> bool:
    """Does D A(g) D equal the order-2 hermitian matrix of the oriented graph?

    A(g) is the plain adjacency matrix (all-digon graph), D the sign assignment
    from the basepoint, and the right side puts -1 on every oriented
    non-matching edge.
    """
    d = sign_assignment(g, m, basepoint)
    ctx2 = CyclotomicContext(2)
    adjacency = h_alpha_matrix(g, ctx2)  # all-digon: exponent 0 everywhere
    oriented = h_alpha_matrix(orient_nonmatching(g, m), ctx2)
    return adjacency.conjugated_by_signs(d.signs) == oriented


def two_peg_entry(
    x: MixedGraph,
    ctx: CyclotomicContext,
    i: int,
    j: int,
    path: tuple[int, ...] | None = None,
) -> CyclotomicNumber:
    """Closed form for an inverse entry joined by exactly two co-augmenting paths.

    With the passed path split as i..v (tree), F = v..v' (cycle portion),
    v'..j (tree), the entry equals

        (-1)^((|E(P)|-1)/2) * h(i..v) * h(F) * h(v'..j) * (1 + (-1)^(m+1) * h(C))

    where h(C) = conj(h(F)) * h(F^c) closes the cycle through the complementary
    portion and 2m is the cycle length. Equal, by construction, to the two-term
    co-augmenting path sum.
    """
    m = ensure_class_h(x)
    info = _peg_info(x, m)
    if len(info.pegs) != 2:
        raise NotTwoPegs(f"graph has {len(info.pegs)} pegs, need exactly 2")
    paths = co_augmenting_paths(x, m, i, j)
    if len(paths) != 2:
        raise NoDoublePath(
            f"{len(paths)} co-augmenting paths between {i} and {j}, need exactly 2"
        )
    if path is None:
        path = paths[0]
    elif tuple(path) not in paths:
        raise InvalidParameter("path is not one of the two co-augmenting paths")
    return _two_peg_value(x, ctx, info.cycle_vertices, tuple(path))


def _two_peg_value(
    x: MixedGraph, ctx: CyclotomicContext, cyc: tuple[int, ...], path: tuple[int, ...]
) -> CyclotomicNumber:
    # the closed form of two_peg_entry; path must be one of the two co-augmenting
    # paths of its pair and cyc the cycle_vertices of x's pegs
    cyc_set = set(cyc)
    hit = [k for k, v in enumerate(path) if v in cyc_set]
    assert hit == list(range(hit[0], hit[-1] + 1)), "cycle portion must be contiguous"

    # conj(h(F)) * h(F^c) is the closed walk round the cycle against F
    walk = cyc + cyc[:1]
    h_cycle = walk_value(x, ctx, walk)
    if path[hit[0] : hit[0] + 2] in zip(walk, walk[1:]):  # F runs along the walk
        h_cycle = h_cycle.conj()
    bracket = ctx.one() + (h_cycle if len(cyc) // 2 % 2 else -h_cycle)
    # h(i..v) * h(F) * h(v'..j) is the value of the whole path
    value = walk_value(x, ctx, path) * bracket
    return value if _coaug_sign(path) == 1 else -value


def _signed_entries(mat: ExactHermitianMatrix) -> list[tuple] | None:
    """The sign constraints a +-1 diagonal D must meet to make every entry of
    D * mat * D Zero or a positive power of alpha.

    One (i, j, SignedPower) per nonzero upper-triangle entry: i != j asks for
    d_i * d_j equal to its sign. None when no diagonal can work: some entry
    classifies as Other, or a diagonal entry, which conjugation leaves alone,
    is a negative power.
    """
    # the matrix holds one object per value: each value is classified once
    distinct = {id(a): a for row in mat.rows for a in row.values()}
    kinds = {key: classify_entry(a) for key, a in distinct.items()}
    if any(kind is OTHER for kind in kinds.values()):
        return None
    out = [(i, j, kinds[id(a)]) for i, row in enumerate(mat.rows) for j, a in row.items() if j >= i]
    if any(i == j and kind.sign != 1 for i, j, kind in out):
        return None
    return out


def exhaustive_diag_similarity(hinv: ExactHermitianMatrix) -> DiagonalSigns | None:
    """Search all +-1 diagonals (first sign fixed +1) for one making every
    entry of D * Hinv * D classify as Zero or a positive power of alpha.

    A test oracle by design: no structure theory, just the 2^(dim-1) sweep.
    Entry classifications are precomputed; conjugation only flips signs, so an
    entry classified as Other rules out every diagonal.
    """
    dim = hinv.dim
    if dim > EXHAUSTIVE_CAP:
        raise DimensionTooLarge(
            f"exhaustive search capped at dim {EXHAUSTIVE_CAP}, got {dim}"
        )
    entries = _signed_entries(hinv)
    if entries is None:
        return None
    constraints = [(i, j, kind.sign) for i, j, kind in entries if i != j]
    # the sign of vertex 1 varies fastest, as the low bit of a counter would
    for rest in itertools.product((1, -1), repeat=max(dim - 1, 0)):
        signs = (1, *reversed(rest))[:dim]
        if all(signs[i] * signs[j] == want for i, j, want in constraints):
            return DiagonalSigns(signs, 0)
    return None


class Obstruction(enum.Enum):
    TWO_PEGS = "exactly two pegs"
    ODD_PARITY = "odd number of unmatched cycle edges"


@dataclass(frozen=True)
class Similar:
    """Certificate: D * Hinv * D is the gamma-hermitian matrix of ``graph``."""

    signs: DiagonalSigns
    graph: MixedGraph
    conjugated: ExactHermitianMatrix


@dataclass(frozen=True)
class NotSimilar:
    reason: Obstruction


def classify_gamma_similarity(x: MixedGraph, basepoint: int = 0):
    """Decide whether the order-3 inverse is +-1 diagonally similar to a
    gamma-hermitian adjacency matrix; produce the certificate when it is.

    Conjugation by a sign diagonal never changes an entry's magnitude, so
    similarity holds exactly when no inverse entry classifies as Other and the
    pairwise sign constraints (product +1 across entries +gamma^k, -1 across
    -gamma^k) admit a global 2-coloring. The coloring spreads from the
    basepoint and the certificate is re-verified against the witness graph's
    matrix.

    When no coloring exists the reported reason is the structural obstruction.
    With more than two pegs every vertex pair is joined by at most one
    co-augmenting path, and failure happens exactly on odd unmatched cycle
    parity: chaining the pegs around the cycle forces a sign product of -1
    over a loop of constraints. With exactly two pegs the double-path bracket
    or the split parities of the two cycle routes conflict; that obstruction
    is usually decisive, but not always. A two-peg graph whose peg attachment
    vertices are adjacent on the cycle leaves the short route without interior
    matched edges, dropping one of the conflicting constraints, and its
    inverse can be genuinely Similar. On a generated corpus adjacency is
    necessary but not sufficient: README "Classification semantics" gives the
    counts, and test_two_peg_similarity_needs_adjacent_attachments pins them.
    """
    x.check_vertex(basepoint)
    m = ensure_class_h(x)
    info = _peg_info(x, m)  # a graph that is not unicyclic fails before the inverse
    return _classify(x, info, _inverse_upm(x, CyclotomicContext(3), m), basepoint)


def _classify(x: MixedGraph, info: PegInfo, hinv: ExactHermitianMatrix, basepoint: int):
    # info and hinv must be the pegs and the order-3 inverse of x, built from
    # its certified unique perfect matching
    entries = _signed_entries(hinv)
    signs = None
    if entries is not None:
        if any(i == j for i, j, _ in entries):
            raise InternalCheckFailed("inverse has a nonzero diagonal entry")
        # the stored off-diagonal entries are the edges of the sign graph
        keep = {(i, j) for i, j, kind in entries if kind.sign == 1}
        signs, conflict = balance(hinv.rows, (basepoint, *range(x.n)), keep)
        if conflict:
            signs = None
    many_pegs = len(info.pegs) > 2
    even_parity = info.unmatched_cycle_edge_count % 2 == 0
    if signs is None:
        if not many_pegs:
            return NotSimilar(Obstruction.TWO_PEGS)
        if not even_parity:
            return NotSimilar(Obstruction.ODD_PARITY)
        raise InternalCheckFailed(
            "no consistent diagonal despite more than two pegs and even parity"
        )
    if many_pegs and not even_parity:
        raise InternalCheckFailed(
            "consistent diagonal found despite odd unmatched cycle parity"
        )
    # the witness graph comes from the exponents read above; gamma^2 is an arc j -> i
    graph = MixedGraph(
        x.n,
        [(i, j) for i, j, kind in entries if kind.exponent == 0],
        [(i, j) if k.exponent == 1 else (j, i) for i, j, k in entries if k.exponent],
    )
    conj = hinv.conjugated_by_signs(signs)
    if conj != h_alpha_matrix(graph, hinv.ctx):
        raise InternalCheckFailed("a certificate entry is not an adjacency value")
    return Similar(DiagonalSigns(tuple(signs), basepoint), graph, conj)
