"""Shared desk graphs, brute-force oracles, and corpus builders.

The oracles re-derive answers by exhaustive enumeration with none of the
library's pruning, so agreement is meaningful: perfect matchings by direct
recursion, simple paths via networkx, elementary subgraphs by scanning every
edge subset, and on larger graphs by the plain lowest-vertex search with no
forced edges. The matching, alternating-cycle, co-augmenting, peg,
bare-vertex and canonical-cycle helpers below exist only for the tests; the
package has none. The cyclotomic references redo field arithmetic on Fraction
coordinates and sort entries by scanning every signed root power. The CLI
table at the end states, once, every command line whose whole outcome the
suite pins.
"""

from __future__ import annotations

import decimal
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
from hypothesis import settings

import hermix.checks as checks
from hermix import (
    OTHER,
    ZERO,
    CyclotomicContext,
    CyclotomicNumber,
    GraphDocument,
    Matching,
    MixedGraph,
    NotPerfect,
    SignedPower,
    bipartition,
    generate_instance,
    unique_cycle,
)
from hermix.errors import GenerationFailed
from hermix.graph import simple_paths

settings.register_profile("pkg", deadline=None, max_examples=60)
settings.load_profile("pkg")


# -- desk graphs ------------------------------------------------------------


def k2_digon() -> MixedGraph:
    return MixedGraph(2, digons=[(0, 1)])


def k2_arc() -> MixedGraph:
    return MixedGraph(2, arcs=[(0, 1)])


def p4() -> MixedGraph:
    return MixedGraph(4, digons=[(0, 1), (1, 2), (2, 3)])


def c6_two_pendants(cycle_arcs=()) -> MixedGraph:
    """Hexagon 0..5 with pendants 6 on 0 and 7 on 3; two pegs.

    cycle_arcs replaces those digons by arcs, e.g. ((0, 1),) or ((1, 0),).
    """
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    keyed = {tuple(sorted(e)) for e in cycle_arcs}
    digons = [e for e in cycle if e not in keyed] + [(0, 6), (3, 7)]
    return MixedGraph(8, digons=digons, arcs=list(cycle_arcs))


def c4_four_pendants() -> MixedGraph:
    return MixedGraph(
        8, digons=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
    )


def c6_four_pendants() -> MixedGraph:
    return MixedGraph(
        10,
        digons=[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (0, 5),
            (0, 6),
            (1, 7),
            (2, 8),
            (3, 9),
        ],
    )


def c8_two_adjacent_pendants(cycle_arcs=()) -> MixedGraph:
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)]
    keyed = {tuple(sorted(e)) for e in cycle_arcs}
    digons = [e for e in cycle if e not in keyed] + [(0, 8), (1, 9)]
    return MixedGraph(10, digons=digons, arcs=list(cycle_arcs))


def deep_path(n: int = 2400) -> MixedGraph:
    """The path 0-1-...-(n-1), long enough that a recursive walk along it
    exceeds Python's default recursion limit of 1000."""
    return MixedGraph(n, digons=[(k, k + 1) for k in range(n - 1)])


def pentagon_tail() -> MixedGraph:
    """Non-bipartite, unique perfect matching, determinant 1 at any order.

    Pentagon 1-2-3-4-5 with the single arc 1->2, pendant 0 on 1, tail 5-6-7.
    """
    return MixedGraph(
        8,
        digons=[(0, 1), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6), (6, 7)],
        arcs=[(1, 2)],
    )


def sparse(dense) -> list[dict]:
    """Dense rows in the matrix format, column -> entry. Zeros are kept; the
    ExactHermitianMatrix constructor drops them."""
    return [dict(enumerate(row)) for row in dense]


def dense(mat) -> list[list]:
    """Every entry of an ExactHermitianMatrix, zeros included."""
    return [[mat.entry(i, j) for j in range(mat.dim)] for i in range(mat.dim)]


# -- brute-force oracles ------------------------------------------------------


def all_perfect_matchings(x: MixedGraph) -> list[frozenset]:
    """Every perfect matching of the underlying graph, by direct recursion."""
    out: list[frozenset] = []

    def grow(free: frozenset, acc: list):
        if not free:
            out.append(frozenset(acc))
            return
        v = min(free)
        for w in x.adjacency[v]:
            if w in free:
                acc.append((v, w) if v < w else (w, v))
                grow(free - {v, w}, acc)
                acc.pop()

    grow(frozenset(range(x.n)), [])
    return out


def find_perfect_matching(x: MixedGraph) -> Matching | None:
    """Maximum matching by augmenting-path search; None when not perfect."""
    left, _ = bipartition(x)
    match: dict[int, int] = {}

    def augment(v: int, seen: set[int]) -> bool:
        for w in x.adjacency[v]:
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


def pegs_oracle(x: MixedGraph, m: Matching) -> tuple[tuple[int, int], ...]:
    """Pegs by a scan over every matching edge: those with exactly one end on
    the cycle, sorted."""
    on_cycle = set(unique_cycle(x))
    return tuple(sorted(e for e in m.edges if (e[0] in on_cycle) != (e[1] in on_cycle)))


def bare_vertices(x, path) -> set:
    """The vertices off the path whose neighbours are all on it: each leaves a
    zero row in H - V(path)."""
    on = set(path)
    return {v for v in range(x.n) if v not in on and on.issuperset(x.adjacency[v])}


def minor_can_be_nonzero(x, path) -> bool:
    """Check 7's filter read directly: in a bipartite graph det(H - V(P)) is
    zero at an odd vertex count, and at a bare vertex."""
    return not len(path) % 2 and not bare_vertices(x, path)


def canonical_cycle(vertices) -> tuple[int, ...]:
    """Rotate/reflect a cyclic vertex sequence into canonical form: least
    vertex first, second vertex less than last."""
    vs = list(vertices)
    k = vs.index(min(vs))
    vs = vs[k:] + vs[:k]
    if len(vs) > 2 and vs[-1] < vs[1]:
        vs = [vs[0]] + vs[:0:-1]
    return tuple(vs)


def to_networkx(x: MixedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(x.n))
    g.add_edges_from(x.underlying_edges())
    return g


def simple_paths_oracle(x: MixedGraph, i: int, j: int) -> list[tuple[int, ...]]:
    return sorted(tuple(p) for p in nx.all_simple_paths(to_networkx(x), i, j))


def coaug_paths_oracle(x: MixedGraph, m: Matching, i: int, j: int):
    return [p for p in simple_paths_oracle(x, i, j) if is_co_augmenting(p, m)]


def spanning_elementary_oracle(x: MixedGraph) -> set:
    """Every spanning elementary subgraph as its sorted parts, edges (u, v)
    with u < v and canonical cycles, found by checking all 2^|E| edge subsets."""
    edges = x.underlying_edges()
    found = set()
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            deg = [0] * x.n
            adj = [[] for _ in range(x.n)]
            for u, v in subset:
                deg[u] += 1
                deg[v] += 1
                adj[u].append(v)
                adj[v].append(u)
            if any(d not in (1, 2) for d in deg):
                continue
            seen = [False] * x.n
            parts = []
            ok = True
            for root in range(x.n):
                if seen[root]:
                    continue
                comp = [root]
                seen[root] = True
                stack = [root]
                while stack:
                    v = stack.pop()
                    for w in adj[v]:
                        if not seen[w]:
                            seen[w] = True
                            comp.append(w)
                            stack.append(w)
                comp_edges = [e for e in subset if e[0] in comp and e[1] in comp]
                if len(comp) == 2 and len(comp_edges) == 1:
                    parts.append(comp_edges[0])
                elif len(comp) >= 3 and all(deg[v] == 2 for v in comp):
                    walk = [comp[0]]
                    prev = None
                    while len(walk) < len(comp):
                        nxt = [w for w in adj[walk[-1]] if w != prev]
                        prev = walk[-1]
                        walk.append(nxt[0])
                    parts.append(canonical_cycle(walk))
                else:
                    ok = False
                    break
            if ok:
                found.add(tuple(sorted(parts)))
    return found


def lowest_vertex_elementary_oracle(x: MixedGraph, drop: tuple = ()) -> list[tuple]:
    """The spanning elementary subgraphs of x minus ``drop`` by the plain
    search: every level covers the lowest uncovered vertex by one of its closed
    walks in the uncovered region, with no forced edges and no dead-branch
    test."""
    adj = x.adjacency
    covered = bytearray(x.n)
    for v in drop:
        covered[x.check_vertex(v)] = 1
    out: list[tuple] = []
    chosen: list[tuple[int, ...]] = []  # per level: the edge or cycle tried now
    stack = []
    v = 0
    while True:
        while v < x.n and covered[v]:
            v += 1
        if v == x.n:
            out.append(tuple(sorted(chosen)))
        else:
            # v is the least uncovered vertex, so each walk starts at its
            # cycle's least vertex; second <= last keeps one direction
            walks = simple_paths(adj, v, v, covered)
            parts = [c[:-1] for c in walks if c[1] <= c[-2]]
            stack.append((v, iter(parts)))
            chosen.append(())  # the new level has covered nothing yet
        while stack:
            v, parts = stack[-1]
            for w in chosen.pop():
                covered[w] = 0
            part = next(parts, None)
            if part is not None:
                for w in part:
                    covered[w] = 1
                chosen.append(part)
                break
            stack.pop()
        else:
            return out


# -- random samplers and corpora ---------------------------------------------


def random_mixed_graph(rng: random.Random, n: int, p: float = 0.45) -> MixedGraph:
    digons, arcs = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= p:
                continue
            kind = rng.randrange(3)
            if kind == 0:
                digons.append((u, v))
            elif kind == 1:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return MixedGraph(n, digons, arcs)


def h_corpus(
    count: int, sizes, unicyclic: bool, seed0: int = 0
) -> list[GraphDocument]:
    """Deterministic list of generated instances; skips seeds the generator
    rejects so the corpus is stable."""
    docs = []
    seed = seed0
    k = 0
    while len(docs) < count:
        n = sizes[k % len(sizes)]
        try:
            docs.append(generate_instance(seed, n, unicyclic))
        except GenerationFailed:
            pass
        seed += 1
        k += 1
    return docs


def two_peg_instance(m: int, r: int, seed: int, chain: bool = False) -> MixedGraph:
    """Cycle of length 2m, pendant matching edges at cycle positions 0 and r
    (r odd), remaining cycle vertices tiled by matching edges; non-matching
    cycle edges become arcs by seeded coin flips.

    chain appends one extra matched pair beyond the first pendant.
    """
    if r % 2 == 0:
        raise ValueError("pegs must sit an odd distance apart on the cycle")
    size = 2 * m
    rng = random.Random(seed)
    cycle_edges = [(t, (t + 1) % size) for t in range(size)]
    matched = set()
    t = 1
    while t < r:
        matched.add((t, t + 1))
        t += 2
    t = r + 1
    while t < size:
        matched.add((t, (t + 1) % size))
        t += 2
    digons = [(0, size), (r, size + 1)]
    n = size + 2
    if chain:
        digons += [(size, size + 2), (size + 2, size + 3)]
        n += 2
    arcs = []
    for u, v in cycle_edges:
        if (u, v) in matched:
            digons.append((u, v))
        elif rng.random() < 0.5:
            digons.append((u, v))
        else:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return MixedGraph(n, digons, arcs)


def cycle_with_pendants(half: int, pendant_at, cycle_arcs=()) -> MixedGraph:
    """Cycle of length 2*half with a pendant matching edge on each listed
    cycle vertex; remaining cycle vertices must tile into matching edges."""
    size = 2 * half
    cycle = [(t, (t + 1) % size) for t in range(size)]
    keyed = {tuple(sorted(e)) for e in cycle_arcs}
    digons = [e if e[0] < e[1] else (e[1], e[0]) for e in cycle]
    digons = [e for e in digons if e not in keyed]
    n = size
    for v in pendant_at:
        digons.append((v, n))
        n += 1
    return MixedGraph(n, digons=digons, arcs=list(cycle_arcs))


def triangular_graph(k: int, seed: int) -> MixedGraph:
    """Dense class-H graph on pairs a_t = 2t, b_t = 2t + 1 (t < k): the
    matching edges a_t-b_t plus a_s-b_t for every s < t.

    b_0 is a pendant, and peeling each pair leaves b_{t+1} one, so the
    matching is unique; there are 2^(k+1) - 2 co-augmenting paths. Every
    edge is a digon, an arc or a reversed arc by seeded choice.
    """
    rng = random.Random(seed)
    digons, arcs = [], []
    for s in range(k):
        for t in range(s, k):
            a, b = 2 * s, 2 * t + 1
            kind = rng.randrange(3)
            if kind == 0:
                digons.append((a, b))
            else:
                arcs.append((a, b) if kind == 1 else (b, a))
    return MixedGraph(2 * k, digons, arcs)


# -- cyclotomic references ----------------------------------------------------
# Elements of Q[x]/Phi_n as tuples of Fraction coordinates in the power basis,
# reduced by long division with Phi_n, independently of the package's x^k table.

def fraction_coords(x: CyclotomicNumber) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, x.den) for c in x.nums)


def ref_reduce(ctx: CyclotomicContext, poly) -> tuple[Fraction, ...]:
    phi, d = ctx.phi, ctx.degree
    p = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for i in range(d + 1):
                p[k - d + i] -= c * phi[i]
    return tuple(p[:d])


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(ctx: CyclotomicContext, a, b):
    conv = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(ctx, conv)


def ref_conj(ctx: CyclotomicContext, a):
    n = ctx.order
    poly = [Fraction(0)] * n
    for i, c in enumerate(a):
        poly[(n - i) % n] += c
    return ref_reduce(ctx, poly)


def ref_inv(ctx: CyclotomicContext, a):
    """Solve a * y = 1 by Gauss-Jordan elimination on the matrix of y -> a * y."""
    d = ctx.degree
    cols = [ref_mul(ctx, a, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def classify_entry_scan(x: CyclotomicNumber):
    """classify_entry by scanning +alpha^k, then -alpha^k, k increasing."""
    if x.is_zero():
        return ZERO
    ctx = x.ctx
    for k in range(ctx.order):
        if x == ctx.root_power(k):
            return SignedPower(1, k)
    for k in range(ctx.order):
        if x == -ctx.root_power(k):
            return SignedPower(-1, k)
    return OTHER


# -- the CLI table ------------------------------------------------------------
# Criterion 10 runs every case through cli.main, and
# test_installed_console_script through the `hermix` executable on PATH.

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
DESK_NAMES = ("k2_digon", "k2_arc", "p4", "c6_two_pendants", "c4_four_pendants")


def transcript(code: int, out: str, err: str) -> str:
    """One call's exit code, stdout and stderr, as the goldens record them."""
    return f"exit: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"


@dataclass(frozen=True)
class CliCase:
    """A `hermix` command line and the transcript it must give. With ``tail``
    only the last line of stdout is compared; ``wrote`` is a file the call
    writes and the text it must hold."""

    name: str
    argv: tuple[str, ...]
    expected: str
    tail: bool = False
    wrote: tuple[Path, str] | None = None

    def holds(self, code: int, out: str, err: str) -> bool:
        if self.tail:
            out = out.splitlines()[-1] + "\n" if out else out
        if transcript(code, out, err) != self.expected:
            return False
        return self.wrote is None or self.wrote[0].read_text() == self.wrote[1]


def disjoint_triangles(tmp: Path, k: int) -> str:
    """k disjoint all-digon triangles: each is one elementary subgraph worth 2,
    so det = 2^k exactly."""
    digons = [[3 * t + a, 3 * t + b] for t in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
    doc = tmp / f"triangles{k}.json"
    doc.write_text(json.dumps({"n": 3 * k, "digons": digons, "arcs": [], "alpha_order": 3}))
    return str(doc)


def cli_cases(tmp: Path) -> list[CliCase]:
    """The table, with its generated documents and outputs under ``tmp``."""
    commands = [(c, (c,), DESK_NAMES) for c in ("det", "inverse", "classify", "check")]
    commands.append(
        ("inverse_paths", ("inverse", "--paths"), ("c6_two_pendants", "c4_four_pendants"))
    )
    cases = [
        CliCase(
            f"{prefix}_{name}",
            (*argv, str(DATA / f"{name}.json")),
            (GOLDEN / f"{prefix}_{name}.txt").read_text(),
        )
        for prefix, argv, names in commands
        for name in names
    ]
    gen = tmp / "g.json"
    cases.append(
        CliCase(
            "gen_seed7_n10_unicyclic",
            ("gen", "--seed", "7", "--n", "10", "--unicyclic", "-o", str(gen)),
            transcript(0, f"wrote {gen}\n", ""),
            wrote=(gen, (GOLDEN / "gen_seed7_n10_unicyclic.json").read_text()),
        )
    )
    bad = tmp / "bool_n.json"
    bad.write_text('{"n": true, "digons": [], "arcs": [], "alpha_order": 3}')
    cases.append(
        CliCase(
            "bool_n",
            ("det", str(bad)),
            transcript(2, "", "error: ParseError: field 'n' must be a nonnegative integer\n"),
        )
    )
    huge = tmp / "huge_n.json"
    huge.write_text('{"n": 50000000, "digons": [], "arcs": [], "alpha_order": 2}')
    cases.append(
        CliCase(
            "huge_n",
            ("det", str(huge)),
            transcript(2, "", "error: ParseError: field 'n' must be at most 1000000\n"),
        )
    )
    # gen refuses the same bound before it grows a tree
    cases.append(
        CliCase(
            "gen_huge_n",
            ("gen", "--seed", "1", "--n", "2000000", "-o", str(tmp / "huge_gen.json")),
            transcript(
                2,
                "",
                "error: InvalidParameter: vertex count must be at most 1000000, got 2000000\n",
            ),
        )
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # an integer literal over int()'s digit limit is bad input
        long_n = tmp / "long_n.json"
        digits = "9" * max(5000, limit + 1)
        long_n.write_text(f'{{"n": {digits}, "digons": [], "arcs": [], "alpha_order": 3}}')
        cases.append(
            CliCase(
                "long_n",
                ("det", str(long_n)),
                transcript(2, "", f"error: ParseError: an integer has over {limit} digits\n"),
            )
        )
    # det = 2^30, which numpy misses by about 1e-5
    cases.append(
        CliCase(
            "check_triangles30",
            ("check", disjoint_triangles(tmp, 30)),
            transcript(0, f"result: ok ({len(checks.CHECKS)} checks)\n", ""),
            tail=True,
        )
    )
    # det = 2^14300 has 4,305 digits, over int()'s default limit of 4,300;
    # decimal gives them without an int -> str conversion
    power = format(decimal.Context(prec=4400).power(2, 14300), "f")
    cases.append(
        CliCase(
            "det_triangles14300",
            ("det", disjoint_triangles(tmp, 14300)),
            transcript(0, f"det = {power} (inf)\n", ""),
        )
    )
    return cases
