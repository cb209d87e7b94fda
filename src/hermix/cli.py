"""Command line interface: det, inverse, classify, check, gen.

Exit codes: 0 success, 2 precondition violation (bad document, graph outside
an operation's domain, input too large for memory), 3 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, localcontext
from functools import cache
from typing import Callable

import numpy as np

from .cyclotomic import CyclotomicContext, CyclotomicNumber
from .documents import GraphDocument, generate_instance, parse_graph, render_document
from .errors import (
    HermixError,
    InternalCheckFailed,
    InvalidParameter,
    NotInClassH,
    NotUnicyclic,
    ParseError,
)
from .graph import MixedGraph, simple_paths
from .inverse import _adjugate_row, _inverse_upm, orient_nonmatching
from .matching import _coaug_sign, ensure_class_h, paths_by_pair
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
    NotSimilar,
    Similar,
    _classify,
    _peg_info,
    _signed_entries,
    _two_peg_value,
    classify_gamma_similarity,
    sign_assignment,
)


def _pi() -> Decimal:
    """pi at the context's precision: 3 plus t_1 + t_2 + ..., t_0 = 3 and
    t_k = t_(k-1) (2k - 1)^2 / (8k (2k + 1)), six times the arcsine series at 1/2."""
    with localcontext() as dc:
        dc.prec += 2
        pi, last, term, k = Decimal(3), None, Decimal(3), 0
        while pi != last:
            last, k = pi, k + 1
            term = term * (2 * k - 1) ** 2 / (8 * k * (2 * k + 1))
            pi += term
    return +pi


def _cos(x: Decimal) -> Decimal:
    """cos(x) for |x| <= pi at the context's precision, by its Taylor series."""
    with localcontext() as dc:
        dc.prec += 2
        total, last, term, k = Decimal(1), None, Decimal(1), 0
        while total != last:
            last, k = total, k + 2
            term = -term * x * x / (k * (k - 1))
            total += term
    return +total


def real_value(z: CyclotomicNumber) -> float:
    """Re(z) rounded to a float: the power basis summed in decimal at a
    precision doubled from 30 digits until the sum is 1e12 times its error
    bound. 0 when Re(z) is exactly zero, +-inf beyond the float range."""
    if (z + z.conj()).is_zero():
        return 0.0
    n = z.ctx.order
    terms = [(c, min(k, n - k)) for k, c in enumerate(z.nums) if c]
    digits = max(abs(c).bit_length() for c, _ in terms) * 30103 // 100000 + 1  # |c| < 10^digits
    prec = 30
    while True:
        with localcontext() as dc:
            dc.prec = prec
            turn = 2 * _pi() / n if any(j for _, j in terms) else None  # None: z is rational
            total = sum((c * _cos(turn * j) if j else Decimal(c) for c, j in terms), Decimal(0))
            # each term errs by at most 10^(digits + 1 - prec), and so does each partial sum
            if abs(total).scaleb(-12) > Decimal(len(terms) ** 2).scaleb(digits + 1 - prec):
                return float(total / z.den)
        prec *= 2


def _load(path: str) -> GraphDocument:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})") from None
    return parse_graph(text)


def command_det(doc: GraphDocument, out) -> int:
    x = doc.to_graph()
    ctx = CyclotomicContext(doc.alpha_order)
    det = det_via_elementary(x, ctx)
    print(
        f"det = {det.to_polynomial_string()} ({real_value(det):.10g})",
        file=out,
    )
    return 0


def command_inverse(doc: GraphDocument, show_paths: bool, out) -> int:
    x = doc.to_graph()
    ctx = CyclotomicContext(doc.alpha_order)
    m = ensure_class_h(x)
    inv = _inverse_upm(x, ctx, m)
    print(f"alpha_order = {doc.alpha_order}", file=out)
    print("inverse:", file=out)
    # each distinct nonzero value is rendered once; the rest of a row is zero
    text = {v: v.to_polynomial_string() for v in {v for row in inv.rows for v in row.values()}}
    blank = ctx.zero().to_polynomial_string()
    for row in inv.rows:
        cells = [blank] * x.n
        for j, v in row.items():
            cells[j] = text[v]
        print(f"[{', '.join(cells)}]", file=out)
    if show_paths:
        for (i, j), bag in sorted(paths_by_pair(x, m).items()):
            if i < j:
                print(f"paths {i} -> {j}:", file=out)
                for path in bag:
                    print(f"  {_coaug_sign(path):+d}  {path}", file=out)
    return 0


def command_classify(doc: GraphDocument, basepoint: int, out) -> int:
    if doc.alpha_order != 3:
        raise InvalidParameter(f"classify needs alpha_order 3, got {doc.alpha_order}")
    x = doc.to_graph()
    verdict = classify_gamma_similarity(x, basepoint)
    if isinstance(verdict, NotSimilar):
        print(f"NotSimilar: {verdict.reason.value}", file=out)
        return 0
    print("Similar", file=out)
    print(f"D = [{', '.join(str(s) for s in verdict.signs.signs)}]", file=out)
    print(f"basepoint = {verdict.signs.basepoint}", file=out)
    print(f"digons = {[list(e) for e in sorted(verdict.graph.digons)]}", file=out)
    print(f"arcs = {[list(e) for e in sorted(verdict.graph.arcs)]}", file=out)
    return 0


class GraphFacts:
    """What the checks read about one graph, each computed once. Outside
    class H the matching, the inverse, the co-augmenting paths and the pegs
    are None; the pegs also when the graph is not unicyclic."""

    def __init__(self, x: MixedGraph, ctx: CyclotomicContext):
        self.x, self.ctx = x, ctx
        self.h = h_alpha_matrix(x, ctx)
        self.det = det_via_elementary(x, ctx)
        try:
            self.matching = ensure_class_h(x)
        except NotInClassH:
            self.matching = None
        self.inverse = None if self.matching is None else _inverse_upm(x, ctx, self.matching)
        self.paths = None if self.matching is None else paths_by_pair(x, self.matching)
        try:
            self.pegs = None if self.matching is None else _peg_info(x, self.matching)
        except NotUnicyclic:
            self.pegs = None


# The checks of ``hermix check`` in output order: name -> (applies, holds).
# A check reports skip on every graph where ``applies`` is false.
CHECKS: dict[str, tuple[Callable[[GraphFacts], bool], Callable[[GraphFacts], bool]]] = {}


def _check(applies):
    def register(holds):
        CHECKS[holds.__name__] = (applies, holds)
        return holds
    return register


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


def run_check(name: str, facts: GraphFacts) -> str:
    """pass, fail or skip: the outcome of one registered check on one graph."""
    applies, holds = CHECKS[name]
    return ("pass" if holds(facts) else "fail") if applies(facts) else "skip"


def command_check(doc: GraphDocument, out) -> int:
    facts = GraphFacts(doc.to_graph(), CyclotomicContext(doc.alpha_order))
    # every check runs before anything is printed
    results = [(name, run_check(name, facts)) for name in CHECKS]
    failed = sum(1 for _, status in results if status == "fail")
    for name, status in results:
        print(f"{name}: {status}", file=out)
    if failed:
        print(f"result: FAILED ({failed} of {len(results)})", file=out)
        return 3
    print(f"result: ok ({len(results)} checks)", file=out)
    return 0


def command_gen(args, out) -> int:
    doc = generate_instance(args.seed, args.n, args.unicyclic)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(render_document(doc))
    print(f"wrote {args.output}", file=out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermix",
        description=(
            "Exact alpha-hermitian adjacency matrices of mixed graphs: "
            "determinants, combinatorial inverses, similarity certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="exact determinant of the hermitian matrix")
    p.add_argument("file")

    p = sub.add_parser(
        "inverse",
        help="exact inverse for a bipartite graph with unique perfect matching",
    )
    p.add_argument("file")
    p.add_argument(
        "--paths",
        action="store_true",
        help="also print the co-augmenting paths behind each entry",
    )

    p = sub.add_parser(
        "classify",
        help="decide +-1 diagonal similarity of the order-3 inverse "
        "to a hermitian adjacency matrix (unicyclic graphs)",
    )
    p.add_argument("file")
    p.add_argument("--basepoint", type=int, default=0)

    p = sub.add_parser("check", help="run the invariant suite on one document")
    p.add_argument("file")

    p = sub.add_parser("gen", help="generate a random instance document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unicyclic", action="store_true")
    p.add_argument("-o", "--output", required=True)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return command_gen(args, out)
        doc = _load(args.file)
        if args.command == "det":
            return command_det(doc, out)
        if args.command == "inverse":
            return command_inverse(doc, args.paths, out)
        if args.command == "classify":
            return command_classify(doc, args.basepoint, out)
        if args.command == "check":
            return command_check(doc, out)
        raise AssertionError(f"unhandled command {args.command}")
    except InternalCheckFailed as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 3
    except HermixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except MemoryError as exc:
        # a document too large for this machine is bad input, not a crash
        reason = str(exc) or "the input does not fit in memory"
        print(f"error: MemoryError: {reason}", file=err)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
