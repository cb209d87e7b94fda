"""Command line interface: det, inverse, classify, check, gen.

Exit codes: 0 success, 2 precondition violation (bad document, graph outside
an operation's domain, input too large for memory), 3 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .checks import CHECKS, GraphFacts, run_check
from .cyclotomic import CyclotomicContext, real_value
from .documents import GraphDocument, generate_instance, parse_graph, render_document
from .errors import HermixError, InternalCheckFailed, InvalidParameter, ParseError
from .inverse import _inverse_upm
from .matching import _coaug_sign, ensure_class_h, paths_by_pair
from .spectral import det_via_elementary
from .unicyclic import NotSimilar, classify_gamma_similarity


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
    # the matrix holds one object per value, so each value is rendered once;
    # the rest of a row is zero
    distinct = {id(v): v for row in inv.rows for v in row.values()}
    text = {key: v.to_polynomial_string() for key, v in distinct.items()}
    blank = ctx.zero().to_polynomial_string()
    lines = [f"alpha_order = {doc.alpha_order}\ninverse:\n"]
    for row in inv.rows:
        cells = [blank] * x.n
        for j, v in row.items():
            cells[j] = text[id(v)]
        lines.append(f"[{', '.join(cells)}]\n")
    print("".join(lines), end="", file=out)
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
    except HermixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 3 if isinstance(exc, InternalCheckFailed) else 2
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
