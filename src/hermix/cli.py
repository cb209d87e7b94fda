"""Command line interface: det, inverse, classify, check, gen.

Exit codes: 0 success, 2 precondition violation (bad document, graph outside
an operation's domain), 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cyclotomic import CyclotomicContext
from .documents import GraphDocument, generate_instance, parse_graph, render_document
from .errors import (
    HermixError,
    InternalCheckFailed,
    InvalidParameter,
    NotInClassH,
    NotUnicyclic,
    ParseError,
)
from .graph import unique_cycle
from .inverse import coaug_count_matrix, inverse_bipartite_upm, inverse_entry_general, orient_nonmatching
from .matching import co_augmenting_paths, ensure_class_h
from .spectral import (
    DEFAULT_LEIBNIZ_CAP,
    _leibniz_cap,
    det_leibniz,
    det_via_elementary,
    h_alpha_matrix,
    numeric_inverse,
)
from .unicyclic import (
    NotSimilar,
    Similar,
    classify_gamma_similarity,
    exhaustive_diag_similarity,
    peg_info,
)

NUMERIC_AGREEMENT = 1e-9


def format_complex(z: complex) -> str:
    re = 0.0 if abs(z.real) < 5e-13 else z.real
    im = 0.0 if abs(z.imag) < 5e-13 else z.imag
    re_s = format(re, ".10g")
    if re_s == "-0":
        re_s = "0"
    if im == 0.0:
        return re_s
    im_s = format(abs(im), ".10g")
    return f"{re_s}{'-' if im < 0 else '+'}{im_s}i"


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
        f"det = {det.to_polynomial_string()} ({format_complex(det.to_complex())})",
        file=out,
    )
    return 0


def command_inverse(doc: GraphDocument, show_paths: bool, out) -> int:
    x = doc.to_graph()
    ctx = CyclotomicContext(doc.alpha_order)
    report = inverse_bipartite_upm(x, ctx)
    print(f"alpha_order = {doc.alpha_order}", file=out)
    print("inverse:", file=out)
    for i in range(x.n):
        row = ", ".join(
            report.matrix.entry(i, j).to_polynomial_string() for j in range(x.n)
        )
        print(f"[{row}]", file=out)
    if show_paths:
        for i in range(x.n):
            for j in range(i + 1, x.n):
                contribs = report.contributions.get((i, j), ())
                if not contribs:
                    continue
                print(f"paths {i} -> {j}:", file=out)
                for path, sign in contribs:
                    print(f"  {'+1' if sign == 1 else '-1'}  {path}", file=out)
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
    x = doc.to_graph()
    ctx = CyclotomicContext(doc.alpha_order)
    h = h_alpha_matrix(x, ctx)
    results: list[tuple[str, str]] = []

    det_exact = det_via_elementary(x, ctx)
    if x.n <= _leibniz_cap(None):
        ok = det_exact == det_leibniz(h)
        results.append(("det_elementary_vs_leibniz", "pass" if ok else "fail"))
    else:
        results.append(("det_elementary_vs_leibniz", "skip"))
    numeric_det = complex(np.linalg.det(h.to_complex())) if x.n else complex(1)
    ok = abs(det_exact.to_complex() - numeric_det) <= NUMERIC_AGREEMENT
    results.append(("det_elementary_vs_numeric", "pass" if ok else "fail"))

    try:
        m = ensure_class_h(x)
    except NotInClassH:
        m = None
    if m is None:
        for name in (
            "det_sign_law",
            "inverse_identity",
            "inverse_zero_diagonal",
            "inverse_vs_numeric",
            "inverse_vs_general_formula",
            "coaugmenting_counts",
        ):
            results.append((name, "skip"))
        report = None
    else:
        want = ctx.from_rational(1 if (x.n // 2) % 2 == 0 else -1)
        results.append(("det_sign_law", "pass" if det_exact == want else "fail"))
        report = inverse_bipartite_upm(x, ctx)
        product = report.matrix.multiply(h)
        one, zero = ctx.one(), ctx.zero()
        ok = all(
            product[i][j] == (one if i == j else zero)
            for i in range(x.n)
            for j in range(x.n)
        )
        results.append(("inverse_identity", "pass" if ok else "fail"))
        ok = all(report.matrix.entry(i, i).is_zero() for i in range(x.n))
        results.append(("inverse_zero_diagonal", "pass" if ok else "fail"))
        if x.n:
            diff = np.abs(report.matrix.to_complex() - numeric_inverse(h)).max()
        else:
            diff = 0.0
        results.append(
            ("inverse_vs_numeric", "pass" if diff <= NUMERIC_AGREEMENT else "fail")
        )
        ok = all(
            inverse_entry_general(x, ctx, i, j) == report.matrix.entry(i, j)
            for i in range(x.n)
            for j in range(x.n)
            if i != j
        )
        results.append(("inverse_vs_general_formula", "pass" if ok else "fail"))
        g = x.underlying()
        counts = coaug_count_matrix(g, m)
        ctx2 = CyclotomicContext(2)
        oriented_inv = inverse_bipartite_upm(orient_nonmatching(g, m), ctx2).matrix
        ok = all(
            oriented_inv.entry(i, j) == counts[i][j]
            for i in range(x.n)
            for j in range(x.n)
        )
        results.append(("coaugmenting_counts", "pass" if ok else "fail"))

    unicyclic = True
    try:
        unique_cycle(x)
    except NotUnicyclic:
        unicyclic = False
    if m is not None and unicyclic:
        info = peg_info(x, m)
        ok = len(info.pegs) >= 2
        if len(info.pegs) > 2:
            ok = ok and all(
                len(co_augmenting_paths(x, m, i, j)) <= 1
                for i in range(x.n)
                for j in range(i + 1, x.n)
            )
        else:
            peg_edges = set(info.pegs)
            for i in range(x.n):
                for j in range(i + 1, x.n):
                    paths = co_augmenting_paths(x, m, i, j)
                    if len(paths) == 2:
                        for path in paths:
                            steps = {
                                (min(u, v), max(u, v))
                                for u, v in zip(path, path[1:])
                            }
                            ok = ok and peg_edges <= steps
        results.append(("peg_structure", "pass" if ok else "fail"))
        if x.n <= 16:
            verdict = classify_gamma_similarity(x)
            found = exhaustive_diag_similarity(
                inverse_bipartite_upm(x, CyclotomicContext(3)).matrix
            )
            ok = isinstance(verdict, Similar) == (found is not None)
            results.append(("similarity_vs_exhaustive", "pass" if ok else "fail"))
        else:
            results.append(("similarity_vs_exhaustive", "skip"))
    else:
        results.append(("peg_structure", "skip"))
        results.append(("similarity_vs_exhaustive", "skip"))

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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
