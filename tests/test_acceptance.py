"""Acceptance gate: ten end-to-end criteria, one visible pass/fail line each.

Each criterion prints ``criterion N: PASS/FAIL - label`` (passed through to the
terminal by the tee-sys capture configured in pyproject.toml), then asserts.
Tolerances are pinned: exact equality for every combinatorial identity, 1e-9
for numeric agreement.
"""

import io
import random
import time

import hermix.checks as checks
import hermix.cli as cli
from hermix import (
    CyclotomicContext,
    HermixError,
    Similar,
    SignedPower,
    check_her,
    classify_entry,
    classify_gamma_similarity,
    co_augmenting_paths,
    det_via_elementary,
    ensure_class_h,
    exhaustive_diag_similarity,
    h_alpha_matrix,
    inverse_bipartite_upm,
    inverse_entry_general,
    numeric_inverse,
    peg_info,
    two_peg_entry,
)
from hermix.errors import NumericallySingular

from conftest import (
    c6_two_pendants,
    c8_two_adjacent_pendants,
    cli_cases,
    coaug_paths_oracle,
    h_corpus,
    pentagon_tail,
    random_mixed_graph,
    two_peg_instance,
    cycle_with_pendants,
)

NUMERIC_TOL = 1e-9


def report(number: int, label: str, ok: bool) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line, flush=True)
    assert ok, line


def passes(facts: checks.GraphFacts, *names: str) -> bool:
    """Do these checks of `hermix check` all run, none skipped, and pass?"""
    return all(checks.run_check(name, facts) == "pass" for name in names)


def test_criterion_01_determinant_triple_agreement():
    started = time.monotonic()
    rng = random.Random(101)
    graphs = [random_mixed_graph(rng, rng.randint(1, 8)) for _ in range(100)]
    ok = True
    for x in graphs:
        for order in (2, 3, 4, 10):
            facts = checks.GraphFacts(x, CyclotomicContext(order))
            ok = ok and passes(facts, "det_elementary_vs_leibniz", "det_elementary_vs_numeric")
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 60.0
    report(1, f"determinant triple agreement, 100 graphs x 4 orders ({elapsed:.1f}s)", ok)


def _exactness_corpus():
    docs = h_corpus(100, sizes=(2, 4, 6, 8, 10, 12, 14), unicyclic=False, seed0=300)
    docs += h_corpus(100, sizes=(6, 8, 10, 12, 14), unicyclic=True, seed0=700)
    assert len(docs) == 200
    return docs


def test_criterion_02_class_determinant_law():
    ctx = CyclotomicContext(3)
    ok = True
    for doc in _exactness_corpus():
        ok = ok and passes(checks.GraphFacts(doc.to_graph(), ctx), "det_sign_law")
    # eight-vertex desk instance whose determinant is exactly 1
    ctx10 = CyclotomicContext(10)
    ok = ok and det_via_elementary(pentagon_tail(), ctx10) == ctx10.one()
    report(2, "det = (-1)^(n/2) on 200 generated instances; desk det 1 at n=8", ok)


def test_criterion_03_inverse_exactness():
    ctx = CyclotomicContext(3)
    ok = True
    for doc in _exactness_corpus():
        facts = checks.GraphFacts(doc.to_graph(), ctx)
        ok = ok and passes(facts, "inverse_identity", "inverse_zero_diagonal", "inverse_vs_numeric")
    report(3, "exact inverse * H = I, zero diagonal, numeric agreement <= 1e-9", ok)


def test_criterion_04_general_formula_agreement():
    rng = random.Random(404)
    ctx3, ctx10 = CyclotomicContext(3), CyclotomicContext(10)
    checked = 0
    outside_class = 0
    ok = True
    while checked < 50:
        x = random_mixed_graph(rng, rng.randint(2, 8))
        ctx = ctx10 if checked % 2 else ctx3
        if det_via_elementary(x, ctx).is_zero():
            continue
        try:
            reference = numeric_inverse(h_alpha_matrix(x, ctx))
        except NumericallySingular:
            continue
        checked += 1
        try:
            ensure_class_h(x)
        except HermixError:
            outside_class += 1
        for i in range(x.n):
            for j in range(x.n):
                if i == j:
                    continue
                exact = inverse_entry_general(x, ctx, i, j)
                ok = ok and abs(exact.to_complex() - reference[i][j]) <= NUMERIC_TOL
    ok = ok and outside_class >= 10
    report(
        4,
        f"path-sum inverse vs numeric on 50 invertible graphs ({outside_class} outside the class)",
        ok,
    )


def test_criterion_05_path_count_triple_agreement():
    ctx2 = CyclotomicContext(2)
    docs = h_corpus(50, sizes=(4, 6, 8, 10), unicyclic=False, seed0=1100)
    docs += h_corpus(50, sizes=(6, 8, 10, 12), unicyclic=True, seed0=1600)
    ok = len(docs) == 100
    for doc in docs:
        facts = checks.GraphFacts(doc.to_graph().underlying(), ctx2)
        ok = ok and passes(facts, "coaugmenting_counts")
        g, m = facts.x, facts.matching
        ok = ok and all(
            len(co_augmenting_paths(g, m, i, j)) == len(coaug_paths_oracle(g, m, i, j))
            for i in range(g.n)
            for j in range(g.n)
            if i != j
        )
    report(5, "co-augmenting counts = oracle enumeration = order-2 inverse, 100 instances", ok)


def test_criterion_06_sign_assignment_conjugation():
    trees = [
        d.to_graph().underlying()
        for d in h_corpus(60, sizes=(2, 4, 6, 8, 10, 12), unicyclic=False, seed0=2000)
    ]
    pool = [
        d.to_graph().underlying()
        for d in h_corpus(200, sizes=(8, 10, 12), unicyclic=True, seed0=2500)
    ]
    even = [g for g in pool if peg_info(g).unmatched_cycle_edge_count % 2 == 0][:40]
    instances = trees + even
    ok = len(instances) == 100
    for g in instances:
        m = ensure_class_h(g)
        ok = ok and check_her(g, m, 0)
        ok = ok and check_her(g, m, g.n - 1)
    report(6, "diagonal conjugation matches the oriented matrix on 100 even-parity instances", ok)


def test_criterion_07_peg_path_structure():
    docs = h_corpus(70, sizes=(6, 8, 10, 12, 14), unicyclic=True, seed0=3000)
    graphs = [d.to_graph() for d in docs]
    graphs += [
        two_peg_instance(m, r, seed, chain=chain)
        for m, r, seed, chain in [
            (2, 1, 1, False), (3, 1, 2, False), (3, 3, 3, True),
            (4, 1, 4, False), (4, 3, 5, True), (5, 3, 6, False),
        ]
    ]
    graphs += [
        cycle_with_pendants(3, (0, 1, 2, 3)),
        cycle_with_pendants(2, (0, 1, 2, 3)),
        cycle_with_pendants(4, tuple(range(8))),
        c8_two_adjacent_pendants(),
    ]
    while len(graphs) < 100:
        graphs.append(two_peg_instance(3, 3, 9000 + len(graphs)))
    ctx = CyclotomicContext(3)
    failing = sum(not passes(checks.GraphFacts(x, ctx), "peg_structure") for x in graphs[:100])
    report(7, f"peg structure on 100 unicyclic instances ({failing} failing)", failing == 0)


def test_criterion_08_two_peg_closed_form():
    ctx = CyclotomicContext(3)
    instances = []
    seed = 0
    while len(instances) < 50:
        m = 2 + seed % 4
        r = (1, 3, 1, 5)[seed % 4]
        instances.append(two_peg_instance(m, r, seed, chain=seed % 3 == 0))
        seed += 1
    ok = True
    pairs_checked = 0
    for x in instances:
        match = ensure_class_h(x)
        inv = inverse_bipartite_upm(x, ctx)
        for i in range(x.n):
            for j in range(i + 1, x.n):
                paths = co_augmenting_paths(x, match, i, j)
                if len(paths) != 2:
                    continue
                pairs_checked += 1
                for path in paths:
                    ok = ok and two_peg_entry(x, ctx, i, j, path=path) == inv.entry(i, j)
    ok = ok and pairs_checked >= 50
    # pinned branch values across cycle orientations: all-digon hexagon gives 2,
    # one forward cycle arc gives -gamma^2, the reversed arc gives -gamma
    ok = ok and two_peg_entry(c6_two_pendants(), ctx, 6, 7) == ctx.from_rational(2)
    forward = classify_entry(two_peg_entry(c6_two_pendants(cycle_arcs=((0, 1),)), ctx, 6, 7))
    backward = classify_entry(two_peg_entry(c6_two_pendants(cycle_arcs=((1, 0),)), ctx, 6, 7))
    ok = ok and forward == SignedPower(-1, 2) and backward == SignedPower(-1, 1)
    report(8, f"two-peg closed form = path sum on {pairs_checked} double-path pairs; branch values", ok)


def test_criterion_09_similarity_decision_vs_exhaustive():
    started = time.monotonic()
    ctx = CyclotomicContext(3)
    graphs = [
        cycle_with_pendants(2, (0, 1, 2, 3)),
        cycle_with_pendants(3, (0, 1, 2, 3)),
        cycle_with_pendants(3, tuple(range(6))),
        cycle_with_pendants(4, (0, 1, 2, 3, 4, 5)),
        c8_two_adjacent_pendants(),
        c8_two_adjacent_pendants(cycle_arcs=((2, 3),)),
        two_peg_instance(2, 1, 11),
        two_peg_instance(3, 3, 12, chain=True),
        two_peg_instance(4, 1, 13),
    ]
    graphs += [
        d.to_graph()
        for d in h_corpus(91, sizes=(6, 8, 10, 12, 14), unicyclic=True, seed0=4000)
    ]
    assert len(graphs) == 100 and all(x.n <= 14 for x in graphs)
    outcomes = {"similar": 0}
    ok = True
    for x in graphs:
        # the decision against GF(2) and against exhaustive search; the
        # certificate and tallies here
        ok = ok and passes(checks.GraphFacts(x, ctx), "similarity_vs_gf2")
        verdict = classify_gamma_similarity(x)
        found = exhaustive_diag_similarity(inverse_bipartite_upm(x, ctx))
        ok = ok and isinstance(verdict, Similar) == (found is not None)
        if isinstance(verdict, Similar):
            outcomes["similar"] += 1
            ok = ok and verdict.conjugated == h_alpha_matrix(verdict.graph, ctx)
            ok = ok and verdict.signs.signs[verdict.signs.basepoint] == 1
        else:
            key = verdict.reason.value
            outcomes[key] = outcomes.get(key, 0) + 1
    ok = ok and outcomes["similar"] > 0
    ok = ok and outcomes.get("exactly two pegs", 0) > 0
    ok = ok and outcomes.get("odd number of unmatched cycle edges", 0) > 0
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 300.0
    report(9, f"classification matches exhaustive search on 100 instances ({elapsed:.1f}s)", ok)


def test_criterion_10_cli_golden_stability(tmp_path):
    failed = []
    cases = cli_cases(tmp_path)
    for case in cases:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(list(case.argv), out=out, err=err)
            runs.append((code, out.getvalue(), err.getvalue()))
        if runs[0] != runs[1] or not case.holds(*runs[0]):
            failed.append(case.name)
    label = f"{len(cases)} CLI table cases, each run twice, byte-identical to their goldens"
    report(10, label + (f"; failed: {', '.join(failed)}" if failed else ""), not failed)
