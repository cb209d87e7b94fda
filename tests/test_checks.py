"""The checks of `hermix check`, run one at a time through `run_check` on a
graph's facts, and the helpers that only they use."""

import copy
import itertools
import random

import numpy as np

import hermix.checks as checks
from hermix import (
    CyclotomicContext,
    DiagonalSigns,
    ExactHermitianMatrix,
    NotSimilar,
    Obstruction,
    Similar,
    ensure_class_h,
    exhaustive_diag_similarity,
    parse_graph,
)
from hermix.graph import simple_paths
from hermix.inverse import _adjugate_row, _inverse_upm, orient_nonmatching
from hermix.spectral import det_via_elementary

from conftest import (
    DATA,
    DESK_NAMES,
    c4_four_pendants,
    c6_two_pendants,
    coaug_paths_oracle,
    h_corpus,
    triangular_graph,
)


def test_general_formula_check_fails_on_altered_facts():
    doc = parse_graph((DATA / "c6_two_pendants.json").read_text())
    facts = checks.GraphFacts(doc.to_graph(), CyclotomicContext(doc.alpha_order))
    assert checks.run_check("inverse_vs_general_formula", facts) == "pass"
    # one hermitian pair of the inverse doubled, the rest as it was
    rows = [dict(row) for row in facts.inverse.rows]
    i, j = 5, max(rows[5])
    rows[i][j], rows[j][i] = 2 * rows[i][j], 2 * rows[j][i]
    altered = copy.copy(facts)
    altered.inverse = ExactHermitianMatrix(facts.ctx, rows)
    assert checks.run_check("inverse_vs_general_formula", altered) == "fail"
    # a hermitian pair inserted where the inverse stores none, then a stored pair
    # deleted (the constructor drops a zero): a comparison that reads only one
    # side's keys passes one of them
    absent = next(k for k in range(doc.n) if k != i and k not in facts.inverse.rows[i])
    for k, value in ((absent, facts.ctx.one()), (j, facts.ctx.zero())):
        rows = [dict(row) for row in facts.inverse.rows]
        rows[i][k] = rows[k][i] = value
        altered = copy.copy(facts)
        altered.inverse = ExactHermitianMatrix(facts.ctx, rows)
        assert checks.run_check("inverse_vs_general_formula", altered) == "fail"
    altered = copy.copy(facts)
    altered.det = -facts.det
    assert checks.run_check("inverse_vs_general_formula", altered) == "fail"


def test_general_formula_check_sums_the_co_augmenting_paths(monkeypatch):
    # check 7 sums the formula over exactly the co-augmenting i..j paths with i < j;
    # every other path of the full walk, in either direction, has a zero minor, so
    # that sum is the paper's formula read whole
    docs = [parse_graph((DATA / f"{name}.json").read_text()) for name in DESK_NAMES]
    graphs = [(doc.to_graph(), doc.alpha_order) for doc in docs]
    for unicyclic, seed0 in ((False, 300), (True, 400)):
        for doc in h_corpus(24, sizes=(6, 8, 10, 12), unicyclic=unicyclic, seed0=seed0):
            graphs.append((doc.to_graph(), 2 + len(graphs) % 5))
    graphs += [(triangular_graph(k, s), 3) for k in range(1, 7) for s in (1, 2)]
    taken = []

    def spy_row(x, ctx, paths, minors):
        paths = list(paths)
        taken.extend(paths)
        return _adjugate_row(x, ctx, paths, minors)

    monkeypatch.setattr(checks, "_adjugate_row", spy_row)
    even_and_zero = 0
    for x, order in graphs:
        ctx, m, zero = CyclotomicContext(order), ensure_class_h(x), {}
        taken.clear()
        assert checks.run_check("inverse_vs_general_formula", checks.GraphFacts(x, ctx)) == "pass"
        coaug = [p for i in range(x.n) for j in range(i + 1, x.n) for p in coaug_paths_oracle(x, m, i, j)]
        assert sorted(taken) == sorted(coaug)
        either_way = {*coaug, *(p[::-1] for p in coaug)}
        for i in range(x.n):
            for p in simple_paths(x.adjacency, i, None, bytearray(x.n)):
                if p not in either_way:
                    key = frozenset(p)
                    if key not in zero:
                        zero[key] = det_via_elementary(x, ctx, p).is_zero()
                    assert zero[key], p
                    even_and_zero += not len(p) % 2
    # zero by the unique matching, not by parity: P4's path 1, 2 among them
    assert even_and_zero > 0


def test_general_formula_check_fails_on_a_dropped_path():
    # a co-augmenting path dropped from a pair i < j changes that pair's sum; one
    # dropped from a pair i > j is left to check 8, which counts every pair
    doc = parse_graph((DATA / "c6_two_pendants.json").read_text())
    ctx = CyclotomicContext(doc.alpha_order)
    for below, bag_size in itertools.product((True, False), (1, 2)):
        facts = checks.GraphFacts(doc.to_graph(), ctx)
        assert checks.run_check("inverse_vs_general_formula", facts) == "pass"
        pair, bag = next(
            (p, b) for p, b in sorted(facts.paths.items()) if (p[0] < p[1]) == below and len(b) == bag_size
        )
        facts.paths[pair] = bag[1:]
        assert checks.run_check("inverse_vs_general_formula", facts) == ("fail" if below else "pass")
        assert checks.run_check("coaugmenting_counts", facts) == "fail"


def test_coaugmenting_counts_fails_on_a_wrong_path_list():
    # the recurrence's counts are compared with the listed paths pair by pair:
    # a path missing from one bag, or a pair with no path listed, is caught
    doc = parse_graph((DATA / "c6_two_pendants.json").read_text())
    n, ctx = doc.n, CyclotomicContext(doc.alpha_order)
    for bag_size in (1, 2):
        facts = checks.GraphFacts(doc.to_graph(), ctx)
        assert checks.run_check("coaugmenting_counts", facts) == "pass"
        pair, bag = next((p, b) for p, b in sorted(facts.paths.items()) if len(b) == bag_size)
        facts.paths[pair] = bag[1:]
        assert checks.run_check("coaugmenting_counts", facts) == "fail"
    facts = checks.GraphFacts(doc.to_graph(), ctx)
    spurious = next((i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in facts.paths)
    facts.paths[spurious] = [spurious]
    assert checks.run_check("coaugmenting_counts", facts) == "fail"


def test_gf2_solver():
    # x_i + x_j = b: round a triangle of -1 signs (b = 1) the sum is odd
    assert not checks._gf2_solvable(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert checks._gf2_solvable(3, [(0, 1, 1), (1, 2, 1), (0, 2, 0)])
    # a nonzero diagonal entry is refused, whatever its sign
    assert not checks._gf2_solvable(3, [(0, 1, 0), (1, 1, 0)])
    assert not checks._gf2_solvable(3, [(2, 2, 1)])
    # against every assignment, with components merged in both size orders
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        cons = [
            (rng.randrange(n), rng.randrange(n), rng.randint(0, 1))
            for _ in range(rng.randint(0, 8))
        ]
        brute = any(
            all(i != j and x[i] ^ x[j] == b for i, j, b in cons)
            for x in itertools.product((0, 1), repeat=n)
        )
        assert checks._gf2_solvable(n, cons) == brute, (n, cons)


def test_similarity_check_agrees_with_exhaustive_search():
    # the GF(2) decision against the 2^(n-1) sweep, at orders 2-6 (the check
    # builds the order-3 inverse itself away from order 3)
    seen = set()
    for k, doc in enumerate(h_corpus(60, sizes=(6, 8, 10, 12, 14, 16), unicyclic=True, seed0=7000)):
        facts = checks.GraphFacts(doc.to_graph(), CyclotomicContext(2 + k % 5))
        assert checks.run_check("similarity_vs_gf2", facts) == "pass"
        order3 = _inverse_upm(facts.x, CyclotomicContext(3), facts.matching)
        similar = checks._gf2_similar(order3)
        assert similar == (exhaustive_diag_similarity(order3) is not None)
        seen.add((similar, len(facts.pegs.pegs) > 2))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_similarity_check_fails_on_a_wrong_verdict_or_diagonal(monkeypatch):
    ctx = CyclotomicContext(3)
    many_pegs = checks.GraphFacts(c4_four_pendants(), ctx)  # four pegs, Similar
    two_pegs = checks.GraphFacts(c6_two_pendants(), ctx)  # NotSimilar
    for facts in (many_pegs, two_pegs):
        assert checks.run_check("similarity_vs_gf2", facts) == "pass"
    classify = checks._classify

    def flipped(x, info, hinv, basepoint):
        if isinstance(classify(x, info, hinv, basepoint), Similar):
            return NotSimilar(Obstruction.ODD_PARITY)
        return Similar(DiagonalSigns((1,) * x.n, basepoint), x, hinv)

    monkeypatch.setattr(checks, "_classify", flipped)
    for facts in (many_pegs, two_pegs):
        assert checks.run_check("similarity_vs_gf2", facts) == "fail"
    monkeypatch.undo()
    signs = checks.sign_assignment

    def one_flipped(g, m, basepoint):
        d = signs(g, m, basepoint)
        return DiagonalSigns((*d.signs[:-1], -d.signs[-1]), d.basepoint)

    monkeypatch.setattr(checks, "sign_assignment", one_flipped)
    assert checks.run_check("similarity_vs_gf2", many_pegs) == "fail"


def test_peg_structure_fails_on_a_wrong_two_peg_value(monkeypatch):
    facts = checks.GraphFacts(c6_two_pendants(), CyclotomicContext(3))
    assert any(len(bag) == 2 for bag in facts.paths.values())
    assert checks.run_check("peg_structure", facts) == "pass"
    value = checks._two_peg_value
    monkeypatch.setattr(checks, "_two_peg_value", lambda *args: value(*args) + 1)
    assert checks.run_check("peg_structure", facts) == "fail"


def test_check_compares_the_inverse_relatively(monkeypatch):
    # oriented, the order-2 inverse counts co-augmenting paths: entries up to 8
    x = triangular_graph(5, 1).underlying()
    facts = checks.GraphFacts(orient_nonmatching(x, ensure_class_h(x)), CyclotomicContext(2))
    exact = facts.inverse.to_complex()
    assert np.abs(exact).max() == 8
    for scale, status in ((1 + 5e-10, "pass"), (1 + 2e-9, "fail")):
        monkeypatch.setattr(checks, "numeric_inverse", lambda h: exact * scale)
        assert checks.run_check("inverse_vs_numeric", facts) == status
