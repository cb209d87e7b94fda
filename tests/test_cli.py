import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hermix
import hermix.cli as cli
import hermix.unicyclic as unicyclic
from hermix import (
    CyclotomicNumber,
    GraphDocument,
    InternalCheckFailed,
    InvalidParameter,
    ParseError,
    co_augmenting_paths,
    ensure_class_h,
    enumerate_paths,
    generate_instance,
    parse_graph,
    render_document,
    unique_cycle,
)
from hermix.checks import CHECKS
from hermix.documents import MAX_VERTICES
from hermix.inverse import _inverse_upm
from hermix.matching import paths_by_pair
from hermix.spectral import LEIBNIZ_CAP, det_via_elementary

from conftest import (
    DATA,
    cli_cases,
    disjoint_triangles,
    minor_can_be_nonzero,
    triangular_graph,
)

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_det_desk_output():
    code, out, err = run_cli(["det", str(DATA / "k2_digon.json")])
    assert code == 0
    assert out == "det = -1 (-1)\n"
    assert err == ""


def test_det_prints_a_real_approximation(tmp_path):
    # 20 disjoint 5-cycles, each with one arc, at order 5: each cycle is worth
    # 2 cos(2 pi / 5) = 1 / phi, so det = phi^-20 exactly
    digons = [[5 * t + a, 5 * t + a + 1] for t in range(20) for a in range(4)]
    arcs = [[5 * t, 5 * t + 4] for t in range(20)]
    doc = tmp_path / "pentagons.json"
    doc.write_text(json.dumps({"n": 100, "digons": digons, "arcs": arcs, "alpha_order": 5}))
    # phi^-20 = 6.6106961351...e-05; summed in floats the power basis printed
    # 6.610696073e-05, the sum cancelling ten digits of 10946
    assert run_cli(["det", str(doc)]) == (
        0, "det = 10946 + 6765a^2 + 6765a^3 (6.610696135e-05)\n", ""
    )


def test_det_missing_file_exit_2(tmp_path):
    code, out, err = run_cli(["det", str(tmp_path / "nope.json")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_det_unparsable_document_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    for content in (
        b'{"n": 2, "digons": [[0, 1]]}',  # no arcs, no alpha_order
        b"\xff\xfe{",  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the recursion limit
    ):
        bad.write_bytes(content)
        code, out, err = run_cli(["det", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError") and err.count("\n") == 1


def test_repeated_field_exit_2(tmp_path):
    # json.loads alone keeps the last value, so this would print det = 0, exit 0
    doc = tmp_path / "repeated.json"
    doc.write_text('{"n": 2, "n": 3, "digons": [], "arcs": [], "alpha_order": 3}')
    code, out, err = run_cli(["det", str(doc)])
    assert code == 2
    assert out == ""
    assert err == "error: ParseError: field 'n' appears more than once\n"


def test_classify_requires_order_3(tmp_path):
    doc = parse_graph((DATA / "c4_four_pendants.json").read_text())
    target = tmp_path / "c4_order5.json"
    target.write_text(render_document(replace(doc, alpha_order=5)))
    code, out, err = run_cli(["classify", str(target)])
    assert code == 2
    assert out == ""
    assert err == "error: InvalidParameter: classify needs alpha_order 3, got 5\n"
    # check keeps running its order-3 similarity check on any document
    code, out, _ = run_cli(["check", str(target)])
    assert code == 0
    assert "similarity_vs_gf2: pass" in out.splitlines()


def test_classify_tree_exit_2():
    code, out, err = run_cli(["classify", str(DATA / "p4.json")])
    assert code == 2
    assert out == ""
    assert "NotUnicyclic" in err


def plain_c4(tmp_path) -> Path:
    """A document outside class H: the plain 4-cycle has two perfect matchings."""
    doc = tmp_path / "c4.json"
    doc.write_text(
        '{"n": 4, "digons": [[0, 1], [1, 2], [2, 3], [0, 3]], '
        '"arcs": [], "alpha_order": 3}'
    )
    return doc


def test_inverse_outside_class_exit_2(tmp_path):
    code, _, err = run_cli(["inverse", str(plain_c4(tmp_path))])
    assert code == 2
    assert "NotInClassH" in err


def test_class_h_need_not_be_connected(tmp_path):
    # two disjoint edges: bipartite with one perfect matching, but not connected
    doc = tmp_path / "two_edges.json"
    doc.write_text('{"n": 4, "digons": [[0, 1], [2, 3]], "arcs": [], "alpha_order": 3}')
    inverse = "[0, 1, 0, 0]\n[1, 0, 0, 0]\n[0, 0, 0, 1]\n[0, 0, 1, 0]\n"
    assert run_cli(["inverse", str(doc)]) == (0, f"alpha_order = 3\ninverse:\n{inverse}", "")
    # checks 9 and 10 need a unicyclic graph, which a disconnected one is not
    check = (
        "det_elementary_vs_leibniz: pass\n"
        "det_elementary_vs_numeric: pass\n"
        "det_sign_law: pass\n"
        "inverse_identity: pass\n"
        "inverse_zero_diagonal: pass\n"
        "inverse_vs_numeric: pass\n"
        "inverse_vs_general_formula: pass\n"
        "coaugmenting_counts: pass\n"
        "peg_structure: skip\n"
        "similarity_vs_gf2: skip\n"
        "result: ok (10 checks)\n"
    )
    assert run_cli(["check", str(doc)]) == (0, check, "")


def patch_every_holder(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a hermix module holds ``original``;
    modules import each other's functions by name."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "hermix" or name.startswith("hermix."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_internal_invariant_failure_exit_3(monkeypatch):
    def boom(x, info, hinv, basepoint):
        raise InternalCheckFailed("synthetic")

    # classify and check both reach the classification through _classify
    patch_every_holder(monkeypatch, unicyclic._classify, boom)
    for command in ("classify", "check"):  # check prints nothing until every check has run
        code, out, err = run_cli([command, str(DATA / "c4_four_pendants.json")])
        assert code == 3
        assert out == ""
        assert err == "error: InternalCheckFailed: synthetic\n"


def test_inverse_paths_listing():
    code, out, _ = run_cli(["inverse", "--paths", str(DATA / "p4.json")])
    assert code == 0
    lines = out.splitlines()
    assert "paths 0 -> 1:" in lines
    assert "  +1  (0, 1)" in lines
    assert "paths 0 -> 3:" in lines
    assert "  -1  (0, 1, 2, 3)" in lines
    # zero entries list nothing
    assert "paths 0 -> 2:" not in lines


def test_inverse_render_matches_entrywise_render(monkeypatch, tmp_path):
    doc = tmp_path / "n70.json"
    doc.write_text(render_document(replace(generate_instance(7, 70, unicyclic=True), alpha_order=3)))
    built, rendered, hashes = [], [], []

    def upm_kept(g, ctx, m):
        built.append(_inverse_upm(g, ctx, m))
        return built[-1]

    def counted(self):
        rendered.append(self)
        return render(self)

    def hashed(self):
        hashes.append(self)
        return hash_value(self)

    render, hash_value = CyclotomicNumber.to_polynomial_string, CyclotomicNumber.__hash__
    patch_every_holder(monkeypatch, _inverse_upm, upm_kept)
    monkeypatch.setattr(CyclotomicNumber, "to_polynomial_string", counted)
    monkeypatch.setattr(CyclotomicNumber, "__hash__", hashed)
    code, out, _ = run_cli(["inverse", str(doc)])
    assert code == 0
    monkeypatch.undo()
    (inv,) = built
    rows = [", ".join(render(inv.entry(i, j)) for j in range(70)) for i in range(70)]
    assert out == "alpha_order = 3\ninverse:\n" + "".join(f"[{row}]\n" for row in rows)
    # each distinct nonzero value is rendered once, and zero once, not each
    # of the 4,900 entries; no entry is hashed on the way
    distinct = {(v.nums, v.den) for row in inv.rows for v in row.values()}
    assert len(rendered) == len(distinct) + 1 < 100
    assert hashes == []


def test_classify_basepoint_flag():
    code, out, _ = run_cli(
        ["classify", "--basepoint", "3", str(DATA / "c4_four_pendants.json")]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Similar"
    assert "basepoint = 3" in lines
    d = [int(s) for s in lines[1].removeprefix("D = [").removesuffix("]").split(", ")]
    assert d[3] == 1


def test_check_desk_document_all_pass():
    code, out, _ = run_cli(["check", str(DATA / "c6_two_pendants.json")])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "result: ok (10 checks)"
    assert all(line.endswith(": pass") for line in lines[:-1])


def test_class_h_certified_once_per_call(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return ensure_class_h(x)

    patch_every_holder(monkeypatch, ensure_class_h, counted)
    for argv in (["inverse"], ["inverse", "--paths"], ["classify"], ["check"]):
        calls.clear()
        code, _, _ = run_cli([*argv, str(DATA / "c6_two_pendants.json")])
        assert (argv, code, len(calls)) == (argv, 0, 1)


def test_paths_listed_only_where_read(monkeypatch):
    # the inverse comes from the row recurrence; only --paths and check list
    # co-augmenting paths, one search per source vertex
    calls = []

    def counted(*args):
        calls.append(args)
        return co_augmenting_paths(*args)

    patch_every_holder(monkeypatch, co_augmenting_paths, counted)
    doc = DATA / "c6_two_pendants.json"
    n = parse_graph(doc.read_text()).n
    for argv, count in (
        (["inverse"], 0),
        (["classify"], 0),
        (["check"], n),
        (["inverse", "--paths"], n),
    ):
        calls.clear()
        code, _, _ = run_cli([*argv, str(doc)])
        assert (argv, code, len(calls)) == (argv, 0, count)


def test_check_computes_shared_facts_once(monkeypatch, tmp_path):
    # one full determinant, no field inverse, one order-3 inverse and one listing
    # of the co-augmenting paths per call, whether the document's own inverse is
    # the order-3 one or not; and one adjugate minor per distinct vertex set of a
    # path whose minor can be nonzero. Outside class H neither paths nor minors
    full_dets, inverses, order3, listings, minors = [], [], [], [], []
    doc = parse_graph((DATA / "c6_two_pendants.json").read_text())
    x = doc.to_graph()
    path_sets = {
        frozenset(p)
        for i in range(x.n)
        for j in range(i + 1, x.n)
        for p in enumerate_paths(x, i, j)
        if minor_can_be_nonzero(x, p)
    }

    def det_counted(g, ctx, drop=()):
        # a minor of the adjugate covers its path: only an empty drop is a full det
        (minors if drop else full_dets).append(frozenset(drop))
        return det_via_elementary(g, ctx, drop)

    def inv_counted(self):
        inverses.append(self)
        return field_inverse(self)

    def upm_counted(g, ctx, m):
        if ctx.order == 3:
            order3.append(g)
        return _inverse_upm(g, ctx, m)

    def paths_counted(g, m):
        listings.append(g)
        return paths_by_pair(g, m)

    field_inverse = CyclotomicNumber.inv
    monkeypatch.setattr(CyclotomicNumber, "inv", inv_counted)
    patch_every_holder(monkeypatch, det_via_elementary, det_counted)
    patch_every_holder(monkeypatch, _inverse_upm, upm_counted)
    patch_every_holder(monkeypatch, paths_by_pair, paths_counted)
    order5 = tmp_path / "c6_order5.json"
    order5.write_text(render_document(replace(doc, alpha_order=5)))
    assert doc.alpha_order == 3
    for path, counts, minor_sets in (
        (DATA / "c6_two_pendants.json", (1, 0, 1, 1), path_sets),
        (order5, (1, 0, 1, 1), path_sets),
        (plain_c4(tmp_path), (1, 0, 0, 0), set()),
    ):
        for calls in (full_dets, inverses, order3, listings, minors):
            calls.clear()
        code, out, _ = run_cli(["check", str(path)])
        assert (code, out.splitlines()[-1]) == (0, "result: ok (10 checks)")
        assert (len(full_dets), len(inverses), len(order3), len(listings)) == counts
        assert len(minors) == len(set(minors)) and set(minors) == minor_sets


def test_check_on_dense_triangular_documents(tmp_path):
    # triangular_graph(9, 1) has 16,479,072 ordered simple paths; check 7 walks
    # 284,236 of them, below which a minor can be nonzero, and ends in about a second
    for seed in (1, 2):
        x = triangular_graph(9, seed)
        doc = tmp_path / f"triangular9_{seed}.json"
        doc.write_text(
            render_document(GraphDocument(x.n, tuple(x.digons), tuple(x.arcs), alpha_order=3))
        )
        code, out, err = run_cli(["check", str(doc)])
        assert (code, err, out.splitlines()[-1]) == (0, "", "result: ok (10 checks)")


def test_check_reports_a_failing_check(monkeypatch):
    applies, _ = CHECKS["inverse_vs_numeric"]
    monkeypatch.setitem(CHECKS, "inverse_vs_numeric", (applies, lambda facts: False))
    code, out, err = run_cli(["check", str(DATA / "c6_two_pendants.json")])
    lines = out.splitlines()
    assert (code, err, len(lines)) == (3, "", 11)
    assert lines[5] == "inverse_vs_numeric: fail"
    assert sum(line.endswith(": pass") for line in lines) == 9
    assert lines[-1] == "result: FAILED (1 of 10)"


def test_check_skips_outside_class(tmp_path):
    code, out, _ = run_cli(["check", str(plain_c4(tmp_path))])
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines()[:-1])
    assert lines["det_elementary_vs_leibniz"] == "pass"
    assert lines["inverse_identity"] == "skip"
    assert lines["coaugmenting_counts"] == "skip"
    assert lines["peg_structure"] == "skip"
    assert lines["similarity_vs_gf2"] == "skip"


def test_check_skips_above_oracle_caps(tmp_path):
    # the exponential Leibniz oracle runs up to its fixed cap and skips beyond
    # it; the GF(2) similarity check has no cap
    assert LEIBNIZ_CAP == 10
    for check, n, status in (
        ("det_elementary_vs_leibniz", 10, "pass"),
        ("det_elementary_vs_leibniz", 12, "skip"),
        ("similarity_vs_gf2", 16, "pass"),
        ("similarity_vs_gf2", 18, "pass"),
        ("similarity_vs_gf2", 20, "pass"),
    ):
        doc = tmp_path / f"u{n}.json"
        doc.write_text(render_document(generate_instance(3, n, unicyclic=True)))
        code, out, _ = run_cli(["check", str(doc)])
        assert code == 0
        assert f"{check}: {status}" in out.splitlines()


def test_gen_is_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code, out, _ = run_cli(["gen", "--seed", "5", "--n", "8", "-o", str(first)])
    assert code == 0
    assert out == f"wrote {first}\n"
    run_cli(["gen", "--seed", "5", "--n", "8", "-o", str(second)])
    assert first.read_bytes() == second.read_bytes()

    doc = parse_graph(first.read_text())
    assert doc.n == 8 and doc.alpha_order == 3
    ensure_class_h(doc.to_graph())


def test_generated_corpus_digest():
    # every benchmark document comes from generate_instance; a change to the
    # generator's output changes this digest
    digest = hashlib.sha256()
    for seed in range(1, 21):
        for n in (8, 40, 160):
            for unicyclic in (False, True):
                digest.update(render_document(generate_instance(seed, n, unicyclic)).encode())
    assert digest.hexdigest() == "ce9544d38d31e0131f22bd90e3716258d0df8ae21826efeacb717a666a610a6a"


def test_gen_unicyclic_flag(tmp_path):
    target = tmp_path / "u.json"
    code, _, _ = run_cli(
        ["gen", "--seed", "3", "--n", "10", "--unicyclic", "-o", str(target)]
    )
    assert code == 0
    x = parse_graph(target.read_text()).to_graph()
    ensure_class_h(x)
    unique_cycle(x)


def test_gen_odd_order_exit_2(tmp_path):
    code, _, err = run_cli(["gen", "--seed", "1", "--n", "7", "-o", str(tmp_path / "x")])
    assert code == 2
    assert "InvalidParameter" in err


def test_parse_error_details():
    with pytest.raises(ParseError, match="alpha_order"):
        parse_graph('{"n": 2, "digons": [[0, 1]], "arcs": []}')
    with pytest.raises(ParseError, match="pair"):
        parse_graph('{"n": 2, "digons": [[0, 1, 2]], "arcs": [], "alpha_order": 3}')
    with pytest.raises(ParseError):
        parse_graph("not json at all")
    # JSON booleans are not integers
    for doc, field in (
        ('{"n": true, "digons": [], "arcs": [], "alpha_order": 3}', "'n'"),
        ('{"n": 2, "digons": [], "arcs": [], "alpha_order": true}', "alpha_order"),
        ('{"n": 2, "digons": [[false, true]], "arcs": [], "alpha_order": 3}', "pair"),
        ('{"n": 2, "digons": [], "arcs": [[0, true]], "alpha_order": 3}', "pair"),
        # CyclotomicContext would tabulate an order x phi(order) table
        ('{"n": 2, "digons": [], "arcs": [], "alpha_order": 1001}', "'alpha_order'.* 1 to 1000"),
    ):
        with pytest.raises(ParseError, match=field):
            parse_graph(doc)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
@pytest.mark.parametrize("command", ["det", "inverse", "classify", "check"])
def test_integer_over_the_digit_limit_exit_2(tmp_path, command):
    # json.loads raises a plain ValueError on such a literal, not JSONDecodeError;
    # json.dumps refuses it too, so the documents are written as text
    limit = sys.get_int_max_str_digits()
    digits = "9" * max(5000, limit + 1)
    doc = tmp_path / "long.json"
    for text in (
        f'{{"n": {digits}, "digons": [], "arcs": [], "alpha_order": 3}}',
        f'{{"n": 2, "digons": [[0, {digits}]], "arcs": [], "alpha_order": 3}}',
    ):
        doc.write_text(text)
        want = f"error: ParseError: an integer has over {limit} digits\n"
        assert run_cli([command, str(doc)]) == (2, "", want)


def test_check_compares_the_determinant_relatively(tmp_path, monkeypatch):
    # numpy's det of 2^30 is off by about 1e-5 (1e-14 relative); float64's
    # spacing there is 2.4e-7, so only a bound of 1e-9 * max(1, |numeric|) holds
    doc = disjoint_triangles(tmp_path, 30)
    code, out, err = run_cli(["check", doc])
    assert (code, err) == (0, "")
    assert "det_elementary_vs_numeric: pass" in out.splitlines()
    assert out.splitlines()[-1] == "result: ok (10 checks)"
    monkeypatch.setattr(np.linalg, "det", lambda a: 2.0**30 * (1 + 2e-9))
    code, out, _ = run_cli(["check", doc])
    assert code == 3
    assert "det_elementary_vs_numeric: fail" in out.splitlines()


def test_determinant_beyond_the_float_range(tmp_path, monkeypatch):
    doc = disjoint_triangles(tmp_path, 1100)
    assert run_cli(["det", doc]) == (0, f"det = {2**1100} (inf)\n", "")

    def no_numpy(a):
        raise AssertionError("numpy det called on a determinant beyond the float range")

    monkeypatch.setattr(np.linalg, "det", no_numpy)
    code, out, err = run_cli(["check", doc])
    assert (code, err) == (0, "")
    assert "det_elementary_vs_numeric: skip" in out.splitlines()
    assert out.splitlines()[-1] == "result: ok (10 checks)"


def test_graph_document_rejects_non_integer_ids():
    # int() would have turned 1.9 into 1 and True into 1 without a word
    for digons, arcs, where in (
        (((0, 1.9),), (), r"digons\[0\]"),
        (((0, 1), (True, 2)), (), r"digons\[1\]"),
        ((), ((0, 1), (2, 0), (1, "2")), r"arcs\[2\]"),
        ((), ((0, 1, 2),), r"arcs\[0\]"),
        ((), (5,), r"arcs\[0\]"),
    ):
        with pytest.raises(InvalidParameter, match=f"^{where} must be a pair of integers$"):
            GraphDocument(n=3, digons=digons, arcs=arcs, alpha_order=3)
    # numpy integers are integers: they come out as int, digons low-high
    doc = GraphDocument(
        n=3, digons=((np.int64(2), np.int32(1)),), arcs=((np.int8(0), 1),), alpha_order=3
    )
    assert doc.digons == ((1, 2),) and doc.arcs == ((0, 1),)
    assert all(type(w) is int for pair in doc.digons + doc.arcs for w in pair)
    assert replace(doc, alpha_order=4).alpha_order == 4


def test_graph_document_checks_every_field():
    # GraphDocument holds the rules; parse_graph reports the same text as ParseError
    base = {"n": 3, "digons": [], "arcs": [], "alpha_order": 3}
    bad_n = "field 'n' must be a nonnegative integer"
    bad_order = "field 'alpha_order' must be an integer from 1 to 1000"
    for field, value, message in (
        ("n", True, bad_n),
        ("n", -1, bad_n),
        ("n", 2.0, bad_n),
        ("n", MAX_VERTICES + 1, "field 'n' must be at most 1000000"),
        ("alpha_order", True, bad_order),
        ("alpha_order", 3.0, bad_order),
        ("alpha_order", 0, bad_order),
        ("alpha_order", 1001, bad_order),
        ("digons", "01", "field 'digons' must be a list of vertex pairs"),
        ("arcs", None, "field 'arcs' must be a list of vertex pairs"),
        ("labels", ["a", "b"], "expected 3 labels, got 2"),
        ("labels", ["a", 1, "c"], "field 'labels' must be a list of strings"),
        ("labels", "abc", "field 'labels' must be a list of strings"),
    ):
        fields = {**base, field: value}
        with pytest.raises(InvalidParameter) as built:
            GraphDocument(**fields)
        with pytest.raises(ParseError) as parsed:
            parse_graph(json.dumps(fields))
        assert str(built.value) == str(parsed.value) == message
    # the first bad field in the order n, alpha_order, digons, arcs, labels is named
    with pytest.raises(InvalidParameter, match="'alpha_order'"):
        GraphDocument(n=2, digons=None, arcs=None, alpha_order=0, labels=[1])
    # numpy integers are integers and come out as int
    doc = GraphDocument(
        n=np.int64(2), digons=[(0, 1)], arcs=[], alpha_order=np.int16(5), labels=["a", "b"]
    )
    assert (type(doc.n), type(doc.alpha_order), doc.labels) == (int, int, ("a", "b"))
    # the largest vertex count is a document; its graph is not built here
    assert GraphDocument(n=MAX_VERTICES, digons=[], arcs=[], alpha_order=3).n == 1_000_000


_id_values = st.integers(-2, 8) | st.integers(0, 8).map(np.int64)
_id_pairs = st.lists(
    st.tuples(_id_values, _id_values) | st.lists(_id_values, min_size=2, max_size=2), max_size=5
)
_strays = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=2), st.none(), _id_values, st.lists(_id_values)
)


@given(st.data())
def test_every_graph_document_round_trips(data):
    # parse(render(doc)) == doc for every document the constructor accepts: a
    # well-formed document, and the same with each field in turn set to a stray value
    n = data.draw(st.integers(0, 6))
    fields = {
        "n": data.draw(st.sampled_from([n, np.int64(n)])),
        "digons": data.draw(_id_pairs | _id_pairs.map(tuple)),
        "arcs": data.draw(_id_pairs),
        "alpha_order": data.draw(st.integers(1, 1000) | st.integers(1, 6).map(np.int64)),
        "labels": data.draw(st.none() | st.lists(st.text(), min_size=n, max_size=n)),
    }
    stray = data.draw(_strays)
    for field in (None, *fields):
        try:
            doc = GraphDocument(**(fields if field is None else {**fields, field: stray}))
        except InvalidParameter:
            continue
        assert parse_graph(render_document(doc)) == doc


def test_vertex_out_of_range_exit_2(tmp_path):
    # parse accepts the shape; graph construction rejects the vertex id
    doc = tmp_path / "range.json"
    doc.write_text('{"n": 2, "digons": [[0, 5]], "arcs": [], "alpha_order": 3}')
    code, _, err = run_cli(["det", str(doc)])
    assert code == 2
    assert "BadVertexId" in err


def run_module(module, *argv, address_space=None):
    """Run ``python -m module argv...`` on the hermix package this suite imported.

    The directory holding that package goes first on the child's PYTHONPATH,
    so the child runs the same code whatever the working directory. With
    ``address_space`` (bytes), the child alone runs under that RLIMIT_AS, with
    one BLAS thread so that importing numpy fits.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hermix.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    limit = None
    if address_space is not None:
        import resource

        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
    )


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_wiring():
    # the installed `hermix` script and `python -m hermix` both call cli.entry
    target = load_pyproject()["project"]["scripts"]["hermix"]
    assert target == "hermix.cli:entry"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is cli.entry
    assert importlib.import_module("hermix.__main__").entry is cli.entry

    result = run_module("hermix", "det", str(DATA / "k2_arc.json"))
    assert result.returncode == 0
    assert result.stdout == "det = -1 (-1)\n"


@pytest.mark.skipif(shutil.which("hermix") is None, reason="no hermix executable on PATH")
def test_installed_console_script(tmp_path):
    # the CLI table through the installed script; without PYTHONPATH, which
    # would make the script import this checkout instead of the installed package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    failed = []
    for case in cli_cases(tmp_path):
        result = subprocess.run(["hermix", *case.argv], capture_output=True, text=True, env=env)
        if not case.holds(result.returncode, result.stdout, result.stderr):
            failed.append(case.name)
    assert failed == []


def test_cli_module_runs_as_script():
    result = run_module("hermix.cli", "det", str(DATA / "k2_arc.json"))
    assert result.returncode == 0
    assert result.stdout == "det = -1 (-1)\n"


def test_module_det_on_deep_path(tmp_path):
    n = 2400  # deeper than the default recursion limit
    doc = {"n": n, "digons": [[k, k + 1] for k in range(n - 1)], "arcs": [], "alpha_order": 3}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    result = run_module("hermix", "det", str(path))
    assert result.returncode == 0
    assert result.stdout == "det = 1 (1)\n"
    assert result.stderr == ""


def test_module_exit_code_passes_through(tmp_path):
    result = run_module("hermix", "det", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["det", "gen"])
def test_input_too_large_for_memory_exit_2(tmp_path, command):
    # the most vertices a document may declare, a million, need about 270 MiB
    # of address space where the interpreter and numpy start in about 100 MiB;
    # gen's candidate edge list at n = 40000 has about 400 million pairs
    doc = tmp_path / "million.json"
    doc.write_text(f'{{"n": {MAX_VERTICES}, "digons": [], "arcs": [], "alpha_order": 2}}')
    out = tmp_path / "g.json"
    argv, mib = {
        "det": (["det", str(doc)], 192),
        "gen": (["gen", "--seed", "1", "--n", "40000", "--unicyclic", "-o", str(out)], 512),
    }[command]
    result = run_module("hermix", *argv, address_space=mib * 2**20)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: MemoryError: ")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


_vertex = st.one_of(st.integers(-1, 8), st.booleans())
_pairs = st.lists(
    st.one_of(st.lists(_vertex, min_size=2, max_size=2), st.lists(_vertex, max_size=3)),
    max_size=10,
)
_documents = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(0, 8), st.booleans()),
        "digons": _pairs,
        "arcs": _pairs,
        "alpha_order": st.one_of(st.integers(0, 6), st.booleans()),
    },
    optional={"labels": st.lists(st.text(max_size=2), max_size=9)},
).map(lambda doc: json.dumps(doc).encode())


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["det", "inverse", "classify", "check"]),
    content=st.one_of(st.binary(max_size=64), _documents),
)
def test_fuzz_documents_exit_0_or_2(command, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(content)
        code, _, err = run_cli([command, str(path)])
    assert code in (0, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
