"""Tests of the benchmark harness itself: python -m pytest benchmarks/tests"""

from __future__ import annotations

import cmath
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hermix  # noqa: E402
import hermix.cli  # noqa: E402
from hbench import layers  # noqa: E402
from hbench.trace import PROBES, Stats, Tracer, self_times  # noqa: E402
from hbench.verify import (  # noqa: E402
    load_document,
    parse_polynomial,
    verify_check,
    verify_classify,
    verify_det,
    verify_inverse,
)
from hbench.workloads import WORKLOADS, plan  # noqa: E402


def _namespaces():
    """Every binding the tracer may replace: hermix module globals and class dicts."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "hermix" or name.startswith("hermix."):
            for key, value in vars(mod).items():
                seen[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def _run(tmp_path, doc, command):
    path = tmp_path / "doc.json"
    path.write_text(hermix.render_document(doc))
    out = io.StringIO()
    assert hermix.cli.main([command, str(path)], out=out, err=io.StringIO()) == 0
    return out.getvalue()


def test_tracer_records_spans_and_restores_every_original(tmp_path):
    before = _namespaces()
    tracer = Tracer()
    doc = hermix.generate_instance(3, 8, True)
    with tracer.installed():
        assert hermix.cli.main is not before[("hermix.cli", "main")]
        _run(tmp_path, doc, "inverse")
    spans = tracer.drain()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in spans}
    assert {"cli.main", "matching.co_augmenting_paths", "cyclotomic.render"} <= names
    assert spans[0][0] == "cli.main" and spans[0][1] == -1
    # Calls after the block are no longer recorded.
    _run(tmp_path, doc, "det")
    assert tracer.drain() == []


def test_every_probe_resolves():
    for module, attr, _, _ in PROBES:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_self_time_is_span_minus_children_on_hand_built_trace():
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 7]
    spans = [
        ["a", -1, 0.0, 10.0, 0],
        ["b", 0, 1.0, 4.0, 2],
        ["c", 1, 2.0, 3.0, 0],
        ["d", 0, 5.0, 7.0, 1],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    stats = Stats({"bc": {"b", "c"}, "ad": {"a", "d"}})
    stats.add_spans(spans)
    assert stats.get("a") == [1, 10.0, 5.0, 0, 0]
    assert stats.get("b") == [1, 3.0, 2.0, 2, 1]
    assert stats.summed("") == [4, 16.0, 10.0, 3, 2]
    # c is nested in b and d in a: each union counts its outermost spans once.
    assert stats.outer == {"bc": 3.0, "ad": 10.0}


def test_verifiers_accept_real_output_and_reject_corruption(tmp_path):
    tree = hermix.generate_instance(5, 10, False)
    cyclic = hermix.generate_instance(6, 10, True)
    det = _run(tmp_path, tree, "det")
    assert verify_det(tree, det) is None
    assert verify_det(tree, det.replace("-1", "1")) is not None

    inv = _run(tmp_path, cyclic, "inverse")
    assert verify_inverse(cyclic, inv) is None
    lines = inv.splitlines()
    row = lines[2][1:-1].split(", ")
    k = next(i for i, e in enumerate(row) if e != "0")
    row[k] = row[k][1:] if row[k].startswith("-") else "-" + row[k]
    lines[2] = "[" + ", ".join(row) + "]"
    assert verify_inverse(cyclic, "\n".join(lines) + "\n") is not None

    check = _run(tmp_path, cyclic, "check")
    assert verify_check(cyclic, check) is None
    assert verify_check(cyclic, check.replace(": pass", ": fail", 1)) is not None


def test_classify_verifier_checks_certificates_and_obstructions(tmp_path):
    verdicts = set()
    for seed in range(12):
        doc = hermix.generate_instance(seed, 12, True)
        text = _run(tmp_path, doc, "classify")
        assert verify_classify(doc, text) is None
        verdicts.add(text.split()[0].rstrip(":"))
        if text.startswith("Similar"):
            d = text.splitlines()[1]
            flipped = d.replace("1, -1", "1, 1", 1) if "1, -1" in d else d.replace("1, 1", "1, -1", 1)
            assert verify_classify(doc, text.replace(d, flipped)) is not None
        else:
            assert verify_classify(doc, "Similar\n") is not None
    assert verdicts == {"Similar", "NotSimilar"}


def test_parse_polynomial():
    a = cmath.exp(2j * cmath.pi / 5)
    assert parse_polynomial("0", a) == 0
    assert parse_polynomial("-1", a) == -1
    assert abs(parse_polynomial("2a - 1", a) - (2 * a - 1)) < 1e-12
    assert abs(parse_polynomial("(1 - a^3)/4", a) - (1 - a**3) / 4) < 1e-12
    assert abs(parse_polynomial("-a^2/3", a) + a**2 / 3) < 1e-12
    for bad in ("", "1 +", "b", "2 a"):
        with pytest.raises(ValueError):
            parse_polynomial(bad, a)


def test_plan_is_fixed_by_the_seed():
    wl = WORKLOADS["check-small"]
    assert plan(wl, 4) == plan(wl, 4)
    assert plan(wl, 4)[0] != plan(wl, 5)[0]
    docs, calls = plan(wl, 4)
    assert {(d.n, d.order) for d in docs} == {(n, k) for n in wl.sizes for k in wl.orders}
    assert sorted(c.doc for c in calls) == [d.index for d in docs]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    computed = layers.per_layer(Stats(layers.INCLUSIVE_MS), Stats(layers.GENERATE_MS), 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(computed)


def test_verifiers_read_written_documents(tmp_path):
    doc = hermix.generate_instance(7, 12, True)
    path = tmp_path / "doc.json"
    path.write_text(hermix.render_document(doc))
    loaded = load_document(str(path))
    assert (loaded.n, loaded.alpha_order) == (doc.n, doc.alpha_order)
    assert verify_inverse(loaded, _run(tmp_path, doc, "inverse")) is None
