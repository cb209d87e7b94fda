"""Span tracing of the hermix layers, installed from outside the package.

``Tracer.installed`` replaces the functions and methods listed in ``PROBES`` with
wrappers that record one span per call: name, parent, start, end and an item
count (paths found, subgraphs found, entries checked). The wrapper is put in
every ``hermix`` namespace that holds the original, because modules import
each other's functions by name. Leaving the block puts every original back.

The spans of one CLI call are kept in memory and folded into per-name totals
(``Stats.add_spans``) when the call ends. The spans of the first
``KEEP_CALLS`` calls are also kept whole and written out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


def _count_result(args, result) -> int:
    return len(result)


def _hermitian_pairs(args, result) -> int:
    # hermitian pairs checked by the ExactHermitianMatrix constructor
    return args[0].dim * (args[0].dim + 1) // 2


# (module, attribute, span name, item count taken from (args, result))
PROBES = (
    ("hermix.cli", "main", "cli.main", None),
    ("hermix.cli", "command_det", "cli.command_det", None),
    ("hermix.cli", "command_inverse", "cli.command_inverse", None),
    ("hermix.cli", "command_classify", "cli.command_classify", None),
    ("hermix.cli", "command_check", "cli.command_check", None),
    ("hermix.documents", "parse_graph", "documents.parse_graph", None),
    ("hermix.documents", "generate_instance", "documents.generate_instance", None),
    ("hermix.graph", "enumerate_paths", "graph.enumerate_paths", _count_result),
    ("hermix.graph", "remove_vertices", "graph.remove_vertices", None),
    ("hermix.graph", "unique_cycle", "graph.unique_cycle", None),
    ("hermix.matching", "co_augmenting_paths", "matching.co_augmenting_paths", _count_result),
    ("hermix.matching", "ensure_class_h", "matching.ensure_class_h", None),
    ("hermix.spectral", "enumerate_spanning_elementary", "spectral.enumerate_spanning_elementary", _count_result),
    ("hermix.spectral", "det_via_elementary", "spectral.det_via_elementary", None),
    ("hermix.spectral", "det_leibniz", "spectral.det_leibniz", None),
    ("hermix.spectral", "numeric_inverse", "spectral.numeric_inverse", None),
    ("hermix.spectral", "h_alpha_matrix", "spectral.h_alpha_matrix", None),
    ("hermix.spectral", "ExactHermitianMatrix.__init__", "spectral.matrix_init", _hermitian_pairs),
    ("hermix.spectral", "ExactHermitianMatrix.multiply", "spectral.multiply", None),
    ("hermix.spectral", "ExactHermitianMatrix.to_complex", "spectral.to_complex", None),
    ("hermix.inverse", "inverse_bipartite_upm", "inverse.inverse_bipartite_upm", None),
    ("hermix.inverse", "inverse_entry_general", "inverse.inverse_entry_general", None),
    ("hermix.unicyclic", "classify_gamma_similarity", "unicyclic.classify_gamma_similarity", None),
    ("hermix.unicyclic", "peg_info", "unicyclic.peg_info", None),
    ("hermix.unicyclic", "exhaustive_diag_similarity", "unicyclic.exhaustive_diag_similarity", None),
    ("hermix.cyclotomic", "CyclotomicNumber.__add__", "cyclotomic.add", None),
    ("hermix.cyclotomic", "CyclotomicNumber.__radd__", "cyclotomic.add", None),
    ("hermix.cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul", None),
    ("hermix.cyclotomic", "CyclotomicNumber.__rmul__", "cyclotomic.mul", None),
    ("hermix.cyclotomic", "CyclotomicNumber.__neg__", "cyclotomic.neg", None),
    ("hermix.cyclotomic", "CyclotomicNumber.inv", "cyclotomic.inv", None),
    ("hermix.cyclotomic", "CyclotomicNumber.conj", "cyclotomic.conj", None),
    ("hermix.cyclotomic", "CyclotomicNumber.to_polynomial_string", "cyclotomic.render", None),
    ("hermix.cyclotomic", "classify_entry", "cyclotomic.classify_entry", None),
)

# Arithmetic spans are named per field order, e.g. "cyclotomic.mul.o5".
BY_ORDER = ("cyclotomic.add", "cyclotomic.mul", "cyclotomic.neg", "cyclotomic.inv", "cyclotomic.conj")

KEEP_CALLS = 8

# A span is [name, parent index or -1, start, end, items].
NAME, PARENT, START, END, ITEMS = range(5)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans, span, names) -> bool:
    """No ancestor of ``span`` has a name in ``names``."""
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return False
        p = spans[p][PARENT]
    return True


class Stats:
    """Per span name: [calls, inclusive s, self s, items, calls with items > 0],
    plus wall time inside each named union of span names (``outer``), where a
    span nested in another span of the same union is counted once."""

    def __init__(self, unions: dict[str, set[str]] | None = None):
        self.unions = unions or {}
        self.by_name: dict[str, list] = {}
        self.outer: dict[str, float] = dict.fromkeys(self.unions, 0.0)
        self._member: dict[str, list[str]] = {}
        for key, names in self.unions.items():
            for name in names:
                self._member.setdefault(name, []).append(key)

    def add_spans(self, spans) -> None:
        for s, own in zip(spans, self_times(spans)):
            dur = s[END] - s[START]
            row = self.by_name.setdefault(s[NAME], [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += own
            row[3] += s[ITEMS]
            row[4] += s[ITEMS] > 0
            for key in self._member.get(s[NAME], ()):
                if _outermost(spans, s, self.unions[key]):
                    self.outer[key] += dur

    def merge(self, other: "Stats") -> None:
        for name, row in other.by_name.items():
            mine = self.by_name.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for k, v in enumerate(row):
                mine[k] += v
        for key, v in other.outer.items():
            self.outer[key] = self.outer.get(key, 0.0) + v

    def get(self, name: str) -> list:
        return self.by_name.get(name, [0, 0.0, 0.0, 0, 0])

    def summed(self, prefix: str) -> list:
        """Column sums over every name that starts with ``prefix``."""
        rows = [r for n, r in self.by_name.items() if n.startswith(prefix)]
        return [sum(col) for col in zip(*rows)] if rows else [0, 0.0, 0.0, 0, 0]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Records spans from wrapped hermix functions while installed.

    The wrappers are built once, from the modules imported at construction;
    ``installed`` only swaps bindings, so it is cheap to enter per call.
    """

    def __init__(self):
        self.spans: list[list] = []  # wrappers append here for their whole life
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        hermix_modules = [
            m for k, m in sorted(sys.modules.items())
            if k == "hermix" or k.startswith("hermix.")
        ]
        for module, attr, name, items in PROBES:
            owner, last = _resolve(module, attr)
            if isinstance(owner, type):
                original = owner.__dict__[last]
                self._bindings.append((owner, last, original, self._wrap(original, name, items)))
                continue
            original = getattr(owner, last)
            wrapper = self._wrap(original, name, items)
            for mod in hermix_modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def drain(self) -> list[list]:
        """Return the spans recorded so far and empty the shared list in place."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, fn, name, items):
        spans, stack = self.spans, self._stack
        by_order = name in BY_ORDER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.o{args[0].ctx.order}" if by_order else name
            span = [label, stack[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = t0
                stack.pop()
            if items is not None:
                span[ITEMS] = items(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every probe for the duration of the block, then restore."""
        try:
            for owner, key, _, wrapper in self._bindings:
                setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original, _ in self._bindings:
                setattr(owner, key, original)
