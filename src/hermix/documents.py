"""Graph documents: a small JSON format, parsing, rendering, and the instance
generator for bipartite unique-perfect-matching graphs."""

from __future__ import annotations

import json
import operator
import random
import sys
from dataclasses import MISSING, dataclass, fields

from .errors import GenerationFailed, InvalidParameter, ParseError
from .graph import MixedGraph
from .matching import is_unique_perfect_matching

# CyclotomicContext tabulates an order x phi(order) table of powers
MAX_ALPHA_ORDER = 1000
MAX_VERTICES = 1_000_000  # MixedGraph allocates a row per vertex before reading edges


@dataclass(frozen=True)
class GraphDocument:
    """Serializable description of a mixed graph plus its root order.

    The constructor is the one check of a document's fields, in the order n,
    alpha_order, digons, arcs, labels; a bad field raises InvalidParameter.
    Ids in range, self-loops and repeated pairs are left to MixedGraph. Edge
    lists are normalized (digons low-high, both lists sorted) so that
    structurally equal documents compare equal and render identically.
    """

    n: int
    digons: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...]
    alpha_order: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = _index(self.n)
        if n is None or n < 0:
            raise InvalidParameter("field 'n' must be a nonnegative integer")
        if n > MAX_VERTICES:
            raise InvalidParameter(f"field 'n' must be at most {MAX_VERTICES}")
        order = _index(self.alpha_order)
        if order is None or not 1 <= order <= MAX_ALPHA_ORDER:
            raise InvalidParameter(
                f"field 'alpha_order' must be an integer from 1 to {MAX_ALPHA_ORDER}"
            )
        for name in ("digons", "arcs"):
            pairs = getattr(self, name)
            if not isinstance(pairs, (list, tuple)):
                raise InvalidParameter(f"field '{name}' must be a list of vertex pairs")
            pairs = sorted(_id_pair(e, name, k) for k, e in enumerate(pairs))
            object.__setattr__(self, name, tuple(pairs))
        labels = self.labels
        if labels is not None:
            if not isinstance(labels, (list, tuple)) or not all(isinstance(s, str) for s in labels):
                raise InvalidParameter("field 'labels' must be a list of strings")
            if len(labels) != n:
                raise InvalidParameter(f"expected {n} labels, got {len(labels)}")
            object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha_order", order)

    def to_graph(self) -> MixedGraph:
        return MixedGraph(self.n, self.digons, self.arcs)


def _index(value) -> int | None:
    # operator.index takes numpy integers and refuses 1.9; bool is an int subclass
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _id_pair(pair, name: str, k: int) -> tuple[int, int]:
    try:
        u, v = map(_index, pair)
    except (TypeError, ValueError):
        u = v = None
    if u is None or v is None:
        raise InvalidParameter(f"{name}[{k}] must be a pair of integers")
    return (v, u) if name == "digons" and v < u else (u, v)


def parse_graph(text: str) -> GraphDocument:
    """Parse document text; ParseError carries a position or field diagnostic."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # int() refuses a literal over the interpreter's digit limit
        raise ParseError(f"an integer has over {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    known = fields(GraphDocument)
    unknown = sorted(set(raw) - {f.name for f in known})
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted({f.name for f in known if f.default is MISSING} - set(raw))
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")
    try:
        return GraphDocument(**raw)
    except InvalidParameter as exc:
        raise ParseError(str(exc)) from None


def _unique_fields(pairs) -> dict:
    # json.loads would keep the last of two equal keys without a word
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"field '{key}' appears more than once")
        obj[key] = value
    return obj


def render_document(doc: GraphDocument) -> str:
    """Canonical text form; parse(render(doc)) == doc."""
    lines = ["{", f'  "n": {doc.n},']
    if doc.labels is not None:
        lines.append(f'  "labels": {json.dumps(doc.labels)},')
    lines.append(f'  "digons": {json.dumps(doc.digons)},')
    lines.append(f'  "arcs": {json.dumps(doc.arcs)},')
    lines.append(f'  "alpha_order": {doc.alpha_order}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_instance(seed: int, n: int, unicyclic: bool = False) -> GraphDocument:
    """Random bipartite graph with a unique perfect matching, n vertices.

    Grows a tree by attaching matched pairs (so pendant elimination certifies
    uniqueness by construction), optionally adds one bipartition-respecting
    extra edge that keeps the matching unique, then orients a random subset of
    the non-matching edges. Deterministic per seed.
    """
    if not isinstance(n, int) or n < 2 or n % 2:
        raise InvalidParameter(f"vertex count must be even and >= 2, got {n!r}")
    if n > MAX_VERTICES:
        raise InvalidParameter(f"vertex count must be at most {MAX_VERTICES}, got {n}")
    rng = random.Random(seed)
    matching = {(0, 1)}
    edges = {(0, 1)}
    color = [0, 1]  # the tree's 2-colouring, grown with it
    for k in range(1, n // 2):
        a, b = 2 * k, 2 * k + 1
        anchor = rng.randrange(2 * k)
        edges.add((min(anchor, a), max(anchor, a)))
        edges.add((a, b))
        matching.add((a, b))
        color += [1 - color[anchor], color[anchor]]
    if unicyclic:
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges and color[u] != color[v]
        ]
        rng.shuffle(candidates)
        for extra in candidates:
            trial = MixedGraph(n, sorted(edges | {extra}), ())
            if is_unique_perfect_matching(trial):
                edges.add(extra)
                break
        else:
            raise GenerationFailed(
                f"seed {seed}: no unicyclic extension keeps the matching unique"
            )
    digons = []
    arcs = []
    for u, v in sorted(edges):
        if (u, v) in matching or rng.random() < 0.5:
            digons.append((u, v))
        elif rng.random() < 0.5:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    doc = GraphDocument(n=n, digons=tuple(digons), arcs=tuple(arcs), alpha_order=3)
    if not is_unique_perfect_matching(doc.to_graph()):
        raise GenerationFailed(f"seed {seed}: generated graph failed verification")
    return doc
