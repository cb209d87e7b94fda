"""Independent checks of hermix CLI output, in floating point.

Each verifier takes the graph document and the captured stdout of one call and
returns None when the output is right, or a one-line reason when it is not.
None of them calls into hermix: ``load_document`` reads the document file with
``json``, the hermitian matrix is rebuilt from its edge lists and every answer
is checked against numpy.
"""

from __future__ import annotations

import cmath
import json
import re
from types import SimpleNamespace

import numpy as np

TOLERANCE = 1e-9
REASONS = ("exactly two pegs", "odd number of unmatched cycle edges")
_TERM = re.compile(r"(-)?(\d+)?(?:(a)(?:\^(\d+))?)?")


def parse_polynomial(text: str, alpha: complex) -> complex:
    """Value of a rendered field element such as ``-1``, ``2a - 1`` or ``(1 + a^2)/3``."""
    body, slash, den = text.partition("/")
    body = body.strip()
    if slash:
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        den_value = int(den)
    else:
        den_value = 1
    total = 0j
    for k, term in enumerate(body.replace(" - ", " + -").split(" + ")):
        m = _TERM.fullmatch(term)
        if not m or not (m.group(2) or m.group(3)) or (k and not term):
            raise ValueError(f"bad term {term!r} in {text!r}")
        coeff = int(m.group(2) or 1) * (-1 if m.group(1) else 1)
        power = int(m.group(4) or 1) if m.group(3) else 0
        total += coeff * alpha**power
    return total / den_value


def load_document(path: str) -> SimpleNamespace:
    """The fields of a written document that the verifiers read."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    return SimpleNamespace(
        n=raw["n"], alpha_order=raw["alpha_order"], digons=raw["digons"], arcs=raw["arcs"]
    )


def hermitian(doc, order: int | None = None) -> np.ndarray:
    """H_alpha of the document: 1 on digons, alpha on arcs u->v, conj(alpha) back."""
    alpha = cmath.exp(2j * cmath.pi / (order or doc.alpha_order))
    h = np.zeros((doc.n, doc.n), dtype=complex)
    for u, v in doc.digons:
        h[u, v] = h[v, u] = 1
    for u, v in doc.arcs:
        h[u, v] = alpha
        h[v, u] = alpha.conjugate()
    return h


def verify_det(doc, text: str) -> str | None:
    # Bipartite graphs with a unique perfect matching have det = (-1)^(n/2).
    want = "1" if (doc.n // 2) % 2 == 0 else "-1"
    if text != f"det = {want} ({want})\n":
        return f"det output {text.strip()!r}, want {want}"
    return None


def verify_inverse(doc, text: str) -> str | None:
    lines = text.splitlines()
    if lines[:2] != [f"alpha_order = {doc.alpha_order}", "inverse:"] or len(lines) != doc.n + 2:
        return "inverse output has the wrong header or row count"
    alpha = cmath.exp(2j * cmath.pi / doc.alpha_order)
    inv = np.zeros((doc.n, doc.n), dtype=complex)
    for i, line in enumerate(lines[2:]):
        entries = line[1:-1].split(", ") if line.startswith("[") and line.endswith("]") else []
        if len(entries) != doc.n:
            return f"inverse row {i} has {len(entries)} entries"
        try:
            inv[i] = [parse_polynomial(e, alpha) for e in entries]
        except ValueError as exc:
            return f"inverse row {i}: {exc}"
    err = np.abs(inv @ hermitian(doc) - np.eye(doc.n)).max()
    if err > TOLERANCE:
        return f"inverse times H is off the identity by {err:.3g}"
    return None


def _diagonal_signs(inv: np.ndarray, gamma: complex) -> list[int] | None:
    """A +-1 diagonal D with D inv D an adjacency matrix at gamma, or None.

    Every nonzero entry must be s * gamma^k with s = +-1; it then asks for
    d_i * d_j = s. Those constraints are 2-coloured from vertex 0.
    """
    n = len(inv)
    units = [gamma**k for k in range(3)]
    want: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        if abs(inv[i, i]) > TOLERANCE:
            return None
        for j in range(i + 1, n):
            z = inv[i, j]
            if abs(z) <= TOLERANCE:
                continue
            sign = next((s for s in (1, -1) for u in units if abs(z - s * u) <= TOLERANCE), 0)
            if not sign:
                return None
            want[i].append((j, sign))
            want[j].append((i, sign))
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, s in want[u]:
                if not d[v]:
                    d[v] = d[u] * s
                    stack.append(v)
                elif d[v] != d[u] * s:
                    return None
    return d


def verify_classify(doc, text: str) -> str | None:
    """Check a Similar certificate, or re-decide a NotSimilar verdict, at order 3."""
    gamma = cmath.exp(2j * cmath.pi / 3)
    inv = np.linalg.inv(hermitian(doc, 3))
    lines = text.splitlines()
    if len(lines) == 1 and lines[0].startswith("NotSimilar: "):
        if lines[0][len("NotSimilar: "):] not in REASONS:
            return f"unknown obstruction in {lines[0]!r}"
        if _diagonal_signs(inv, gamma) is not None:
            return "NotSimilar, but a +-1 diagonal exists"
        return None
    keys = ("D = ", "basepoint = ", "digons = ", "arcs = ")
    if len(lines) != 5 or lines[0] != "Similar" or not all(
        line.startswith(k) for line, k in zip(lines[1:], keys)
    ):
        return "classify output is neither a certificate nor an obstruction"
    d, base, digons, arcs = (json.loads(line[len(k):]) for line, k in zip(lines[1:], keys))
    if len(d) != doc.n or any(s not in (1, -1) for s in d) or base != 0 or d[0] != 1:
        return "certificate diagonal is not +-1 with D[basepoint] = 1"
    witness = np.zeros((doc.n, doc.n), dtype=complex)
    for u, v in digons:
        witness[u, v] = witness[v, u] = 1
    for u, v in arcs:
        witness[u, v] = gamma
        witness[v, u] = gamma.conjugate()
    dm = np.diag(d)
    err = np.abs(dm @ inv @ dm - witness).max()
    if err > TOLERANCE:
        return f"D Hinv D differs from the witness graph by {err:.3g}"
    return None


def verify_check(doc, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[-1] != "result: ok (10 checks)" or any(
        line.endswith(": fail") for line in lines
    ):
        return f"check did not pass: {lines[-1] if lines else 'no output'!r}"
    return None


VERIFIERS = {
    "det": verify_det,
    "inverse": verify_inverse,
    "classify": verify_classify,
    "check": verify_check,
}
