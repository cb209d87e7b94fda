"""Hermitian adjacency matrices, elementary subgraphs, and determinants."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .cyclotomic import CyclotomicContext, CyclotomicNumber
from .errors import (
    ContextMismatch,
    DimensionTooLarge,
    NotAWalk,
    NumericallySingular,
)
from .graph import MixedGraph, simple_paths

LEIBNIZ_CAP = 10  # largest dimension det_leibniz expands
RESIDUAL_TOLERANCE = 1e-9


class ExactHermitianMatrix:
    """Square matrix over one cyclotomic field, hermitian by checked invariant.

    Row i is a dict from column j to the nonzero entry (i, j); an absent
    column is zero, and explicit zeros are dropped on construction. Equal
    entries are one object: the first of its value met in row-major order.
    """

    __slots__ = ("ctx", "dim", "rows")

    def __init__(self, ctx: CyclotomicContext, rows):
        rows = tuple(rows)
        dim = len(rows)
        # each distinct entry object is checked once: its field, whether it is
        # zero, and which value it holds
        distinct = {id(a): a for row in rows for a in row.values()}
        if any(a.ctx.order != ctx.order for a in distinct.values()):
            raise ContextMismatch("entry from a different cyclotomic field")
        # a column is an int in 0..dim-1, checked by type: a bool or a float key equals an int
        if {*map(type, chain.from_iterable(rows))} - {int} or {*chain.from_iterable(rows)} - {*range(dim)}:
            raise ValueError(f"column outside 0..{dim - 1}")
        self.ctx, self.dim = ctx, dim
        # (nums, den) is in lowest terms, so it names the value; keep[id] is the
        # object held for that value, None for a zero
        value, keep = {}, {}
        for key, a in distinct.items():
            keep[key] = None if a.is_zero() else value.setdefault((a.nums, a.den), a)
        stray = {key for key, a in distinct.items() if keep[key] is not a}
        if stray:  # only rows holding a zero or a second object of a value are rebuilt
            rows = [
                row if stray.isdisjoint(map(id, row.values()))
                else {j: keep[id(a)] for j, a in row.items() if keep[id(a)] is not None}
                for row in rows
            ]
        self.rows = tuple(map(dict, rows))
        # each held value is conjugated once; its mirror is the object held for
        # the conjugate, or one no row holds
        mirror, missing = {}, object()
        for a in value.values():
            c = a.conj()
            mirror[id(a)] = value.get((c.nums, c.den), missing)
        # every stored (i, j) needs its conjugate stored at (j, i); a fault is
        # reported at the first pair i <= j in row-major order
        faults = [
            (min(i, j), max(i, j))
            for i, row in enumerate(self.rows)
            for j, a in row.items()
            if self.rows[j].get(i) is not mirror[id(a)]
        ]
        if faults:
            raise ValueError(f"not hermitian at {min(faults)}")

    def entry(self, i: int, j: int) -> CyclotomicNumber:
        return self.rows[i].get(j, self.ctx.zero())

    @classmethod
    def identity(cls, ctx: CyclotomicContext, dim: int) -> "ExactHermitianMatrix":
        return cls(ctx, [{i: ctx.one()} for i in range(dim)])

    def multiply(self, other: "ExactHermitianMatrix"):
        """Plain matrix product as a tuple of rows in the same sparse format
        (not hermitian in general)."""
        if other.dim != self.dim or other.ctx.order != self.ctx.order:
            raise ContextMismatch("operands do not match")
        out = []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: v for j, v in acc.items() if not v.is_zero()})
        return tuple(out)

    def conjugated_by_signs(self, signs) -> "ExactHermitianMatrix":
        """D * M * D for a +-1 diagonal D."""
        if len(signs) != self.dim or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1 of matching length")
        # each distinct entry is negated once, so the result shares its values
        distinct = {id(a): a for row in self.rows for a in row.values()}
        negated = {key: -a for key, a in distinct.items()}
        rows = [
            {j: a if s == signs[j] else negated[id(a)] for j, a in row.items()}
            for s, row in zip(signs, self.rows)
        ]
        return ExactHermitianMatrix(self.ctx, rows)

    def to_complex(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                out[i, j] = a.to_complex()
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactHermitianMatrix):
            return NotImplemented
        return self.ctx.order == other.ctx.order and self.rows == other.rows

    def __repr__(self):
        return f"ExactHermitianMatrix(order={self.ctx.order}, dim={self.dim})"


def h_alpha_matrix(x: MixedGraph, ctx: CyclotomicContext) -> ExactHermitianMatrix:
    """Entry (u, v): 1 for a digon, alpha for arc u->v, conj(alpha) for arc v->u;
    row u is the graph's read-only exponent row x.adjacency[u], each e read as alpha^e."""
    rows = [{v: ctx.root_power(e) for v, e in row.items()} for row in x.adjacency]
    return ExactHermitianMatrix(ctx, rows)


def walk_value(x: MixedGraph, ctx: CyclotomicContext, walk) -> CyclotomicNumber:
    """Product of matrix entries along the walk; a single power of alpha."""
    verts = tuple(walk)
    if not verts:
        raise NotAWalk("empty walk")
    total = 0
    for u, v in zip(verts, verts[1:]):
        e = x.hermitian_exponent(u, v)
        if e is None:
            raise NotAWalk(f"step ({u}, {v}) is not an edge")
        total += e
    return ctx.root_power(total)


def enumerate_spanning_elementary(x: MixedGraph, drop: tuple = ()) -> list[tuple[tuple[int, ...], ...]]:
    """Every subgraph spanning x minus ``drop`` whose components are edges or cycles,
    each given as its parts, sorted: an edge as (u, v) with u < v, a cycle as its
    canonical vertex tuple, least vertex first and second vertex less than last.

    Depth-first with an undo log. An uncovered vertex with no uncovered neighbour
    ends the branch, one with a single one is forced into that edge; else the search
    branches at the lowest uncovered vertex v over its closed walks in the uncovered
    region, an edge (v, u, v) or a longer cycle, each cycle once, in its canonical
    direction. The list order is the search order, not part of the contract.
    ``drop`` starts covered: these are the subgraphs of x without the vertices in
    ``drop``, in x's ids."""
    adj, n, low = x.adjacency, x.n, 0
    covered = bytearray(n)
    free = list(map(len, adj))  # uncovered neighbours
    queue = [v for v in range(n) if free[v] < 2]  # free degree 0 or 1; covered ones are skipped
    log: list[tuple[int, ...]] = []  # the parts covered now, in order
    stack = []  # per branch point: log length, lowest uncovered id, parts left
    out: list[tuple[tuple[int, ...], ...]] = []

    def move(part, step):  # step -1 covers the part, +1 uncovers it
        for w in part if step < 0 else ():
            covered[w] = 1
        for w in part:
            for u in adj[w]:
                if not covered[u]:
                    free[u] += step
                    if free[u] < 2:
                        queue.append(u)
        for w in part if step > 0 else ():
            covered[w] = 0

    move({x.check_vertex(v) for v in drop}, -1)
    while True:
        while queue:
            v = queue.pop()
            if not covered[v]:
                if not free[v]:
                    break  # a dead branch
                u = next(w for w in adj[v] if not covered[w])
                log.append((v, u) if v < u else (u, v))
                move(log[-1], -1)
        else:
            low = covered.find(0, low)  # the lowest uncovered vertex, -1 for none
            if low < 0:
                out.append(tuple(sorted(log)))
            else:  # every uncovered vertex has 2 or more uncovered neighbours
                # the parts covering low are its closed walks low..low: (low, u, low)
                # is the edge (low, u), a longer walk a cycle; second <= last keeps
                # one traversal direction of each
                walks = simple_paths(adj, low, low, covered)
                parts = [c[:-1] for c in walks if c[1] <= c[-2]]
                stack.append((len(log), low, iter(parts)))
        while stack:
            mark, low, parts = stack[-1]
            while len(log) > mark:  # back to the branch point
                move(log.pop(), 1)
            queue.clear()
            part = next(parts, None)
            if part is not None:
                log.append(part)
                move(part, -1)
                break
            stack.pop()
        else:
            return out


def det_via_elementary(x: MixedGraph, ctx: CyclotomicContext, drop: tuple = ()) -> CyclotomicNumber:
    """Exact determinant of h_alpha_matrix(x) without the rows and columns in
    ``drop``, from spanning elementary subgraphs.

    Each subgraph contributes (-1)^rank times the product over its cycle
    components of 2*Re(h_alpha(C)); the factor 2 accounts for the two
    traversal directions of each cycle. The rank is the vertex count minus the
    component count: an edge adds 2 - 1, a cycle of length L adds L - 1.
    """
    total = ctx.zero()
    for parts in enumerate_spanning_elementary(x, drop):
        term = ctx.from_rational((-1) ** sum(len(p) - 1 for p in parts))
        for p in parts:
            if len(p) > 2:  # a cycle
                v = walk_value(x, ctx, (*p, p[0]))
                term = term * (v + v.conj())
        total = total + term
    return total


def det_leibniz(h: ExactHermitianMatrix) -> CyclotomicNumber:
    """Exact determinant by signed permutation expansion.

    Organized as Laplace expansion memoized on the free-column subset, which
    sums exactly the nonzero permutation terms. Raises DimensionTooLarge above
    LEIBNIZ_CAP.
    """
    if h.dim > LEIBNIZ_CAP:
        raise DimensionTooLarge(
            f"dim {h.dim} exceeds permutation-expansion cap {LEIBNIZ_CAP}"
        )
    ctx = h.ctx
    full = (1 << h.dim) - 1
    memo: dict[int, CyclotomicNumber] = {0: ctx.one()}

    def minor(free: int) -> CyclotomicNumber:
        got = memo.get(free)
        if got is not None:
            return got
        row = h.dim - bin(free).count("1")
        acc = ctx.zero()
        sign = 1
        rest = free
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            a = h.rows[row].get(j)
            if a is not None:
                sub = minor(free ^ low)
                if not sub.is_zero():
                    contrib = a * sub
                    acc = acc + (contrib if sign == 1 else -contrib)
            sign = -sign
            rest ^= low
        memo[free] = acc
        return acc

    return minor(full)


def numeric_inverse(h: ExactHermitianMatrix) -> np.ndarray:
    """Floating inverse from numpy.

    Raises NumericallySingular when numpy finds the matrix singular or the
    residual max |H * Hinv - I| exceeds 1e-9.
    """
    a = h.to_complex()
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericallySingular(str(exc)) from None
    residual = np.abs(a @ inv - np.eye(h.dim)).max(initial=0.0)
    if residual > RESIDUAL_TOLERANCE:
        raise NumericallySingular(f"residual {residual:.3e} exceeds tolerance")
    return inv
