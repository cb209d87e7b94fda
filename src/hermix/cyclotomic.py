"""Exact arithmetic in the cyclotomic field Q(alpha), alpha = exp(2*pi*i/n).

Elements are kept in the power basis 1, alpha, ..., alpha^(phi(n)-1) of the
field Q[x]/Phi_n(x), with Fraction coordinates. Reduction happens on every
operation, so two values are equal exactly when their coordinate tuples are
equal. This is a field (Phi_n is irreducible), unlike the group ring
Q[x]/(x^n - 1), so every nonzero element has an inverse.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ContextMismatch

_HALF = Fraction(1, 2)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic with integer coefficients; the division must be exact
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert not any(num), "cyclotomic division left a remainder"
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients, low to high, of the n-th cyclotomic polynomial Phi_n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    # Phi_k = (x^k - 1) / (Phi_d for every proper divisor d of k), built for
    # the divisors k of n in increasing order
    phi: dict[int, tuple[int, ...]] = {}
    for k in range(1, n + 1):
        if n % k:
            continue
        num = [0] * (k + 1)
        num[0], num[k] = -1, 1
        for d, den in phi.items():
            if k % d == 0:
                num = _poly_div_exact(num, den)
        phi[k] = tuple(num)
    return phi[n]


class CyclotomicContext:
    """Field data for a fixed root order: Phi_n and the x^k reduction table."""

    __slots__ = ("order", "degree", "phi", "_powers", "_complex_basis",
                 "_zero", "_one")

    def __init__(self, order: int):
        if not isinstance(order, int) or order < 1:
            raise ValueError("order must be a positive integer")
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        d = self.degree
        # x^k mod Phi_n for every exponent any operation can produce:
        # conjugation needs k < order, multiplication needs k <= 2d - 2.
        top = max(order - 1, 2 * d - 2, 0)
        powers = []
        cur = [0] * d
        cur[0] = 1
        for _ in range(top + 1):
            powers.append(tuple(cur))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                for i in range(d):
                    cur[i] -= carry * self.phi[i]
        self._powers = tuple(powers)
        self._complex_basis = tuple(
            cmath.exp(2j * cmath.pi * k / order) for k in range(d)
        )
        self._zero = CyclotomicNumber(self, (Fraction(0),) * d)
        self._one = CyclotomicNumber(self, self._powers[0])

    def zero(self) -> "CyclotomicNumber":
        return self._zero

    def one(self) -> "CyclotomicNumber":
        return self._one

    def root_power(self, k: int) -> "CyclotomicNumber":
        """alpha^k, reduced into the power basis. k may be any integer."""
        return CyclotomicNumber(self, self._powers[k % self.order])

    def from_rational(self, q) -> "CyclotomicNumber":
        q = Fraction(q)
        coeffs = (q,) + (Fraction(0),) * (self.degree - 1)
        return CyclotomicNumber(self, coeffs)

    def __eq__(self, other):
        return isinstance(other, CyclotomicContext) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicContext", self.order))

    def __repr__(self):
        return f"CyclotomicContext(order={self.order})"


class CyclotomicNumber:
    """One element of Q(alpha). Immutable; all arithmetic returns new values."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CyclotomicContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if len(self.coeffs) != ctx.degree:
            raise ValueError("coefficient vector has wrong length")

    # -- coercion -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.ctx.order != self.ctx.order:
                raise ContextMismatch(
                    f"orders {self.ctx.order} and {other.ctx.order} differ"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(
            self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(
            self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = self.ctx.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:d])
        powers = self.ctx._powers
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = powers[k]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicNumber(self.ctx, out)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicNumber":
        """Multiplicative inverse, by the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        a = list(self.coeffs)
        b = [Fraction(c) for c in self.ctx.phi]
        # invariant: r0 = s0 * a (mod Phi_n), r1 = s1 * a (mod Phi_n)
        r0, s0 = b, [Fraction(0)]
        r1, s1 = _pstrip(a), [Fraction(1)]
        while r1:
            q, rem = _pdivmod(r0, r1)
            r0, s0, r1, s1 = r1, s1, rem, _psub(s0, _pmul(q, s1))
        # Phi_n irreducible and a nonzero of lower degree: gcd is a constant
        assert len(r0) == 1 and r0[0] != 0
        g = r0[0]
        coeffs = [c / g for c in s0]
        coeffs += [Fraction(0)] * (self.ctx.degree - len(coeffs))
        return CyclotomicNumber(self.ctx, coeffs[: self.ctx.degree])

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    # -- conjugation and real part -------------------------------------------

    def conj(self) -> "CyclotomicNumber":
        """Complex conjugate: alpha maps to alpha^(n-1)."""
        if self.is_rational():
            return self
        ctx = self.ctx
        n = ctx.order
        out = [Fraction(0)] * ctx.degree
        for i, c in enumerate(self.coeffs):
            if c:
                row = ctx._powers[(n - i) % n]
                for k in range(ctx.degree):
                    if row[k]:
                        out[k] += c * row[k]
        return CyclotomicNumber(ctx, out)

    def real_part(self) -> "CyclotomicNumber":
        """(x + conj(x)) / 2, exact."""
        return (self + self.conj()) * _HALF

    # -- predicates / conversion ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        basis = self.ctx._complex_basis
        return sum(
            (float(c) * basis[i] for i, c in enumerate(self.coeffs) if c),
            complex(0),
        )

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ctx.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber({self.ctx.order}, {self.to_polynomial_string()!r})"

    def to_polynomial_string(self) -> str:
        """Render as an integer polynomial in ``a`` over a common denominator."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        terms = []
        for k, c in enumerate(self.coeffs):
            m = int(c * den)
            if m == 0:
                continue
            mag = abs(m)
            if k == 0:
                body = str(mag)
            else:
                var = "a" if k == 1 else f"a^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            terms.append((m < 0, body))
        if not terms:
            return "0"
        first_neg, first_body = terms[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            text += (" - " if neg else " + ") + body
        if den != 1:
            if len(terms) > 1:
                text = f"({text})"
            text = f"{text}/{den}"
        return text


# polynomial helpers over Fraction lists (low-to-high, stripped)

def _pstrip(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _pstrip(out)


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _pstrip(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]):
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        c = rem[-1] / lead
        d = len(rem) - 1 - db
        quot[d] = c
        for i in range(db + 1):
            rem[d + i] -= c * b[i]
        _pstrip(rem)
    return _pstrip(quot), rem


# -- entry classification ----------------------------------------------------

@dataclass(frozen=True)
class SignedPower:
    """Value is sign * alpha^exponent with sign in {+1, -1}, exponent mod n."""

    sign: int
    exponent: int


class _EntryKind:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


ZERO = _EntryKind("Zero")
OTHER = _EntryKind("Other")


def classify_entry(x: CyclotomicNumber):
    """Sort ``x`` into Zero, SignedPower(sign, k), or Other.

    Positive powers are scanned before negative ones, exponents in increasing
    order, so the answer is deterministic even when representations overlap
    (e.g. -1 at order 2 reports as +alpha^1, not -alpha^0).
    """
    if x.is_zero():
        return ZERO
    ctx = x.ctx
    for k in range(ctx.order):
        if x == ctx.root_power(k):
            return SignedPower(1, k)
    for k in range(ctx.order):
        if x == -ctx.root_power(k):
            return SignedPower(-1, k)
    return OTHER
