"""Exact arithmetic in the cyclotomic field Q(alpha), alpha = exp(2*pi*i/n).

Elements are kept in the power basis 1, alpha, ..., alpha^(phi(n)-1) of the
field Q[x]/Phi_n(x), as integer numerators ``nums`` over one positive integer
denominator ``den``. Reduction happens on every operation and the pair is kept
in lowest terms (gcd(den, *nums) == 1), so two values are equal exactly when
their (nums, den) tuples are equal. Every way of making a number ends in
``_raw``, which returns the one object its context holds for that (nums, den):
within a context, equal values are one object. This is a field (Phi_n is
irreducible), unlike the group ring Q[x]/(x^n - 1), so every nonzero element has
an inverse. The automorphisms alpha -> alpha^k, k prime to n, give both ``conj``
(k = n-1) and ``inv``: the inverse is the product of the other conjugates over
the norm, which is rational. ``Fraction`` appears only at the edges: the public
constructor, ``from_rational`` and the arithmetic operators accept it.
"""

from __future__ import annotations

import cmath
import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ContextMismatch


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
                 "_held", "_roots", "_zero", "_kinds")

    def __init__(self, order: int):
        if type(order) is not int or order < 1:  # type(): bool is an int subclass
            raise ValueError("order must be a positive integer")
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        d = self.degree
        # x^k mod Phi_n for every exponent any operation can produce:
        # automorphisms (conj, inv) need k < order, multiplication k <= 2d - 2.
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
        self._held = {}  # (nums, den) -> the one CyclotomicNumber of that value
        self._roots = tuple(_raw(self, p, 1) for p in powers[:order])
        self._zero = _raw(self, (0,) * d, 1)
        self._kinds = None  # classify_entry's table, built on first use

    def zero(self) -> "CyclotomicNumber":
        return self._zero

    def one(self) -> "CyclotomicNumber":
        return self._roots[0]

    def root_power(self, k: int) -> "CyclotomicNumber":
        """alpha^k, reduced into the power basis. k may be any integer."""
        return self._roots[k % self.order]

    def _power_sum(self, terms, den: int = 1) -> "CyclotomicNumber":
        """The sum of c * alpha^e / den over the (e, c) pairs, 0 <= e < order;
        the caller knows the result to be in lowest terms over ``den``."""
        d = self.degree
        out = [0] * d
        powers = self._powers
        for e, c in terms:
            if e < d:  # alpha^e is a basis element
                out[e] += c
            elif c:
                for i, r in enumerate(powers[e]):
                    if r:
                        out[i] += c * r
        return _raw(self, tuple(out), den)

    def from_rational(self, q) -> "CyclotomicNumber":
        if not isinstance(q, int):
            q = Fraction(q)
        return _raw(self, (q.numerator,) + self._zero.nums[1:], q.denominator)

    def __eq__(self, other):
        return isinstance(other, CyclotomicContext) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicContext", self.order))

    def __reduce__(self):  # a pickled context is rebuilt from its order
        return CyclotomicContext, (self.order,)

    def __repr__(self):
        return f"CyclotomicContext(order={self.order})"


class CyclotomicNumber:
    """One element of Q(alpha): immutable, and the one object of its value in
    its context."""

    __slots__ = ("ctx", "nums", "den")

    def __new__(cls, ctx: CyclotomicContext, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != ctx.degree:
            raise ValueError("coefficient vector has wrong length")
        # each Fraction is in lowest terms, so over the lcm of their
        # denominators no prime divides den and every numerator
        den = math.lcm(*(c.denominator for c in coeffs))
        return _raw(ctx, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __deepcopy__(self, memo):  # immutable: a copy is the number itself
        return self

    def __reduce__(self):  # pickle and copy.copy give the object held for the value
        return _raw, (self.ctx, self.nums, self.den)

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
        da, db = self.den, o.den
        if da == db:
            return _reduced(self.ctx, tuple(a + b for a, b in zip(self.nums, o.nums)), da)
        return _reduced(
            self.ctx, tuple(a * db + b * da for a, b in zip(self.nums, o.nums)), da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ctx, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        d = ctx.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(o.nums):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        powers = ctx._powers
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for i, r in enumerate(powers[k]):
                    if r:
                        out[i] += c * r
        return _reduced(ctx, tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ctx = self.ctx
        n = ctx.order
        rest = ctx.one()
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * self._galois(k)
        # the norm, self times all its conjugates, is a nonzero rational
        norm = self * rest
        assert norm.is_rational() and norm.nums[0] != 0
        num = norm.nums[0]
        scale = norm.den if num > 0 else -norm.den
        return _reduced(ctx, tuple(c * scale for c in rest.nums), rest.den * abs(num))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    # -- conjugation ---------------------------------------------------------

    def conj(self) -> "CyclotomicNumber":
        """Complex conjugate: alpha maps to alpha^(n-1)."""
        if self.is_rational():
            return self
        return self._galois(self.ctx.order - 1)

    def _galois(self, k: int) -> "CyclotomicNumber":
        """The field automorphism alpha -> alpha^k, for 0 < k < order prime to it."""
        n = self.ctx.order
        # an automorphism maps Z[alpha] onto itself, so it keeps the gcd of
        # the numerators and the result needs no reduction
        return self.ctx._power_sum(((i * k % n, c) for i, c in enumerate(self.nums)), self.den)

    # -- predicates / conversion ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        # int / int rounds correctly, so this equals float(Fraction(c, den))
        basis = self.ctx._complex_basis
        den = self.den
        try:
            return sum((c / den * basis[i] for i, c in enumerate(self.nums) if c), complex(0))
        except OverflowError:  # beyond the float range, so read the value over 2^k
            k = max(abs(c).bit_length() for c in self.nums) - den.bit_length()
            z = sum((c / (den << k) * basis[i] for i, c in enumerate(self.nums) if c), complex(0))
        # each part is +-inf, or 0 where exactly zero: inf times a zero part of the
        # basis would be nan, and the rounding noise of a real value an inf
        conj = self.conj()
        real = 0.0 if conj == -self else math.copysign(math.inf, z.real)
        return complex(real, 0.0 if conj == self else math.copysign(math.inf, z.imag))

    def __eq__(self, other):
        if other is self:
            return True
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        return hash((self.ctx.order, self.nums, self.den))

    def __repr__(self):
        return f"CyclotomicNumber({self.ctx.order}, {self.to_polynomial_string()!r})"

    def to_polynomial_string(self) -> str:
        """Render as an integer polynomial in ``a`` over a common denominator."""
        terms = []
        for k, m in enumerate(self.nums):
            if m == 0:
                continue
            mag = abs(m)
            if k == 0:
                body = _decimal(mag)
            else:
                var = "a" if k == 1 else f"a^{k}"
                body = var if mag == 1 else f"{_decimal(mag)}{var}"
            terms.append((m < 0, body))
        if not terms:
            return "0"
        first_neg, first_body = terms[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            text += (" - " if neg else " + ") + body
        if self.den != 1:
            if len(terms) > 1:
                text = f"({text})"
            text = f"{text}/{_decimal(self.den)}"
        return text


def _pi() -> decimal.Decimal:
    """pi at the context's precision: 3 plus t_1 + t_2 + ..., t_0 = 3 and
    t_k = t_(k-1) (2k - 1)^2 / (8k (2k + 1)), six times the arcsine series at 1/2."""
    with decimal.localcontext() as dc:
        dc.prec += 2
        pi, last, term, k = decimal.Decimal(3), None, decimal.Decimal(3), 0
        while pi != last:
            last, k = pi, k + 1
            term = term * (2 * k - 1) ** 2 / (8 * k * (2 * k + 1))
            pi += term
    return +pi


def _cos(x: decimal.Decimal) -> decimal.Decimal:
    """cos(x) for |x| <= pi at the context's precision, by its Taylor series."""
    with decimal.localcontext() as dc:
        dc.prec += 2
        total, last, term, k = decimal.Decimal(1), None, decimal.Decimal(1), 0
        while total != last:
            last, k = total, k + 2
            term = -term * x * x / (k * (k - 1))
            total += term
    return +total


def real_value(z: CyclotomicNumber) -> float:
    """Re(z) rounded to a float: the power basis summed in decimal at a
    precision doubled from 30 digits until the sum is 1e12 times its error
    bound. 0 when Re(z) is exactly zero, +-inf beyond the float range."""
    if (z + z.conj()).is_zero():
        return 0.0
    n = z.ctx.order
    terms = [(c, min(k, n - k)) for k, c in enumerate(z.nums) if c]
    digits = max(abs(c).bit_length() for c, _ in terms) * 30103 // 100000 + 1  # |c| < 10^digits
    prec = 30
    while True:
        with decimal.localcontext() as dc:
            dc.prec = prec
            turn = 2 * _pi() / n if any(j for _, j in terms) else None  # None: z is rational
            total = sum(c * _cos(turn * j) if j else decimal.Decimal(c) for c, j in terms)
            # each term errs by at most 10^(digits + 1 - prec), and so does each partial sum
            if abs(total).scaleb(-12) > decimal.Decimal(len(terms) ** 2).scaleb(digits + 1 - prec):
                return float(total / z.den)
        prec *= 2


def _decimal(m: int) -> str:
    """The decimal digits of ``m`` >= 0, also past int()'s digit limit."""
    try:
        return str(m)
    except ValueError:  # over sys.get_int_max_str_digits() digits
        return str(decimal.Decimal(m))  # exact, and free of that limit


def _raw(ctx: CyclotomicContext, nums: tuple[int, ...], den: int) -> CyclotomicNumber:
    """The one number of ``ctx`` with numerators ``nums``, in lowest terms over ``den`` > 0."""
    x = ctx._held.get((nums, den))
    if x is None:
        x = ctx._held[nums, den] = object.__new__(CyclotomicNumber)
        x.ctx = ctx
        x.nums = nums
        x.den = den
    return x


def _reduced(ctx: CyclotomicContext, nums: tuple[int, ...], den: int) -> CyclotomicNumber:
    """A number from integer numerators over ``den`` > 0, put in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(a // g for a in nums)
            den //= g
    return _raw(ctx, nums, den)


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


def _entry_kinds(ctx: CyclotomicContext) -> dict:
    """classify_entry's answer for every zero or signed power, keyed on (nums, den)."""
    kinds = {(ctx._zero.nums, 1): ZERO}
    for sign in (1, -1):
        for k, root in enumerate(ctx._roots):
            key = (tuple(sign * c for c in root.nums), 1)
            kinds.setdefault(key, SignedPower(sign, k))
    return kinds


def classify_entry(x: CyclotomicNumber):
    """Sort ``x`` into Zero, SignedPower(sign, k), or Other.

    Where representations overlap, positive powers win over negative ones and
    smaller exponents over larger ones, so the answer is deterministic (e.g. -1
    at order 2 reports as +alpha^1, not -alpha^0).
    """
    ctx = x.ctx
    if ctx._kinds is None:
        ctx._kinds = _entry_kinds(ctx)
    return ctx._kinds.get((x.nums, x.den), OTHER)
