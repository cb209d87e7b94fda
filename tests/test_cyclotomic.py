import decimal
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    classify_entry_scan,
    fraction_coords,
    ref_add,
    ref_conj,
    ref_inv,
    ref_mul,
    ref_sub,
)
from hermix import (
    OTHER,
    ZERO,
    ContextMismatch,
    CyclotomicContext,
    CyclotomicNumber,
    SignedPower,
    classify_entry,
    cyclotomic_polynomial,
)
from hermix.cyclotomic import real_value


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_context_degree_is_euler_phi():
    for order, phi in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (10, 4), (12, 4)]:
        assert CyclotomicContext(order).degree == phi


def test_context_order_must_be_a_positive_int():
    # bool is an int subclass: CyclotomicContext(True) would be a field of order True
    for order in (0, -3, 2.0, "3", None, True, False, np.int64(3)):
        with pytest.raises(ValueError, match="^order must be a positive integer$"):
            CyclotomicContext(order)


def test_root_power_matches_unit_circle():
    for order in (2, 3, 4, 5, 10, 12):
        ctx = CyclotomicContext(order)
        for k in range(order):
            want = complex(
                math.cos(2 * math.pi * k / order), math.sin(2 * math.pi * k / order)
            )
            assert abs(ctx.root_power(k).to_complex() - want) < 1e-12


def test_all_roots_sum_to_zero():
    for order in (2, 3, 4, 6, 10, 12):
        ctx = CyclotomicContext(order)
        total = ctx.zero()
        for k in range(order):
            total = total + ctx.root_power(k)
        assert total.is_zero()


def test_power_sum_folds_one_plus_alpha_plus_alpha_squared_to_zero():
    # the map Z[x]/(x^3 - 1) -> Q(alpha) that the class-H inverse reduces through
    ctx = CyclotomicContext(3)
    assert ctx._power_sum([(0, 1), (1, 1), (2, 1)]) == ctx.zero()
    assert ctx._power_sum([(2, 3)], den=2) == ctx.root_power(2) * Fraction(3, 2)


orders = st.sampled_from([2, 3, 4, 5, 6, 10, 12])


@st.composite
def field_elements(draw, order=None):
    if order is None:
        order = draw(orders)
    ctx = CyclotomicContext(order)
    coeffs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
            min_size=ctx.degree,
            max_size=ctx.degree,
        )
    )
    return CyclotomicNumber(ctx, coeffs)


@st.composite
def element_pairs(draw, count=2, order_from=orders):
    order = draw(order_from)
    return tuple(draw(field_elements(order=order)) for _ in range(count))


@given(element_pairs(count=3))
def test_field_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a - b == a + (-b)


@given(element_pairs())
def test_conjugation_is_a_ring_map(pair):
    a, b = pair
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@given(field_elements())
def test_inverse_multiplies_to_one(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == 1
        assert (a / a) == 1


@given(field_elements())
def test_complex_embedding_is_multiplicative(a):
    z = a.to_complex()
    assert abs((a * a).to_complex() - z * z) < 1e-6
    assert abs(a.conj().to_complex() - z.conjugate()) < 1e-9


def test_complex_embedding_beyond_the_float_range():
    # each part reads as +-inf, or as 0 where it is exactly zero: no nan from inf
    # times a zero part of the basis, and no inf from a real value's rounding noise
    inf = math.inf
    for order, real, imag in (
        (1, inf, 0.0), (2, -inf, 0.0), (3, -inf, inf), (4, 0.0, inf), (6, inf, inf), (12, inf, inf)
    ):
        ctx = CyclotomicContext(order)
        big = ctx.from_rational(2**1100)
        a = ctx.root_power(1)
        assert big.to_complex() == complex(inf, 0.0)
        assert (-big / 3).to_complex() == complex(-inf, 0.0)
        assert (big * (a + a.conj())).to_complex() == complex(real, 0.0)  # 2 Re(a) big
        assert (big * (a - a.conj())).to_complex() == complex(0.0, imag)  # 2i Im(a) big
    assert (CyclotomicContext(3).root_power(1) * 2**1100).to_complex() == complex(-inf, inf)
    assert CyclotomicContext(3).from_rational(2**1023).to_complex() == complex(2.0**1023)


def test_real_value_rendering():
    # exactly zero is 0, never -0; a real part that cancels all but 1e-25 of
    # its terms keeps its digits; beyond the float range it is +-inf
    ctx4, ctx5 = CyclotomicContext(4), CyclotomicContext(5)
    assert f"{real_value(ctx5.zero()):.10g}" == "0"
    assert f"{real_value(-ctx4.root_power(1)):.10g}" == "0"  # -i
    assert f"{real_value(ctx5.from_rational(-1)):.10g}" == "-1"
    assert f"{real_value(ctx5.from_rational(Fraction(1, 2))):.10g}" == "0.5"
    # phi^-120 = F(121) - F(120) phi, with -phi = a^2 + a^3 at order 5
    fib = [0, 1]
    while len(fib) < 122:
        fib.append(fib[-1] + fib[-2])
    tiny = CyclotomicNumber(ctx5, [fib[121], 0, fib[120], fib[120]])
    assert f"{real_value(tiny):.10g}" == "8.346092045e-26"
    huge = CyclotomicNumber(ctx5, [2**1100, 0, 1, 1])
    assert (real_value(huge), real_value(-huge)) == (math.inf, -math.inf)
    # everywhere else it is the float sum of the power basis, to rounding
    rng = random.Random(1)
    for order in (2, 3, 4, 5, 6, 7, 12, 97):
        ctx = CyclotomicContext(order)
        for _ in range(20):
            z = CyclotomicNumber(ctx, [rng.randint(-9, 9) for _ in range(ctx.degree)])
            assert real_value(z) == pytest.approx(z.to_complex().real, rel=1e-12, abs=1e-12)


def test_power_conjugation_rule():
    for order in (1, 2, 3, 4, 5, 6, 7, 10):
        ctx = CyclotomicContext(order)
        for k in range(order):
            assert ctx.root_power(k).conj() == ctx.root_power((order - k) % order)
            assert ctx.root_power(k) * ctx.root_power(order - k) == 1
        for q in (0, 1, -1, Fraction(-7, 3)):  # rationals are self-conjugate
            assert ctx.from_rational(q).conj() == ctx.from_rational(q)


def test_context_mismatch_is_rejected():
    a = CyclotomicContext(3).one()
    b = CyclotomicContext(4).one()
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b


def test_rational_lifting():
    ctx = CyclotomicContext(5)
    a = ctx.from_rational(Fraction(3, 2))
    assert a + Fraction(1, 2) == 2
    assert a * 2 == 3
    assert 1 - ctx.one() == 0


def test_classify_entry_cases():
    ctx3 = CyclotomicContext(3)
    g = ctx3.root_power(1)
    assert classify_entry(ctx3.zero()) is ZERO
    assert classify_entry(ctx3.one()) == SignedPower(1, 0)
    assert classify_entry(g) == SignedPower(1, 1)
    assert classify_entry(-(g * g)) == SignedPower(-1, 2)
    assert classify_entry(ctx3.one() - g) is OTHER
    assert classify_entry(ctx3.from_rational(2)) is OTHER
    assert classify_entry(ctx3.from_rational(Fraction(1, 2))) is OTHER
    # -1 = alpha^1 at order 2; the positive reading wins
    ctx2 = CyclotomicContext(2)
    assert classify_entry(ctx2.from_rational(-1)) == SignedPower(1, 1)
    # 1 + gamma = -gamma^2
    assert classify_entry(ctx3.one() + g) == SignedPower(-1, 2)


def test_polynomial_rendering():
    ctx = CyclotomicContext(5)
    a = ctx.root_power(1)
    assert ctx.zero().to_polynomial_string() == "0"
    assert ctx.one().to_polynomial_string() == "1"
    assert (-ctx.one()).to_polynomial_string() == "-1"
    assert a.to_polynomial_string() == "a"
    assert (a * a - a * 2 + 1).to_polynomial_string() == "1 - 2a + a^2"
    assert ((a - 1) / 2).to_polynomial_string() == "(-1 + a)/2"
    assert (ctx.from_rational(Fraction(1, 2))).to_polynomial_string() == "1/2"


def test_root_power_wraps_modulo_order():
    ctx = CyclotomicContext(6)
    assert ctx.root_power(7) == ctx.root_power(1)
    assert ctx.root_power(-1) == ctx.root_power(5)


# -- integer numerators over one denominator ----------------------------------

every_order = st.integers(1, 12)


@st.composite
def signed_power_sums(draw):
    """Sums of up to three signed root powers, which are often a signed power."""
    ctx = CyclotomicContext(draw(every_order))
    terms = draw(st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 11)), max_size=3))
    total = ctx.zero()
    for sign, k in terms:
        total = total + ctx.root_power(k) * sign
    return total


def assert_canonical(x):
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(c, int) for c in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.ctx.degree
    # the same value built from its Fraction coordinates stores the same tuples
    twin = CyclotomicNumber(x.ctx, fraction_coords(x))
    assert (twin.nums, twin.den) == (x.nums, x.den)
    assert twin == x and hash(twin) == hash(x)


# each has a non-cyclic unit group, so no one k generates the Galois group;
# 21 has degree 12
larger_orders = st.sampled_from([15, 16, 20, 21, 24, 30])


@given(element_pairs(order_from=st.one_of(every_order, larger_orders)))
def test_integer_arithmetic_matches_fraction_reference(pair):
    a, b = pair
    ctx = a.ctx
    fa, fb = fraction_coords(a), fraction_coords(b)
    results = [
        (a, fa),
        (a + b, ref_add(fa, fb)),
        (a - b, ref_sub(fa, fb)),
        (-a, tuple(-c for c in fa)),
        (a * b, ref_mul(ctx, fa, fb)),
        (a.conj(), ref_conj(ctx, fa)),
    ]
    if not a.is_zero():
        results.append((a.inv(), ref_inv(ctx, fa)))
    for got, want in results:
        assert_canonical(got)
        assert fraction_coords(got) == want
    assert hash(a + b) == hash(b + a) and hash(a * b) == hash(b * a)
    assert hash(a - b + b) == hash(a)


def test_inverse_of_dense_element_at_order_97():
    ctx = CyclotomicContext(97)
    rng = random.Random(97)
    a = CyclotomicNumber(ctx, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(96)])
    b = a.inv()
    assert_canonical(b)
    assert a * b == 1


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@given(every_order, st.lists(fractions, min_size=12, max_size=12))
def test_public_constructor_stores_lowest_terms(order, coords):
    ctx = CyclotomicContext(order)
    coords = tuple(coords[: ctx.degree])
    x = CyclotomicNumber(ctx, coords)
    assert_canonical(x)
    assert fraction_coords(x) == coords
    assert_canonical(ctx.from_rational(coords[0]))


def test_rendering_reads_numerators_over_den():
    ctx = CyclotomicContext(5)
    a = ctx.root_power(1)
    assert ctx.from_rational(Fraction(1, 2)).to_polynomial_string() == "1/2"
    assert ((1 + a) / 3).to_polynomial_string() == "(1 + a)/3"
    assert (-(a * a)).to_polynomial_string() == "-a^2"
    assert (((1 + a) / 3).nums, ((1 + a) / 3).den) == ((1, 1, 0, 0), 3)


def test_classify_entry_matches_scan_on_every_signed_power():
    for order in range(1, 13):
        ctx = CyclotomicContext(order)
        values = [ctx.zero()]
        for k in range(order):
            values += [ctx.root_power(k), -ctx.root_power(k)]
        for x in values:
            assert classify_entry(x) == classify_entry_scan(x)
            assert classify_entry(x) is not OTHER


@given(st.one_of(signed_power_sums(), every_order.flatmap(lambda n: field_elements(order=n))))
def test_classify_entry_matches_scan(x):
    assert classify_entry(x) == classify_entry_scan(x)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_render_past_the_integer_digit_limit():
    # 2^14300 has 4,305 digits and 3^9100 has 4,342, both over the default limit of
    # 4,300; decimal gives the expected digits without an int -> str conversion
    big = decimal.Context(prec=5000)
    two, three = (format(big.power(b, e), "f") for b, e in ((2, 14300), (3, 9100)))
    five_two = format(big.multiply(5, big.power(2, 14300)), "f")
    ctx = CyclotomicContext(3)
    x = CyclotomicNumber(ctx, [Fraction(-(2**14300), 3**9100), Fraction(5 * 2**14300, 3**9100)])
    assert x.to_polynomial_string() == f"(-{two} + {five_two}a)/{three}"
    assert ctx.from_rational(2**14300).to_polynomial_string() == two
    # under the limit the digits are str()'s
    assert CyclotomicNumber(ctx, [Fraction(-7, 10**4000), 0]).to_polynomial_string() == (
        "-7/1" + "0" * 4000
    )
