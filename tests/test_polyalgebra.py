from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latticechains.polyalgebra import (
    QHalfPoly,
    UnitPoly,
    q_monomial,
    term_x_pow_times_one_minus_x_pow,
)

coeff = st.integers(-(10**12), 10**12)
qpolys = st.dictionaries(st.integers(-6, 8), coeff, max_size=6).map(QHalfPoly)
upolys = st.dictionaries(st.integers(0, 8), coeff, max_size=6).map(UnitPoly)
rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5))

Q_MINUS_ONE = QHalfPoly({2: 1, 0: -1})
ONE_MINUS_X = UnitPoly({0: 1, 1: -1})


def power(base, exponent):
    """base to a nonnegative int power, by repeated *."""
    result = type(base).one()
    for _ in range(exponent):
        result = result * base
    return result


def evaluate(p, x):
    """The exact value of p at the Fraction x, summed over its items."""
    return sum((c * x**e for e, c in p.items()), Fraction(0))


def test_empty_product_is_one():
    # a k = 1 term folds to its bare monomial: (1 - v^-2)^0 = 1
    assert QHalfPoly.fold_terms({(0, 0): 1}, step=-2) == QHalfPoly.one()
    assert UnitPoly.fold_terms({(0, 0): 1}, step=1) == UnitPoly.one()


def test_q_minus_one_times_sqrt_q():
    # (q - 1) * q^(1/2) = q^(3/2) - q^(1/2), i.e. v^3 - v
    got = Q_MINUS_ONE * q_monomial(1)
    assert got == QHalfPoly({3: 1, 1: -1})


def test_one_minus_x_squared():
    assert ONE_MINUS_X * ONE_MINUS_X == UnitPoly({0: 1, 1: -2, 2: 1})


def test_q_monomial_examples():
    assert q_monomial(0) == QHalfPoly.one()
    assert q_monomial(3).render() == "q^(3/2)"
    assert q_monomial(-1).render() == "q^(-1/2)"
    assert q_monomial(-1).items() == [(-1, 1)]


def test_term_examples():
    assert term_x_pow_times_one_minus_x_pow(0, 0) == UnitPoly.one()
    assert term_x_pow_times_one_minus_x_pow(1, 1) == UnitPoly({1: 1, 2: -1})
    assert term_x_pow_times_one_minus_x_pow(2, 1) == UnitPoly({2: 1, 3: -1})


def test_no_stored_zeros():
    p = QHalfPoly({4: 3, 1: 0})
    assert p.items() == [(4, 3)]
    cancelled = p + QHalfPoly({4: -3})
    assert cancelled.items() == []
    assert cancelled.render() == "0"


def test_negative_exponent_rejected_for_unit_polys():
    with pytest.raises(ValueError):
        UnitPoly({-1: 2})


def test_render_canonical_forms():
    assert QHalfPoly().render() == "0"
    assert QHalfPoly.one().render() == "1"
    assert QHalfPoly({2: 1}).render() == "q"
    assert QHalfPoly({4: 2, 2: -1, 0: 5}).render() == "2*q^2 - q + 5"
    assert QHalfPoly({3: 1, -2: -4}).render() == "q^(3/2) - 4*q^-1"
    assert UnitPoly({3: 1, 1: -2, 0: 1}).render() == "x^3 - 2*x + 1"


@given(qpolys, qpolys, qpolys)
def test_ring_axioms_q(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p + r == r + p
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p + QHalfPoly() == p
    assert p * QHalfPoly.one() == p


@given(upolys, upolys, upolys)
def test_ring_axioms_unit(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p * (r + s) == p * r + p * s
    assert p + p * UnitPoly({0: -1}) == UnitPoly()


@given(qpolys, qpolys, rationals)
def test_eval_is_ring_homomorphism(p, r, x):
    if x == 0 and any(e < 0 for e, _ in p.items() + r.items()):
        return
    assert evaluate(p + r, x) == evaluate(p, x) + evaluate(r, x)
    assert evaluate(p * r, x) == evaluate(p, x) * evaluate(r, x)


@given(st.integers(0, 6), st.integers(0, 6), rationals)
def test_term_eval_matches_direct_formula(a, b, x):
    p = term_x_pow_times_one_minus_x_pow(a, b)
    assert evaluate(p, x) == x**a * (1 - x) ** b


@given(st.integers(0, 8), st.integers(0, 8))
def test_term_indicator_values(a, b):
    p = term_x_pow_times_one_minus_x_pow(a, b)
    assert evaluate(p, Fraction(0)) == (1 if a == 0 else 0)
    assert evaluate(p, Fraction(1)) == (1 if b == 0 else 0)


def test_big_coefficient_stress():
    # (q-1)^80 has coefficients beyond 64 bits; check them against binomials
    p = power(Q_MINUS_ONE, 80)
    assert p.items() == [(2 * k, (-1) ** (80 - k) * comb(80, k)) for k in range(80, -1, -1)]
    # value at v=2 is (q-1)^80 with q=4
    assert evaluate(p, Fraction(2)) == 3**80


# derandomized so the suite runs the same examples every time
SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])
mults = st.integers(-(10**6), 10**6)


def term_by_term(cls, histogram, one_minus):
    """The fold's sum built one term at a time with * and +."""
    total = cls()
    for (shift, exponent), mult in histogram.items():
        total = total + cls.monomial(shift, mult) * power(one_minus, exponent)
    return total


@SETTINGS
@given(st.dictionaries(st.tuples(st.integers(-12, 12), st.integers(0, 7)), mults, max_size=8))
def test_q_fold_matches_term_by_term_sum(histogram):
    one_minus_v_to_minus_2 = QHalfPoly.one() + QHalfPoly.monomial(-2, -1)
    assert QHalfPoly.fold_terms(histogram, step=-2) == term_by_term(
        QHalfPoly, histogram, one_minus_v_to_minus_2)


@SETTINGS
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 7)), mults, max_size=8))
def test_unit_fold_matches_term_by_term_sum(histogram):
    assert UnitPoly.fold_terms(histogram, step=1) == term_by_term(
        UnitPoly, histogram, ONE_MINUS_X)


def test_empty_fold_is_zero():
    assert QHalfPoly.fold_terms({}, step=-2) == QHalfPoly()
    assert UnitPoly.fold_terms(Counter(), step=1) == UnitPoly()
