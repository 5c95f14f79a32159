from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latticechains.polyalgebra import (
    QHalfPoly,
    UnitPoly,
    packed_equals,
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
    assert QHalfPoly.fold_terms({(0, 0): 1}) == QHalfPoly.one()
    assert UnitPoly.fold_terms({(0, 0): 1}) == UnitPoly.one()


def test_each_type_folds_with_its_own_step():
    # one term y^0 * (1 - y^step)^1: step -2 in v for QHalfPoly, 1 in x for UnitPoly
    assert QHalfPoly.fold_terms({(0, 1): 1}).render() == "1 - q^-1"
    assert UnitPoly.fold_terms({(0, 1): 1}).render() == "-x + 1"


@pytest.mark.parametrize("cls", [QHalfPoly, UnitPoly])
def test_a_power_below_zero_is_refused(cls):
    # (1 - y^step)^-1 is no polynomial: the fold refuses it, as packed_equals does
    with pytest.raises(ValueError, match="power -1"):
        cls.fold_terms({(0, 0): 1, (3, -1): 7})
    assert not packed_equals([(0, 0, 1), (3, -1, 7)], 1, 0)


def test_q_minus_one_times_sqrt_q():
    # (q - 1) * q^(1/2) = q^(3/2) - q^(1/2), i.e. v^3 - v
    got = Q_MINUS_ONE * QHalfPoly.monomial(1)
    assert got == QHalfPoly({3: 1, 1: -1})


def test_one_minus_x_squared():
    assert ONE_MINUS_X * ONE_MINUS_X == UnitPoly({0: 1, 1: -2, 2: 1})


def test_q_monomial_examples():
    assert QHalfPoly.monomial(0) == QHalfPoly.one()
    assert QHalfPoly.monomial(3).render() == "q^(3/2)"
    assert QHalfPoly.monomial(-1).render() == "q^(-1/2)"
    assert QHalfPoly.monomial(-1).items() == [(-1, 1)]


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
    assert QHalfPoly.fold_terms(histogram) == term_by_term(
        QHalfPoly, histogram, one_minus_v_to_minus_2)


@SETTINGS
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 7)), mults, max_size=8))
def test_unit_fold_matches_term_by_term_sum(histogram):
    assert UnitPoly.fold_terms(histogram) == term_by_term(
        UnitPoly, histogram, ONE_MINUS_X)


def test_empty_fold_is_zero():
    assert QHalfPoly.fold_terms({}) == QHalfPoly()
    assert UnitPoly.fold_terms(Counter()) == UnitPoly()


# packed_equals is checked against the expanded fold, through fold_equals,
# which asks it of a histogram. Histograms that do fold to a monomial are
# built from one by the fold's kernel,
# y^s (1 - y^t)^p = y^s (1 - y^t)^(p+1) + y^(s+t) (1 - y^t)^p, t the step.
STEPS = {QHalfPoly: -2, UnitPoly: 1}


def fold_equals(cls, histogram, target) -> bool:
    """cls.fold_terms(histogram) == target, for a monomial target c * y^e and
    positive multiplicities, by packed_equals with z = y^step and
    a = (shift - e)/step. A term a parity apart (q) is refused: it leaves a
    nonzero part off the target's exponents."""
    [(e, c)] = target.items()
    terms = []
    for (shift, power), mult in histogram.items():
        a, off = divmod(shift - e, STEPS[cls])
        if off:
            return False
        terms.append((a, power, mult))
    return packed_equals(terms, c, 0)


classes = st.sampled_from([QHalfPoly, UnitPoly])
big_mults = st.integers(1, 2**100)
splits = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2**100)), max_size=40)


def split(cls, shift, coeff, moves):
    """A histogram of positive multiplicities with powers up to 40 that folds
    to coeff * y^shift: each move sends part of one term through the kernel."""
    hist = Counter({(shift, 0): coeff})
    for pick, amount in moves:
        (s, p), mult = sorted(hist.items())[pick % len(hist)]
        if p == 40:
            continue
        moved = amount % mult + 1
        hist[s, p] -= moved
        hist[s, p + 1] += moved
        hist[s + STEPS[cls], p] += moved
        hist += Counter()  # drops the term emptied
    return dict(hist)


@SETTINGS
@given(classes, st.integers(0, 40), big_mults, splits)
def test_fold_equals_accepts_what_folds_to_the_monomial(cls, e, coeff, moves):
    histogram = split(cls, e, coeff, moves)
    target = cls.monomial(e, coeff)
    assert cls.fold_terms(histogram) == target
    assert fold_equals(cls, histogram, target)


@SETTINGS
@given(classes, st.booleans(), st.data())
def test_fold_equals_agrees_with_the_expanded_fold(cls, folded, data):
    low = -40 if cls is QHalfPoly else 0
    e, coeff = data.draw(st.integers(low, 40)), data.draw(big_mults)
    if folded:
        histogram = split(cls, e, coeff, data.draw(splits))
    else:
        histogram = data.draw(st.dictionaries(
            st.tuples(st.integers(low, 40), st.integers(0, 40)), big_mults, max_size=8))
    for key, delta in data.draw(st.lists(st.tuples(st.sampled_from(sorted(histogram) or [(0, 0)]),
                                                   st.integers(-2, 2)), max_size=2)):
        if key in histogram and histogram[key] + delta > 0:
            histogram[key] += delta
    target = cls.monomial(max(low, e + data.draw(st.integers(-2, 2))),
                          max(1, coeff + data.draw(st.integers(-1, 1))))
    assert fold_equals(cls, histogram, target) == (cls.fold_terms(histogram) == target)


@SETTINGS
@given(splits)
def test_a_unit_sum_moved_by_one_is_refused(moves):
    histogram = split(UnitPoly, 0, 1, moves)
    assert fold_equals(UnitPoly, histogram, UnitPoly.one())
    for key in histogram:
        for delta in (-1, 1):
            moved = Counter(histogram)
            moved[key] += delta
            moved += Counter()
            assert not fold_equals(UnitPoly, dict(moved), UnitPoly.one()), (key, delta)


def test_fold_equals_refusals():
    # a parity apart, beyond the top shift, the empty fold, a negative power
    assert not fold_equals(QHalfPoly, {(3, 0): 1, (2, 1): 1}, QHalfPoly.monomial(2))
    assert not fold_equals(QHalfPoly, {(2, 0): 1}, QHalfPoly.monomial(3))
    assert not fold_equals(QHalfPoly, {(2, 0): 1}, QHalfPoly.monomial(4))
    assert not fold_equals(UnitPoly, {}, UnitPoly.one())
    assert not fold_equals(UnitPoly, {(0, -1): 1}, UnitPoly.one())
    assert fold_equals(QHalfPoly, {(-3, 0): 2}, QHalfPoly.monomial(-3, 2))
    with pytest.raises(ValueError):
        fold_equals(UnitPoly, {(0, 0): 1}, UnitPoly({0: 1, 1: 1}))
