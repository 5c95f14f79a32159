"""Identity checks against an independent binomial-expansion oracle.

The oracle builds the D-form sum as a bare {doubled exponent: coeff} dict,
expanding (q-1)^(k-1) by math.comb instead of repeated polynomial
multiplication, over the brute-force enumeration from test_enumeration.
"""

import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

from latticechains import enumeration, geometry
from latticechains.cli import records_for
from latticechains.explorer import triangle_signatures
from latticechains.geometry import ChainPolygon, TriangleSpec, polygon_stats
from latticechains.enumeration import enumerate_D, enumerate_polygons
from latticechains.polyalgebra import QHalfPoly, UnitPoly, q_monomial
from latticechains.verification import (
    CHECK_NAMES,
    d_term_doubled_exponent,
    lhs_main_via_D,
    lhs_main_via_polygons,
    rhs_main,
    rhs_main_via_polygons,
    signature,
    unit_sum,
    unit_sum_process,
    verify_all,
)

from scan_oracles import segment_lattice_count
from test_enumeration import oracle_D
from test_geometry import oracle_boundary_scan, oracle_interior_scan
from test_polyalgebra import Q_MINUS_ONE, evaluate, power


def oracle_lhs_coeffs(i, n):
    coeffs = {}
    for steps in oracle_D(i, n):
        k = len(steps)
        cross = sum(
            steps[l1][0] * steps[l2][1] - steps[l2][0] * steps[l1][1]
            for l1 in range(k)
            for l2 in range(l1 + 1, k)
        )
        shift = 2 * (1 - k) + cross + sum(gcd(a, b) for a, b in steps)
        # (q-1)^(k-1) = sum_t (-1)^t C(k-1,t) q^(k-1-t), exponents doubled
        for t in range(k):
            e = 2 * (k - 1 - t) + shift
            coeffs[e] = coeffs.get(e, 0) + (-1) ** t * comb(k - 1, t)
    return {e: c for e, c in coeffs.items() if c}


def test_lhs_frozen_hand_values():
    assert lhs_main_via_D(1, 2) == q_monomial(1)
    assert lhs_main_via_D(2, 5) == q_monomial(3)
    assert lhs_main_via_D(3, 7) == q_monomial(7)


def test_rhs_frozen_values():
    assert rhs_main(1, 2) == q_monomial(1)
    assert rhs_main(2, 4) == q_monomial(2)
    assert rhs_main(3, 7) == q_monomial(7)
    assert rhs_main(2, 4).render() == "q"


def test_rhs_rejects_bad_ranges():
    with pytest.raises(ValueError):
        rhs_main(0, 3)
    with pytest.raises(ValueError):
        rhs_main(3, 3)
    with pytest.raises(ValueError):
        verify_all(4, 2)


@pytest.mark.parametrize("n", range(2, 10))
def test_lhs_matches_binomial_oracle(n):
    for i in range(1, n):
        got = dict(lhs_main_via_D(i, n).items())
        assert got == oracle_lhs_coeffs(i, n)


def test_polygon_form_frozen_values():
    assert lhs_main_via_polygons(TriangleSpec(1, 1)) == q_monomial(4)
    assert lhs_main_via_polygons(TriangleSpec(2, 3)) == q_monomial(6)
    assert lhs_main_via_polygons(TriangleSpec(3, 4)) == q_monomial(10)
    assert rhs_main_via_polygons(TriangleSpec(3, 4)) == q_monomial(10)


@pytest.mark.parametrize("i", range(1, 8))
@pytest.mark.parametrize("j", range(1, 8))
def test_polygon_form_matches_pick_free_term_sum(i, j):
    # each term from its definition, with i(P) and b(P) counted by lattice
    # scans and the sum built one polynomial at a time
    spec = TriangleSpec(i, j)
    total = QHalfPoly()
    for p in enumerate_polygons(spec):
        if p.is_segment:
            interior, boundary = 0, segment_lattice_count((0, 0), (i, j))
        else:
            verts = list(p.vertices)
            interior, boundary = oracle_interior_scan(verts), oracle_boundary_scan(verts)
        total = total + power(Q_MINUS_ONE, p.k - 1) * q_monomial(
            2 * (interior + boundary - (p.k - 1)))
    assert lhs_main_via_polygons(spec) == total


def test_unit_sum_frozen_values():
    assert unit_sum(TriangleSpec(1, 1)) == UnitPoly.one()
    assert unit_sum(TriangleSpec(2, 3)) == UnitPoly.one()
    assert unit_sum(TriangleSpec(3, 4)) == UnitPoly.one()
    assert unit_sum_process(TriangleSpec(1, 1)) == UnitPoly.one()
    assert unit_sum_process(TriangleSpec(2, 3)) == UnitPoly.one()
    assert unit_sum_process(TriangleSpec(3, 4)) == UnitPoly.one()


@pytest.mark.parametrize("i", range(1, 8))
@pytest.mark.parametrize("j", range(1, 8))
def test_unit_sums_collapse_to_one(i, j):
    spec = TriangleSpec(i, j)
    assert unit_sum(spec) == UnitPoly.one()
    assert unit_sum_process(spec) == UnitPoly.one()


def test_unit_sum_term_degrees_stay_bounded():
    for i, j in [(3, 4), (5, 6), (7, 7)]:
        spec = TriangleSpec(i, j)
        stats = [polygon_stats(p) for p in enumerate_polygons(spec)]
        bound = max(s.interior for s in stats) + max(s.v_count - 2 for s in stats)
        for s in stats:
            assert s.u + (s.v_count - 2) <= bound


def test_unit_sum_direct_fraction_substitution(seed=915):
    # independent of UnitPoly arithmetic: plain Fraction powers
    rng = random.Random(seed)
    for i, j in [(2, 3), (3, 4), (5, 5), (6, 4)]:
        spec = TriangleSpec(i, j)
        stats = [polygon_stats(p) for p in enumerate_polygons(spec)]
        for _ in range(10):
            den = rng.randint(2, 40)
            num = rng.randint(1, den - 1)
            x = Fraction(num, den)
            assert sum(x ** s.u * (1 - x) ** (s.v_count - 2) for s in stats) == 1
            assert evaluate(unit_sum(spec), x) == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_verify_all_passes(n):
    for i in range(1, n):
        report = verify_all(i, n)
        assert dict(report.checks)["d_form"]
        assert report.failed_check is None
        assert report.all_passed
        assert [name for name, _ in report.checks] == list(CHECK_NAMES)
        assert all(ok for _, ok in report.checks)


def test_report_ledger_matches_enumeration():
    report = verify_all(3, 7)
    ds = list(enumerate_D(3, 7))
    assert len(report.per_term_ledger) == len(ds)
    for (element, doubled, k), d in zip(report.per_term_ledger, ds):
        assert element == d
        assert k == d.k
        assert doubled == d_term_doubled_exponent(d)


def test_form_consistency_factor():
    for i, n in [(1, 2), (2, 5), (3, 7), (4, 10), (5, 11)]:
        spec = TriangleSpec(i, n - i)
        g = gcd(spec.i, spec.j)
        assert lhs_main_via_polygons(spec) == lhs_main_via_D(i, n) * q_monomial(2 + g)


def test_violation_is_reported_not_raised(monkeypatch):
    import latticechains.verification as verification

    monkeypatch.setattr(
        verification, "rhs_main", lambda i, n: q_monomial(i * (n - i) - n + 4)
    )
    report = verification.verify_all(2, 5)
    assert report.failed_check == "d_form"
    assert dict(report.checks)["d_form"] is False
    # untampered checks still pass and are reported
    assert dict(report.checks)["unit_sum"] is True


def test_form_consistency_catches_a_wrong_d_walk(monkeypatch):
    # three chains for (2,5), two of them invalid, in place of the true two;
    # their terms fold to the true lhs, since the fold has a kernel, so only
    # the key histograms tell them apart
    import latticechains.verification as verification

    wrong = (((2, 5),), ((1, 1), (1, 1), (1, 1)), ((1, 3), (1, 2)))
    monkeypatch.setattr(verification, "chains_D", lambda i, n: iter(wrong))
    report = verification.verify_all(2, 5)
    assert report.failed_check == "form_consistency"
    assert [name for name, ok in report.checks if not ok] == ["form_consistency"]


@pytest.mark.parametrize("i", range(1, 13))
def test_signature_matches_pick_route(i):
    # the key route against polygon_stats over validated chain polygons
    for j in range(1, 13):
        spec = TriangleSpec(i, j)
        pick = Counter((s.u, s.v_count - 2) for s in map(polygon_stats, enumerate_polygons(spec)))
        assert signature(spec) == pick


def count_validations(monkeypatch) -> Counter:
    """Count check_steps calls, through the enumeration and geometry
    bindings both, and the compositions and polygons built."""
    counts = Counter()
    check_steps = geometry.check_steps

    def counting_check(steps):
        counts["check_steps"] += 1
        check_steps(steps)

    monkeypatch.setattr(enumeration, "check_steps", counting_check)
    monkeypatch.setattr(geometry, "check_steps", counting_check)
    for name, cls in (("compositions", enumeration.CompositionD),
                      ("polygons", ChainPolygon)):
        def counting_post_init(self, name=name, post_init=cls.__post_init__):
            counts[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    return counts


def test_verify_checks_no_chain_and_builds_no_object(monkeypatch):
    counts = count_validations(monkeypatch)
    for n in range(2, 14):
        for i in range(1, n):
            assert verify_all(i, n).all_passed
    assert counts == {}  # the parent checked |D| + |C| = 611 + 611 chains


def test_triangle_signatures_check_no_chain_and_build_no_object(monkeypatch):
    counts = count_validations(monkeypatch)
    triangle_signatures(7, 7)
    assert counts == {}


def test_enumerate_records_check_each_chain_once(monkeypatch):
    counts = count_validations(monkeypatch)
    assert len(records_for(TriangleSpec(8, 9))) == 149
    assert counts == {"check_steps": 149, "polygons": 149}


def test_signature_streams_the_walk():
    # the proof path counts keys off the walk; a sorted list of the family
    # would hold every step tuple at once
    spec = TriangleSpec(14, 14)
    family_bytes = sum(sys.getsizeof(steps) for steps in enumeration.chains_C(spec.i, spec.j))
    signature(spec)
    tracemalloc.start()
    try:
        signature(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak * 4 < family_bytes
