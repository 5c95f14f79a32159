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
from hypothesis import given
from hypothesis import strategies as st

from latticechains import cli, enumeration, geometry, montecarlo, verification
from latticechains.explorer import triangle_signatures
from latticechains.geometry import TriangleSpec
from latticechains.enumeration import chains_C, chains_D, enumerate_polygons, region_C, region_D
from latticechains.polyalgebra import QHalfPoly, UnitPoly
from latticechains.verification import (
    CHECK_NAMES,
    _term_keys,
    check_histograms,
    key_signature,
    lhs_main_via_polygons,
    rhs_main,
    rhs_main_via_polygons,
    signature,
    unit_sum,
    unit_sum_process,
    verify_all,
    verify_up_to,
)

from check_oracles import checks_oracle, edited
from scan_oracles import segment_lattice_count
from test_enumeration import oracle_D
from test_geometry import oracle_boundary_scan, oracle_interior_scan
from test_polyalgebra import Q_MINUS_ONE, SETTINGS, evaluate, power


def sweep_C(max_n):
    """The C histograms of every pair 1 <= i < n <= max_n, as verify_up_to walks them."""
    return region_C([max_n - x for x in range(1, max_n)])


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
    assert verify_all(1, 2).lhs == QHalfPoly.monomial(1)
    assert verify_all(2, 5).lhs == QHalfPoly.monomial(3)
    assert verify_all(3, 7).lhs == QHalfPoly.monomial(7)


def test_rhs_frozen_values():
    assert rhs_main(1, 2) == QHalfPoly.monomial(1)
    assert rhs_main(2, 4) == QHalfPoly.monomial(2)
    assert rhs_main(3, 7) == QHalfPoly.monomial(7)
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
        got = dict(verify_all(i, n).lhs.items())
        assert got == oracle_lhs_coeffs(i, n)


def test_polygon_form_frozen_values():
    assert lhs_main_via_polygons(TriangleSpec(1, 1)) == QHalfPoly.monomial(4)
    assert lhs_main_via_polygons(TriangleSpec(2, 3)) == QHalfPoly.monomial(6)
    assert lhs_main_via_polygons(TriangleSpec(3, 4)) == QHalfPoly.monomial(10)
    assert rhs_main_via_polygons(TriangleSpec(3, 4)) == QHalfPoly.monomial(10)


@pytest.mark.parametrize("i", range(1, 8))
@pytest.mark.parametrize("j", range(1, 8))
def test_polygon_form_matches_pick_free_term_sum(i, j):
    # each term from its definition, with i(P) and b(P) counted by lattice
    # scans and the sum built one polynomial at a time
    spec = TriangleSpec(i, j)
    total = QHalfPoly()
    for p in enumerate_polygons(spec):
        k = len(p.vertices) - 1
        if k == 1:
            interior, boundary = 0, segment_lattice_count((0, 0), (i, j))
        else:
            verts = list(p.vertices)
            interior, boundary = oracle_interior_scan(verts), oracle_boundary_scan(verts)
        total = total + power(Q_MINUS_ONE, k - 1) * QHalfPoly.monomial(
            2 * (interior + boundary - (k - 1)))
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
        stats = [s for _, s in enumerate_polygons(spec)]
        bound = max(s.interior for s in stats) + max(s.v_count - 2 for s in stats)
        for s in stats:
            assert s.u + (s.v_count - 2) <= bound


def test_unit_sum_direct_fraction_substitution(seed=915):
    # independent of UnitPoly arithmetic: plain Fraction powers
    rng = random.Random(seed)
    for i, j in [(2, 3), (3, 4), (5, 5), (6, 4)]:
        spec = TriangleSpec(i, j)
        stats = [s for _, s in enumerate_polygons(spec)]
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


def test_region_walks_equal_the_targeted_walks():
    # every end point of each region, and no other, holds the key histogram
    # of its own family
    d_hists = region_D(16)
    c_hists = sweep_C(16)
    pairs = [(i, n) for n in range(2, 17) for i in range(1, n)]
    assert sorted(d_hists) == sorted(pairs)
    assert sorted(c_hists) == sorted((i, n - i) for i, n in pairs)
    for i, n in pairs:
        assert d_hists[i, n] == _term_keys(chains_D(i, n)), (i, n)
        assert c_hists[i, n - i] == _term_keys(chains_C(i, n - i)), (i, n)
    for caps in ([9] * 9, [9, 7, 7, 3, 3, 1], []):
        region = region_C(caps)
        assert list(region) == [(m, n) for m, cap in enumerate(caps, 1) for n in range(1, cap + 1)]
        for (m, n), keys in region.items():
            assert keys == _term_keys(chains_C(m, n)), (m, n)


def test_the_sweep_reports_what_verify_all_reports():
    reports = list(verify_up_to(10))
    assert [(r.spec.i, r.spec.n) for r in reports] == [(i, n) for n in range(2, 11) for i in range(1, n)]
    assert reports == [verify_all(r.spec.i, r.spec.n) for r in reports]


def test_form_consistency_factor():
    for i, n in [(1, 2), (2, 5), (3, 7), (4, 10), (5, 11)]:
        spec = TriangleSpec(i, n - i)
        g = gcd(spec.i, spec.j)
        assert lhs_main_via_polygons(spec) == verify_all(i, n).lhs * QHalfPoly.monomial(2 + g)


def test_violation_is_reported_not_raised(monkeypatch):
    import latticechains.verification as verification

    monkeypatch.setattr(
        verification, "rhs_main", lambda i, n: QHalfPoly.monomial(i * (n - i) - n + 4)
    )
    report = verification.verify_all(2, 5)
    assert report.failed_check == "d_form"
    assert dict(report.checks)["d_form"] is False
    # untampered checks still pass and are reported
    assert dict(report.checks)["unit_sum"] is True


def test_the_verdict_is_read_off_the_checks():
    report = verify_all(2, 5)
    flipped = report._replace(checks=(*report.checks[:2], ("unit_sum", False), *report.checks[3:]))
    assert report.all_passed and report.failed_check is None
    assert not flipped.all_passed and flipped.failed_check == "unit_sum"


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


def test_a_term_with_k_0_leaves_no_lhs():
    # (q - 1)^-1 q^(5/2) is no polynomial, so there is no lhs to print
    report = check_histograms(2, 5, {(1, 1): 1, (3, 2): 1, (5, 0): 7},
                              {(1, 1): 1, (3, 2): 1})
    assert report.lhs is None
    assert report.failed_check == "d_form"
    assert [name for name, ok in report.checks if not ok] == ["d_form", "form_consistency"]


@pytest.mark.parametrize("i", range(1, 13))
def test_signature_matches_pick_route(i):
    # the key route against the Pick route: chain_stats of each listed chain
    for j in range(1, 13):
        spec = TriangleSpec(i, j)
        pick = Counter((s.u, s.v_count - 2) for _, s in enumerate_polygons(spec))
        assert signature(spec) == pick


def count_validations(monkeypatch) -> Counter:
    """Count check_steps calls, through the enumeration and geometry
    bindings both, and check_chain calls, through the geometry and
    montecarlo bindings: the one check of a chain polygon's vertices."""
    counts = Counter()
    check_steps, check_chain = geometry.check_steps, geometry.check_chain

    def counting_steps(steps):
        counts["check_steps"] += 1
        check_steps(steps)

    def counting_chain(vertices, spec):
        counts["check_chain"] += 1
        return check_chain(vertices, spec)

    monkeypatch.setattr(enumeration, "check_steps", counting_steps)
    monkeypatch.setattr(geometry, "check_steps", counting_steps)
    monkeypatch.setattr(geometry, "check_chain", counting_chain)
    monkeypatch.setattr(montecarlo, "check_chain", counting_chain)
    return counts


def test_verify_checks_no_chain_and_builds_no_object(monkeypatch):
    counts = count_validations(monkeypatch)
    for n in range(2, 14):
        for i in range(1, n):
            assert verify_all(i, n).all_passed
    assert counts == {}  # the parent checked |D| + |C| = 611 + 611 chains


def test_a_passing_sweep_builds_no_term_dict(monkeypatch):
    counts = Counter()
    for name in ("_q_terms", "key_signature", "_swapped"):
        def counting(*args, name=name, real=getattr(verification, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(verification, name, counting)
    assert all(report.all_passed for report in verify_up_to(13))
    # checks built on term dicts made 2 * 78 q-term dicts, 78 signatures
    # and 78 swapped signatures here
    assert counts == {}


def test_checks_match_the_term_dict_oracle_on_every_pair():
    d_hists, c_hists = region_D(16), sweep_C(16)
    for n in range(2, 17):
        for i in range(1, n):
            d_keys, c_keys = d_hists[i, n], c_hists[i, n - i]
            expected = checks_oracle(i, n, d_keys, c_keys)
            assert check_histograms(i, n, d_keys, c_keys).checks == expected, (i, n)


SMALL_D, SMALL_C = region_D(9), sweep_C(9)
# (kind, pick, delta, mult): one edit of one term, or one term added
EDITS = st.lists(st.tuples(st.sampled_from(("key", "k", "mult", "drop", "add")),
                           st.integers(0, 99), st.sampled_from((-2, -1, 1, 2)),
                           st.integers(1, 2**64)), max_size=2)


def oracle_verdicts(i, n, d_keys, c_keys) -> tuple:
    """checks_oracle with the one difference allowed: a C key off Pick's
    parity, which the oracle's floored signature moves onto a neighbouring
    term, fails both unit sums."""
    expected = dict(checks_oracle(i, n, d_keys, c_keys))
    if any((key - gcd(i, n - i)) & 1 for key, _ in c_keys):
        expected["unit_sum"] = expected["unit_sum_process"] = False
    return tuple(expected.items())


@SETTINGS
@given(st.sampled_from(sorted(SMALL_D)), EDITS, EDITS, st.booleans(), st.booleans())
def test_checks_match_the_term_dict_oracle_on_edited_histograms(pair, d_edits, c_edits,
                                                                d_empty, c_empty):
    i, n = pair
    d_keys = edited(SMALL_D[i, n], d_edits, d_empty)
    c_keys = edited(SMALL_C[i, n - i], c_edits, c_empty)
    assert check_histograms(i, n, d_keys, c_keys).checks == oracle_verdicts(i, n, d_keys, c_keys)


@SETTINGS
@given(st.sampled_from(sorted(SMALL_D)), EDITS, st.booleans())
def test_checks_match_the_term_dict_oracle_on_equally_edited_histograms(pair, edits, empty):
    # the same edits to both histograms keep them equal, so polygon_form and
    # unit_sum read d_form's result: on failing input too, as the oracle says
    i, n = pair
    d_keys = edited(SMALL_D[i, n], edits, empty)
    c_keys = edited(SMALL_C[i, n - i], edits, empty)
    assert d_keys.items() == c_keys.items()
    assert check_histograms(i, n, d_keys, c_keys).checks == oracle_verdicts(i, n, d_keys, c_keys)


def test_a_term_of_multiplicity_0_is_not_read_as_no_term():
    # Counter's == equates the two histograms, but z's term (9, 0) is a
    # (q - 1)^-1 that d_form refuses, so polygon_form and unit_sum, on h,
    # must not read d_form's result
    h = Counter(sweep_C(6)[2, 3])
    z = Counter(h)
    z[9, 0] = 0
    assert z == h and z.items() != h.items()
    assert check_histograms(2, 5, z, h).checks == (
        ("d_form", False),
        ("polygon_form", True),
        ("unit_sum", True),
        ("unit_sum_process", True),
        ("form_consistency", True),
    )


def test_a_passing_sweep_packs_two_forms_per_pair(monkeypatch):
    # d_form, polygon_form and unit_sum are one packed test on equal
    # histograms, run once; unit_sum_process is the second
    calls = Counter()
    real = verification.packed_equals

    def counting(terms, c, t):
        calls["packed_equals"] += 1
        return real(terms, c, t)

    monkeypatch.setattr(verification, "packed_equals", counting)
    assert all(report.all_passed for report in verify_up_to(13))
    assert calls == {"packed_equals": 2 * 78}


def test_a_key_off_picks_parity_fails_every_form_it_is_in():
    # every key moved by +-1, at every pair with n <= 12, in both histograms:
    # unit sums that floor (key - g) // 2 pass 333 of these 666 moves
    moves = 0
    for (i, j), keys in sweep_C(12).items():
        for (key, k), mult in keys.items():
            for delta in (-1, 1):
                moved = Counter(keys)
                del moved[key, k]
                moved[key + delta, k] += mult
                checks = check_histograms(i, i + j, moved, moved).checks
                failed = [name for name, ok in checks if not ok]
                assert failed == list(CHECK_NAMES[:4]), (i, j, key, delta)
                with pytest.raises(ValueError, match="parity"):
                    key_signature(moved, TriangleSpec(i, j))
                moves += 1
    assert moves == 666


def test_triangle_signatures_check_no_chain_and_build_no_object(monkeypatch):
    counts = count_validations(monkeypatch)
    triangle_signatures(7, 7)
    assert counts == {}


def test_enumerate_records_check_each_chain_once_and_build_no_polygon(monkeypatch):
    counts = count_validations(monkeypatch)
    assert len(list(enumerate_polygons(TriangleSpec(8, 9)))) == 149
    assert counts == {"check_steps": 149}


def test_loaders_check_each_chain_once_and_build_no_polygon(monkeypatch):
    records = list(enumerate_polygons(TriangleSpec(8, 9)))
    texts = [cli.records_to_json(records), cli.records_to_csv(records)]
    counts = count_validations(monkeypatch)
    assert cli.records_from_json(texts[0]) == records
    assert counts == {"check_steps": 149}
    assert cli.records_from_csv(texts[1]) == records
    assert counts == {"check_steps": 2 * 149}


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
