"""Signature search against an unpruned brute-force reference and the two
search oracles in search_oracles."""

import re
import sys
from itertools import combinations_with_replacement

import pytest

from latticechains.explorer import (
    SearchCapExceeded,
    Signature,
    is_unit_multiset,
    match_signature,
    search_unit_multisets,
    triangle_signature,
    triangle_signatures,
    unit_sum_of,
)
from latticechains.polyalgebra import UnitPoly
from search_oracles import backtracking_search, mirror_peel_search


def brute_force_search(max_a, max_b, max_size):
    candidates = [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
    found = set()
    for size in range(1, max_size + 1):
        for combo in combinations_with_replacement(candidates, size):
            sig = Signature(combo)
            if (0, 1) in sig.pairs and is_unit_multiset(sig):
                found.add(sig)
    return found


def test_signature_is_canonical_multiset():
    a = Signature(((1, 0), (0, 1)))
    b = Signature(((0, 1), (1, 0)))
    assert a == b
    assert a.pairs == ((0, 1), (1, 0))
    dup = Signature(((1, 1), (1, 1), (0, 1)))
    assert len(dup) == 3
    assert dup.as_set() == Signature(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        Signature(((-1, 0),))


@pytest.mark.parametrize("pair", [(0.5, 1), (True, 0), ("1", "0")])
def test_signature_refuses_non_int_exponents(pair):
    with pytest.raises(TypeError, match=re.escape(repr(pair))):
        Signature((pair, (1, 0)))


def test_frozen_triangle_signatures():
    assert triangle_signature(1, 1) == Signature(((0, 0),))
    assert triangle_signature(2, 3) == Signature(((1, 0), (0, 1)))
    assert triangle_signature(3, 4) == Signature(((3, 0), (2, 1), (1, 1), (0, 1)))
    assert triangle_signature(3, 2) == triangle_signature(2, 3)


def test_is_unit_multiset_frozen_cases():
    assert is_unit_multiset(Signature(((0, 0),)))
    assert is_unit_multiset(Signature(((1, 0), (0, 1))))
    assert not is_unit_multiset(Signature(((1, 1), (0, 1))))
    assert not is_unit_multiset(Signature(()))
    assert unit_sum_of(Signature(((1, 1), (0, 1)))).render() == "-x^2 + 1"


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_every_triangle_signature_is_a_unit_multiset(m, n):
    assert is_unit_multiset(triangle_signature(m, n))


def test_search_smallest_bounds():
    assert search_unit_multisets(1, 1, 2) == [Signature(((1, 0), (0, 1)))]
    assert search_unit_multisets(0, 1, 1) == []
    assert search_unit_multisets(1, 0, 2) == []
    assert search_unit_multisets(3, 0, 4) == []


def test_search_finds_triangle_signature_of_3_4():
    results = search_unit_multisets(3, 1, 4)
    assert triangle_signature(3, 4) in results


@pytest.mark.parametrize("bounds", [(1, 1, 2), (2, 2, 3), (3, 1, 4), (2, 3, 4)])
def test_search_matches_brute_force(bounds):
    got = search_unit_multisets(*bounds)
    assert set(got) == brute_force_search(*bounds)
    assert len(got) == len(set(got))
    assert got == sorted(got, key=lambda s: (len(s), s.pairs))


ORACLE_BOUNDS = [(1, 0, 2), (1, 1, 2), (0, 1, 1), (2, 2, 3), (3, 1, 4), (2, 3, 4),
                 (3, 2, 5), (4, 3, 4), (4, 3, 6), (5, 4, 6), (5, 3, 7), (4, 4, 7),
                 (0, 3, 3), (6, 2, 8), (3, 6, 8)]


@pytest.mark.parametrize("bounds", ORACLE_BOUNDS, ids=lambda b: "-".join(map(str, b)))
def test_search_matches_both_oracles(bounds):
    got = search_unit_multisets(*bounds)
    assert got == backtracking_search(*bounds)
    assert got == mirror_peel_search(*bounds)


def test_search_reaches_5_4_8_under_the_default_cap():
    got = search_unit_multisets(5, 4, 8)
    assert len(got) == 154
    assert got == mirror_peel_search(5, 4, 8)
    # the single b = 0 rule and the bound on b keep it to 4,670 units of
    # coefficient work; without the rule it does 5,940
    assert search_unit_multisets(5, 4, 8, node_cap=5_000) == got


def test_huge_max_a_costs_nothing():
    assert search_unit_multisets(10**12, 2, 3) == search_unit_multisets(3, 2, 3)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # with b <= 1 the only unit multisets are the telescoping runs
    # (0,1), (1,1), ..., (k,1), (k+1,0), one per size; folding them all
    # costs about size**2 units of work, past the default cap
    size = sys.getrecursionlimit() + 100
    got = search_unit_multisets(size, 1, size, node_cap=2 * size**2)
    assert len(got) == size - 1
    assert got[-1] == Signature(tuple((t, 1) for t in range(size - 1)) + ((size - 1, 0),))


def test_search_results_all_verify():
    for sig in search_unit_multisets(3, 2, 4):
        assert is_unit_multiset(sig)
        assert (0, 1) in sig.pairs
        assert sum(1 for a, _ in sig if a == 0) == 1
        assert sum(1 for _, b in sig if b == 0) == 1


def test_search_cap_is_an_error_not_a_truncation():
    with pytest.raises(SearchCapExceeded):
        search_unit_multisets(3, 3, 5, node_cap=10)


@pytest.mark.parametrize("bounds, units, count", [((4, 3, 4), 36, 4), ((5, 4, 8), 4_670, 154)])
def test_search_cap_unit_at_its_exact_boundary(bounds, units, count):
    # the least cap that finishes is the search's whole coefficient work:
    # a bound on b that let it place one more pair would cost more units
    assert len(search_unit_multisets(*bounds, node_cap=units)) == count
    with pytest.raises(SearchCapExceeded):
        search_unit_multisets(*bounds, node_cap=units - 1)


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_unit_multisets(-1, 1, 2)
    with pytest.raises(ValueError):
        search_unit_multisets(1, 1, 0)


def test_match_signature_frozen_cases():
    matches = match_signature(Signature(((1, 0), (0, 1))), triangle_signatures(4, 4))
    assert (2, 3) in matches
    assert (3, 2) in matches
    small = triangle_signatures(2, 2)
    assert match_signature(Signature(((0, 0),)), small) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert match_signature(Signature(((5, 5),)), triangle_signatures(3, 3)) == []
    with pytest.raises(ValueError):
        triangle_signatures(0, 3)


def test_the_box_walk_gives_each_triangle_its_signature():
    # one region walk over a non-square box against a targeted walk per
    # triangle, in row-major order
    assert list(triangle_signatures(7, 5).items()) == [
        ((m, n), triangle_signature(m, n)) for m in range(1, 8) for n in range(1, 6)]


def test_match_signature_round_trip():
    for m, n in [(1, 1), (2, 3), (3, 4), (4, 4), (5, 3)]:
        sig = triangle_signature(m, n)
        matches = match_signature(sig, triangle_signatures(6, 6))
        assert (m, n) in matches
        for mm, nn in matches:
            assert triangle_signature(mm, nn) == sig
