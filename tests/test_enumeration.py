"""Enumeration oracles: brute force over all compositions, slope-filtered
with Fractions, then compared against the DFS enumerators."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from latticechains import enumeration
from latticechains.enumeration import (
    chains_C,
    chains_D,
    enumerate_D,
    enumerate_polygons,
    region_C,
)
from latticechains.geometry import (
    TriangleSpec,
    chain_steps,
    check_chain,
    check_steps,
    convex_hull_chain,
    pair_cross_sum,
    pair_gcd_sum,
    triangle_interior_points,
)


def positive_compositions(total, k):
    """All tuples of k positive integers summing to total, lexicographic."""
    for cuts in combinations(range(1, total), k - 1):
        edges = (0, *cuts, total)
        yield tuple(edges[t + 1] - edges[t] for t in range(k))


def oracle_D(i, n):
    found = []
    for k in range(1, min(i, n - i) + 1):
        for aa in positive_compositions(i, k):
            for bb in positive_compositions(n, k):
                steps = tuple(zip(aa, bb))
                if any(a >= b for a, b in steps):
                    continue
                slopes = [Fraction(a, b) for a, b in steps]
                if all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:])):
                    found.append(steps)
    return found


def oracle_C(i, j):
    found = []
    for k in range(1, min(i, j) + 1):
        for xx in positive_compositions(i, k):
            for yy in positive_compositions(j, k):
                steps = tuple(zip(xx, yy))
                slopes = [Fraction(y, x) for x, y in steps]
                if all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:])):
                    found.append(steps)
    return found


def shear(steps):
    """D steps to C steps: (a, b) -> (a, b - a)."""
    return tuple((a, b - a) for a, b in steps)


def unshear(steps):
    """C steps to D steps: (x, y) -> (x, x + y), the inverse of shear."""
    return tuple((x, x + y) for x, y in steps)


def c_steps(i, j):
    """The C family of (i, j), as enumerate_polygons lists it."""
    return [chain_steps(p.vertices) for p in enumerate_polygons(TriangleSpec(i, j))]


def test_frozen_D_examples():
    assert list(enumerate_D(1, 2)) == [((1, 2),)]
    assert list(enumerate_D(2, 4)) == [((2, 4),)]
    assert list(enumerate_D(2, 5)) == [((2, 5),), ((1, 2), (1, 3))]
    assert list(enumerate_D(3, 7)) == [
        ((3, 7),),
        ((1, 2), (2, 5)),
        ((2, 3), (1, 4)),
        ((2, 4), (1, 3)),
    ]


def test_frozen_C_examples():
    assert c_steps(1, 1) == [((1, 1),)]
    assert c_steps(2, 3) == [((2, 3),), ((1, 1), (1, 2))]
    assert c_steps(3, 4) == [
        ((3, 4),),
        ((1, 1), (2, 3)),
        ((2, 1), (1, 3)),
        ((2, 2), (1, 2)),
    ]


@pytest.mark.parametrize("n", range(2, 10))
def test_D_matches_oracle(n):
    for i in range(1, n):
        got = list(enumerate_D(i, n))
        expected = oracle_D(i, n)
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)


@pytest.mark.parametrize("j", range(1, 8))
def test_C_matches_oracle(j):
    for i in range(1, 8):
        got = c_steps(i, j)
        expected = oracle_C(i, j)
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)


def k_then_lex(steps):
    return (len(steps), steps)


def with_walks(sizes):
    """Each size for the enumerator, then again for the bare walk ("walk-")."""
    return ([pytest.param(size, False, id=str(size)) for size in sizes]
            + [pytest.param(size, True, id=f"walk-{size}") for size in sizes])


@pytest.mark.parametrize("n, walk", with_walks(range(2, 12)))
def test_D_sequence_is_the_oracle_in_k_then_lex_order(n, walk):
    # the sequence itself, not only the set: pruning may drop empty branches only
    for i in range(1, n):
        if walk:  # unsorted and unvalidated: plain lexicographic order, each a chain
            seq = list(chains_D(i, n))
            assert seq == sorted(oracle_D(i, n))
            for steps in seq:
                check_steps(tuple((a, b - a) for a, b in steps))
        else:
            assert list(enumerate_D(i, n)) == sorted(oracle_D(i, n), key=k_then_lex)


@pytest.mark.parametrize("j, walk", with_walks(range(1, 9)))
def test_C_sequence_is_the_oracle_in_k_then_lex_order(j, walk):
    for i in range(1, 9):
        if walk:
            seq = list(chains_C(i, j))
            assert seq == sorted(oracle_C(i, j))
            for steps in seq:
                check_steps(steps)
        else:
            assert c_steps(i, j) == sorted(oracle_C(i, j), key=k_then_lex)


def test_output_grouped_by_k_then_lex():
    for i, j in [(4, 5), (5, 7), (6, 6)]:
        seq = c_steps(i, j)
        ks = [len(s) for s in seq]
        assert ks == sorted(ks)
        for k in set(ks):
            group = [s for s in seq if len(s) == k]
            assert group == sorted(group)
    for i, n in [(3, 8), (4, 9)]:
        seq = list(enumerate_D(i, n))
        ks = [len(s) for s in seq]
        assert ks == sorted(ks)
        for k in set(ks):
            group = [s for s in seq if len(s) == k]
            assert group == sorted(group)


def test_frozen_bijection_examples():
    assert shear(((2, 5),)) == ((2, 3),)
    assert shear(((1, 2), (1, 3))) == ((1, 1), (1, 2))
    assert unshear(((1, 1), (2, 3))) == ((1, 2), (2, 5))


@pytest.mark.parametrize("n", range(2, 11))
def test_bijection_is_order_preserving_and_inverse(n):
    for i in range(1, n):
        d_list = list(enumerate_D(i, n))
        c_list = c_steps(i, n - i)
        assert [shear(d) for d in d_list] == c_list
        assert [unshear(c) for c in c_list] == d_list
        for d in d_list:
            assert unshear(shear(d)) == d


@pytest.mark.parametrize("n", range(2, 11))
def test_bijection_preserves_cross_and_gcd_sums(n):
    for i in range(1, n):
        for d in enumerate_D(i, n):
            c = shear(d)
            assert pair_cross_sum(c) == pair_cross_sum(d)
            assert pair_gcd_sum(c) == pair_gcd_sum(d)


def test_pair_sums_by_hand():
    # ((1,2),(1,3)): cross = 1*3 - 1*2 = 1, gcds = 1 + 1
    assert pair_cross_sum(((1, 2), (1, 3))) == 1
    assert pair_gcd_sum(((1, 2), (1, 3))) == 2
    assert pair_cross_sum(((2, 5),)) == 0
    assert pair_gcd_sum(((2, 4),)) == 2


def partial_sums(steps):
    """The chain's vertices from (0, 0): the running sums of its steps."""
    verts = [(0, 0)]
    for dx, dy in steps:
        verts.append((verts[-1][0] + dx, verts[-1][1] + dy))
    return tuple(verts)


def test_composition_polygon_round_trip():
    # a polygon's steps are its vertex differences, and its vertices the
    # partial sums of its steps; the 2-gon is the single step (i, j)
    spec = TriangleSpec(3, 4)
    vertices = ((0, 0), (1, 1), (3, 4))
    steps = check_chain(vertices, spec)
    assert steps == ((1, 1), (2, 3))
    assert partial_sums(steps) == vertices
    two_gon = next(enumerate_polygons(spec))
    assert two_gon.stats.k == 1 and chain_steps(two_gon.vertices) == ((3, 4),)


def test_enumerate_polygons_counts():
    assert len(list(enumerate_polygons(TriangleSpec(1, 1)))) == 1
    assert len(list(enumerate_polygons(TriangleSpec(2, 3)))) == 2
    assert len(list(enumerate_polygons(TriangleSpec(3, 4)))) == 4


def test_family_sizes_are_symmetric_monotone_and_closed_form_for_short_legs():
    # N(m, n), the C family size of (m, n), from one walk over the 14 x 14 box
    hists = region_C(14, 14, 28)
    size = {mn: sum(counts.values()) for mn, counts in hists.items()}
    assert size[8, 9] == 149 and size[14, 14] == 5_989
    for m in range(1, 15):
        for n in range(1, 15):
            assert size[m, n] == size[n, m]  # reflect the chain and reverse it
            if n < 14:
                assert size[m, n] <= size[m, n + 1]  # add 1 to the last step's y
        assert size[1, m] == 1
        assert size[2, m] == 1 + (m - 1) // 2


@pytest.mark.parametrize("i,j", [(2, 2), (3, 4), (4, 3), (5, 5), (4, 6), (6, 6)])
def test_polygon_family_equals_hull_closure(i, j):
    # every hull of an interior subset appears, and nothing else does
    spec = TriangleSpec(i, j)
    enumerated = {p.vertices for p in enumerate_polygons(spec)}
    interior = triangle_interior_points(spec)
    hulls = set()
    for size in range(len(interior) + 1):
        for subset in combinations(interior, size):
            hulls.add(convex_hull_chain(subset, spec))
    assert enumerated == hulls


@pytest.mark.parametrize("i,j", [(3, 4), (5, 5), (6, 6), (7, 5)])
def test_each_polygon_is_hull_of_its_own_interior_vertices(i, j):
    spec = TriangleSpec(i, j)
    for p in enumerate_polygons(spec):
        assert convex_hull_chain(p.vertices[1:-1], spec) == p.vertices


@pytest.mark.parametrize("n", range(2, 10))
def test_doubled_exponent_matches_polygon_counts(n):
    # 2(1-k) + cross + gcdsum  ==  2(i(P) + b(P) - (k-1)) - 2 - gcd(i,j)
    for i in range(1, n):
        spec = TriangleSpec(i, n - i)
        g = gcd(i, n - i)
        for d, p in zip(enumerate_D(i, n), enumerate_polygons(spec), strict=True):
            assert shear(d) == chain_steps(p.vertices)
            via_steps = 2 * (1 - len(d)) + pair_cross_sum(d) + pair_gcd_sum(d)
            stats = p.stats
            via_counts = 2 * (stats.interior + stats.boundary - (len(d) - 1)) - 2 - g
            assert via_steps == via_counts
            assert stats.exponent_doubled == via_steps + 2 + g


def test_random_hull_compositions_are_valid(seed=20260819):
    rng = random.Random(seed)
    for _ in range(200):
        i = rng.randint(1, 9)
        j = rng.randint(1, 9)
        spec = TriangleSpec(i, j)
        interior = triangle_interior_points(spec)
        chosen = [p for p in interior if rng.random() < 0.5]
        poly = convex_hull_chain(chosen, spec)
        steps = tuple((bx - ax, by - ay) for (ax, ay), (bx, by) in zip(poly, poly[1:]))
        check_steps(steps)
        assert sum(x for x, _ in steps) == i and sum(y for _, y in steps) == j
        assert partial_sums(steps) == poly


def test_composition_validation_rejects_bad_steps():
    with pytest.raises(ValueError):
        check_steps(((1, 0),))
    with pytest.raises(ValueError):
        check_steps(((2, 2), (1, 1)))  # equal slopes
    # non-int coordinates, bool included, are refused as check_chain refuses them
    with pytest.raises(TypeError):
        check_steps(((1.5, 1),))
    with pytest.raises(TypeError):
        check_steps(((True, True), (1, 2)))


def test_enumerate_argument_validation():
    with pytest.raises(ValueError):
        list(enumerate_D(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_D(3, 3))
    with pytest.raises(ValueError):
        list(chains_C(0, 2))


# ---------------------------------------------------------------------------
# one chain rule: check_steps and each constructor accept exactly their rule
# written out longhand


def longhand_rule_C(steps):
    return (len(steps) >= 1
            and all(x >= 1 and y >= 1 for x, y in steps)
            and all(x1 * y2 - x2 * y1 > 0 for (x1, y1), (x2, y2) in zip(steps, steps[1:])))


def longhand_rule_D(steps):
    return (len(steps) >= 1
            and all(a >= 1 and b > a for a, b in steps)
            and all(a1 * b2 > a2 * b1 for (a1, b1), (a2, b2) in zip(steps, steps[1:])))


def longhand_rule_chain_polygon(verts, i, j):
    """Endpoints, edges moving right and up, strictly increasing slopes, and
    every intermediate vertex strictly inside the triangle."""
    edges = list(zip(verts, verts[1:]))
    return (len(verts) >= 2 and verts[0] == (0, 0) and verts[-1] == (i, j)
            and all(bx - ax >= 1 and by - ay >= 1 for (ax, ay), (bx, by) in edges)
            and all((bx - ax) * (cy - by) - (cx - bx) * (by - ay) > 0
                    for (ax, ay), (bx, by), (cx, cy) in zip(verts, verts[1:], verts[2:]))
            and all(y > 0 and x < i and j * x - i * y > 0 for x, y in verts[1:-1]))


def accepts(make, *args):
    try:
        make(*args)
    except ValueError:
        return False
    return True


def test_compositions_accept_exactly_their_longhand_rules(monkeypatch):
    # enumerate_D's check, on a walk that yields the one chain tup
    walk = []
    monkeypatch.setattr(enumeration, "chains_D", lambda i, n: iter(walk))
    steps = list(product(range(-1, 5), repeat=2))
    for k in range(4):
        for tup in product(steps, repeat=k):
            assert accepts(check_steps, tup) == longhand_rule_C(tup), tup
            walk[:] = [tup]
            assert accepts(lambda: list(enumerate_D(1, 2))) == longhand_rule_D(tup), tup


def test_chain_polygon_accepts_exactly_its_longhand_rule():
    for i, j in product(range(1, 6), repeat=2):
        spec = TriangleSpec(i, j)
        points = list(product(range(-1, i + 2), range(-1, j + 2)))
        for middle_count in range(3):
            for middle in product(points, repeat=middle_count):
                verts = ((0, 0), *middle, (i, j))
                assert (accepts(check_chain, verts, spec)
                        == longhand_rule_chain_polygon(verts, i, j)), verts
