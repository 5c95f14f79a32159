import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticechains.enumeration import enumerate_polygons
from latticechains.geometry import (
    TriangleSpec,
    check_chain,
    convex_hull_chain,
    polygon_stats,
    triangle_interior_points,
)

from scan_oracles import (
    contains_point_closed,
    interior_count,
    pick_check,
    segment_lattice_count,
    triangle_boundary_count,
    triangle_doubled_area,
    triangle_interior_count,
    u_count,
)


def stats(spec, *coords):
    return polygon_stats(coords, spec)


# ---------------------------------------------------------------------------
# independent oracles, deliberately written with different algorithms than
# the implementations they check


def oracle_segment_points(a, b):
    """Count lattice points on [a, b] by scanning the bounding box."""
    (ax, ay), (bx, by) = a, b
    count = 0
    for x in range(min(ax, bx), max(ax, bx) + 1):
        for y in range(min(ay, by), max(ay, by) + 1):
            if (bx - ax) * (y - ay) == (by - ay) * (x - ax):
                count += 1
    return count


def oracle_area2_trapezoid(verts):
    """Doubled area via the trapezoid form sum (x1-x2)(y1+y2)."""
    edges = list(zip(verts, verts[1:] + verts[:1]))
    return sum((ax - bx) * (ay + by) for (ax, ay), (bx, by) in edges)


def _on_seg(p, a, b):
    (px, py), (ax, ay), (bx, by) = p, a, b
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def oracle_boundary_scan(verts):
    edges = list(zip(verts, verts[1:] + verts[:1]))
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if any(_on_seg((x, y), a, b) for a, b in edges):
                count += 1
    return count


def oracle_interior_scan(verts):
    """Strict-interior count by even-odd ray casting, written here from
    scratch with half-open vertical ranges."""
    edges = list(zip(verts, verts[1:] + verts[:1]))
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if any(_on_seg((x, y), a, b) for a, b in edges):
                continue
            crossings = 0
            for (ax, ay), (bx, by) in edges:
                if (ay <= y) == (by <= y):
                    continue
                # exact comparison of the ray hit abscissa against x
                lhs = (bx - ax) * (y - ay) - (x - ax) * (by - ay)
                if lhs > 0 if by > ay else lhs < 0:
                    crossings += 1
            if crossings % 2 == 1:
                count += 1
    return count


def _in_closed_triangle(p, a, b, c):
    (px, py), (ax, ay), (bx, by), (cx, cy) = p, a, b, c
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    if d1 == d2 == d3 == 0:
        # degenerate triangle: membership means lying on its segment span
        xs = (ax, bx, cx)
        ys = (ay, by, cy)
        return min(xs) <= px <= max(xs) and min(ys) <= py <= max(ys)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


def oracle_hull_vertices(chosen, spec):
    """Extreme points of {(0,0),(i,j)} | chosen, by brute force: a point is
    extreme iff it is outside every closed triangle on three other points
    (and off every segment between two others)."""
    pts = sorted(set(chosen) | {(0, 0), (spec.i, spec.j)})
    extremes = []
    for p in pts:
        others = [q for q in pts if q != p]
        covered = any(_in_closed_triangle(p, a, b, c) for a, b, c in combinations(others, 3))
        covered = covered or any(_on_seg(p, a, b) for a, b in combinations(others, 2))
        if not covered:
            extremes.append(p)
    return extremes


def random_hull(rng, max_leg=8):
    spec = TriangleSpec(rng.randint(1, max_leg), rng.randint(1, max_leg))
    inner = triangle_interior_points(spec)
    chosen = [p for p in inner if rng.random() < 0.5]
    return convex_hull_chain(chosen, spec), chosen, spec  # (vertices, chosen, spec)


# ---------------------------------------------------------------------------
# spec'd values


def test_segment_lattice_count_examples():
    assert segment_lattice_count((0, 0), (1, 2)) == 2
    assert segment_lattice_count((0, 0), (2, 4)) == 3
    assert segment_lattice_count((3, 5), (6, 9)) == 2


def test_segment_lattice_count_rejects_degenerate():
    with pytest.raises(ValueError):
        segment_lattice_count((1, 2), (1, 2))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_segment_lattice_count_matches_scan(ax, ay, bx, by):
    a, b = (ax, ay), (bx, by)
    if a == b:
        return
    assert segment_lattice_count(a, b) == oracle_segment_points(a, b)


def test_doubled_area_examples():
    assert stats(TriangleSpec(2, 3), (0, 0), (2, 3)).area2 == 0
    assert stats(TriangleSpec(2, 3), (0, 0), (1, 1), (2, 3)).area2 == 1
    assert stats(TriangleSpec(3, 4), (0, 0), (2, 1), (3, 4)).area2 == 5


def test_boundary_count_examples():
    assert stats(TriangleSpec(2, 3), (0, 0), (2, 3)).boundary == 2
    assert stats(TriangleSpec(3, 4), (0, 0), (2, 2), (3, 4)).boundary == 4
    assert stats(TriangleSpec(3, 4), (0, 0), (2, 1), (3, 4)).boundary == 3


def test_interior_count_examples():
    for count in (interior_count, lambda v, spec: polygon_stats(v, spec).interior):
        assert count(((0, 0), (5, 7)), TriangleSpec(5, 7)) == 0
        assert count(((0, 0), (2, 1), (3, 4)), TriangleSpec(3, 4)) == 2
        assert count(((0, 0), (1, 1), (3, 4)), TriangleSpec(3, 4)) == 0


def test_triangle_interior_points_examples():
    assert triangle_interior_points(TriangleSpec(1, 1)) == []
    assert triangle_interior_points(TriangleSpec(2, 3)) == [(1, 1)]
    assert triangle_interior_points(TriangleSpec(3, 4)) == [(1, 1), (2, 1), (2, 2)]


@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (3, 4), (5, 5), (7, 3), (8, 8)])
def test_triangle_interior_points_match_scan(i, j):
    spec = TriangleSpec(i, j)
    expected = [
        (x, y)
        for x in range(0, i + 1)
        for y in range(0, j + 1)
        if y > 0 and x < i and j * x - i * y > 0
    ]
    assert triangle_interior_points(spec) == expected


def test_u_count_examples():
    for count in (u_count, lambda v, spec: polygon_stats(v, spec).u):
        assert count(((0, 0), (2, 3)), TriangleSpec(2, 3)) == 1
        assert count(((0, 0), (2, 1), (3, 4)), TriangleSpec(3, 4)) == 0
        assert count(((0, 0), (1, 1), (3, 4)), TriangleSpec(3, 4)) == 2


def test_convex_hull_chain_examples():
    assert convex_hull_chain([], TriangleSpec(2, 3)) == ((0, 0), (2, 3))
    assert convex_hull_chain([(1, 1)], TriangleSpec(2, 3)) == ((0, 0), (1, 1), (2, 3))
    assert convex_hull_chain([(1, 1), (2, 2), (2, 1)], TriangleSpec(3, 4)) == ((0, 0), (2, 1), (3, 4))


def test_convex_hull_chain_rejects_non_interior_points():
    spec = TriangleSpec(3, 4)
    for bad in [(0, 0), (3, 4), (1, 2), (2, 3), (3, 1), (1, 0), (-1, 1)]:
        assert not spec.contains_interior(bad)
        with pytest.raises(ValueError):
            convex_hull_chain([bad], spec)


def test_pick_check_examples():
    assert pick_check(((0, 0), (1, 1), (2, 3)))
    assert pick_check(((0, 0), (2, 1), (3, 4)))
    assert pick_check([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_pick_check_rejects_degenerate():
    with pytest.raises(ValueError):
        pick_check(((0, 0), (4, 6)))
    with pytest.raises(ValueError):
        pick_check([(0, 0), (2, 2), (4, 4)])


# ---------------------------------------------------------------------------
# invariants


def test_chain_polygon_validation():
    spec = TriangleSpec(3, 4)
    with pytest.raises(ValueError, match=r"must end at \(3,4\), got \(1, 1\)"):
        check_chain(((0, 0), (1, 1)), spec)  # wrong endpoint
    with pytest.raises(ValueError):
        check_chain(((0, 0), (1, 2), (3, 4)), spec)  # slopes decrease
    with pytest.raises(ValueError):
        check_chain(((0, 0), (1, 1), (2, 2), (3, 4)), spec)  # collinear middle edge pair
    with pytest.raises(ValueError):
        check_chain(((0, 0), (2, 0), (3, 4)), spec)  # flat edge
    with pytest.raises(ValueError):
        check_chain(((0, 0),), spec)
    assert check_chain(((0, 0), (2, 1), (3, 4)), spec) == ((2, 1), (1, 3))


@pytest.mark.parametrize("vertex", [(1.0, 1), [1, 1], (1, 1, 0)],
                         ids=["float-coordinate", "list-vertex", "3-tuple-vertex"])
def test_chain_polygon_rejects_non_int_pair_vertices(vertex):
    with pytest.raises(TypeError):
        check_chain(((0, 0), vertex, (3, 4)), TriangleSpec(3, 4))


@pytest.mark.parametrize("point", [(True, True), (2, True)], ids=["bool-pair", "bool-y"])
def test_bool_coordinates_are_refused(point):
    # as ints they would form valid chains; a record would write them as true
    spec = TriangleSpec(3, 4)
    assert spec.contains_interior(point)
    with pytest.raises(TypeError):
        check_chain(((0, 0), point, (3, 4)), spec)
    with pytest.raises(TypeError):
        convex_hull_chain([point], spec)
    with pytest.raises(TypeError):
        check_chain(((False, False), (True, True)), TriangleSpec(1, 1))


@pytest.mark.parametrize("legs", [(True, 3), (2.0, 3)], ids=["bool-leg", "float-leg"])
def test_non_int_triangle_legs_are_refused(legs):
    with pytest.raises(TypeError, match=r"i=.*, j=3"):
        TriangleSpec(*legs)


@pytest.mark.parametrize("point", [(2.0, 2), [2, 2]], ids=["float-coordinate", "list-point"])
def test_convex_hull_chain_rejects_non_int_points_that_are_not_extreme(point):
    spec = TriangleSpec(3, 4)
    assert spec.contains_interior(point)
    assert convex_hull_chain([(2, 1), (2, 2)], spec) == ((0, 0), (2, 1), (3, 4))
    with pytest.raises(TypeError):
        convex_hull_chain([(2, 1), point], spec)


def stats_mismatches(vertices, s, spec):
    """Fields of the stats s of the chain polygon with these vertices that
    disagree with the scan oracles."""
    verts = list(vertices)
    if len(verts) == 2:
        expected = {"interior": 0, "boundary": oracle_segment_points(*verts), "area2": 0}
    else:
        expected = {
            "interior": oracle_interior_scan(verts),
            "boundary": oracle_boundary_scan(verts),
            "area2": oracle_area2_trapezoid(verts),
        }
    expected["u"] = u_count(vertices, spec)
    return [name for name, value in expected.items() if getattr(s, name) != value]


def test_counts_match_scan_oracles_on_random_hulls():
    rng = random.Random(20260819)
    seen_nondegenerate = 0
    for _ in range(200):
        poly, _, spec = random_hull(rng)
        assert stats_mismatches(poly, polygon_stats(poly, spec), spec) == [], poly
        seen_nondegenerate += len(poly) != 2
    assert seen_nondegenerate > 100


def test_polygon_stats_match_scan_oracles_on_every_family_to_10():
    # enumerate_polygons' records, and polygon_stats of their vertices
    checked = 0
    for i in range(1, 11):
        for j in range(1, 11):
            spec = TriangleSpec(i, j)
            for vertices, s in enumerate_polygons(spec):
                assert s == polygon_stats(vertices, spec)
                assert stats_mismatches(vertices, s, spec) == [], vertices
                checked += 1
    assert checked == 3958


def test_pick_theorem_on_random_hulls():
    rng = random.Random(987654321)
    checked = 0
    for _ in range(200):
        poly, _, spec = random_hull(rng)
        if len(poly) == 2:
            continue
        s = polygon_stats(poly, spec)
        assert s.area2 == 2 * interior_count(poly, spec) + s.boundary - 2
        assert pick_check(poly)
        checked += 1
    assert checked > 100


def test_u_accounting_on_random_hulls():
    rng = random.Random(13572468)
    for _ in range(200):
        poly, _, spec = random_hull(rng)
        scanned = u_count(poly, spec)
        assert polygon_stats(poly, spec).u == scanned
        boundary = (oracle_segment_points(*poly) if len(poly) == 2
                    else oracle_boundary_scan(list(poly)))
        assert scanned == (
            triangle_interior_count(spec)
            + triangle_boundary_count(spec)
            - (spec.n - 1)
            - (interior_count(poly, spec) + boundary)
        )


@pytest.mark.parametrize("i", range(1, 13))
@pytest.mark.parametrize("j", range(1, 13))
def test_triangle_counts(i, j):
    spec = TriangleSpec(i, j)
    assert triangle_boundary_count(spec) == spec.n + gcd(i, j)
    assert triangle_doubled_area(spec) == i * j
    assert spec.interior_count == triangle_interior_count(spec)


def test_hull_matches_extreme_point_oracle():
    rng = random.Random(424242)
    for _ in range(200):
        poly, chosen, spec = random_hull(rng)
        assert list(poly) == oracle_hull_vertices(chosen, spec)


def test_hull_absorbs_points_already_covered():
    rng = random.Random(777)
    for _ in range(200):
        poly, chosen, spec = random_hull(rng)
        inner = triangle_interior_points(spec)
        covered = [p for p in inner if contains_point_closed(poly, p)]
        for p in covered:
            assert convex_hull_chain(set(chosen) | {p}, spec) == poly


def test_hull_region_contains_chosen_points():
    rng = random.Random(1001)
    for _ in range(200):
        poly, chosen, _ = random_hull(rng)
        assert all(contains_point_closed(poly, p) for p in chosen)


def test_no_floats_in_stats():
    s = stats(TriangleSpec(3, 4), (0, 0), (2, 1), (3, 4))
    for value in (s.area2, s.boundary, s.interior, s.u):
        assert isinstance(value, int)
