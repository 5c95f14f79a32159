"""Brute-force lattice counts, kept as oracles for the closed forms in
latticechains.geometry.

Each count here scans lattice points with exact orientation predicates
(or sums gcds over an explicit vertex cycle), so it shares no formula with
polygon_stats, which derives i(P) and u(P) from Pick's theorem.
"""

from math import gcd

from latticechains.geometry import ChainPolygon, Point, TriangleSpec, triangle_interior_points


def cross(o: Point, a: Point, b: Point) -> int:
    """Cross product (a-o) x (b-o): > 0 when b lies strictly left of the
    ray o->a, < 0 strictly right, 0 collinear."""
    (ox, oy), (ax, ay), (bx, by) = o, a, b
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def segment_lattice_count(p: Point, r: Point) -> int:
    """Number of lattice points on the closed segment [p, r]: gcd(|dx|,|dy|)+1."""
    if p == r:
        raise ValueError("degenerate segment: endpoints coincide")
    (px, py), (rx, ry) = p, r
    return gcd(abs(rx - px), abs(ry - py)) + 1


def interior_count(poly: ChainPolygon) -> int:
    """i(P): lattice points strictly inside, by brute force over the bounding
    box with exact orientation predicates; 0 for the 2-gon."""
    if len(poly.steps) == 1:
        return 0
    edges = _cycle_edges(poly.vertices)
    count = 0
    for x in range(0, poly.spec.i + 1):
        for y in range(0, poly.spec.j + 1):
            if all(cross(a, b, (x, y)) > 0 for a, b in edges):
                count += 1
    return count


def contains_point_closed(poly: ChainPolygon, p: Point) -> bool:
    """Membership in the closed region of the polygon (boundary included).

    For the 2-gon the closed region is the segment itself.
    """
    if len(poly.steps) == 1:
        return _on_segment(p, *poly.vertices)
    return all(cross(a, b, p) >= 0 for a, b in _cycle_edges(poly.vertices))


def u_count(poly: ChainPolygon) -> int:
    """Lattice points strictly inside the triangle but outside the closed
    region of the polygon."""
    return sum(
        1
        for p in triangle_interior_points(poly.spec)
        if not contains_point_closed(poly, p)
    )


def triangle_doubled_area(spec: TriangleSpec) -> int:
    """2*area of the triangle itself (= i*j, computed by shoelace)."""
    return _cycle_area2(spec.corners)


def triangle_boundary_count(spec: TriangleSpec) -> int:
    """b of the triangle treated as a polygon (= n + gcd(i,j))."""
    return _cycle_boundary(spec.corners)


def triangle_interior_count(spec: TriangleSpec) -> int:
    """i of the triangle treated as a polygon."""
    return len(triangle_interior_points(spec))


def pick_check(poly) -> bool:
    """Pick's theorem check: area2 == 2*interior + boundary - 2, with the
    interior counted by ray casting.

    Accepts a ChainPolygon (closed by its hypotenuse edge) or any simple
    polygon as a vertex sequence. Degenerate polygons (area 0, in particular
    2-gons) are rejected: Pick's formula does not hold for them.
    """
    if isinstance(poly, ChainPolygon):
        poly = poly.vertices
    verts = tuple(poly)
    area2 = abs(_cycle_area2(verts))
    if area2 == 0:
        raise ValueError("Pick's theorem does not apply to degenerate polygons")
    return area2 == 2 * _simple_interior_count(verts) + _cycle_boundary(verts) - 2


# generic closed-cycle helpers, N vertices, no convexity assumed

def _cycle_edges(verts):
    return list(zip(verts, verts[1:] + verts[:1]))


def _cycle_area2(verts) -> int:
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in _cycle_edges(verts))


def _cycle_boundary(verts) -> int:
    return sum(gcd(abs(bx - ax), abs(by - ay)) for (ax, ay), (bx, by) in _cycle_edges(verts))


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    (px, py), (ax, ay), (bx, by) = p, a, b
    return (
        cross(a, b, p) == 0
        and min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def _point_in_simple_polygon(p: Point, verts) -> bool:
    """Strict interior test for a simple polygon: boundary points are not
    interior; otherwise exact even-odd counting of edge crossings of the
    horizontal ray to the right of p."""
    edges = _cycle_edges(verts)
    for a, b in edges:
        if _on_segment(p, a, b):
            return False
    px, py = p
    inside = False
    for (ax, ay), (bx, by) in edges:
        if (ay > py) != (by > py):
            # x-coordinate of the crossing exceeds px iff num/d > 0
            d = by - ay
            num = (ax - px) * d + (py - ay) * (bx - ax)
            if num != 0 and (num > 0) == (d > 0):
                inside = not inside
    return inside


def _simple_interior_count(verts) -> int:
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if _point_in_simple_polygon((x, y), verts):
                count += 1
    return count
