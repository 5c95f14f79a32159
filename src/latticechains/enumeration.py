"""Slope-constrained compositions and the convex chains they index.

Two index families are enumerated independently (so the bijection between
them is a checkable fact, not a construction):

* family D: steps (a_l, b_l) with sum(a) = i, sum(b) = n and
  1 > a_1/b_1 > ... > a_k/b_k > 0;
* family C: steps (x_l, y_l) with sum(x) = i, sum(y) = j and
  y_1/x_1 < ... < y_k/x_k, the steps of the triangle's chain polygons.

The shear (a, b) -> (a, b - a) maps D onto C; the tests state it.

Each family has one targeted depth-first walk, chains_D or chains_C, which
yields bare step tuples, unvalidated, in lexicographic order. The walk
visits every chain prefix once and closes it with the remainder as its last
step; the remainder's first coordinate exceeds that of any step that could
extend the prefix, so the closed chain comes after every extension. The
proof of one pair in verification reads these walks directly. enumerate_D
and enumerate_polygons stable-sort the same walk by step count k, so their
output is grouped by increasing k and lexicographic within a group, and
check each chain once: enumerate_D yields the bare steps after check_steps
on their shear, and enumerate_polygons, the one listing of a triangle's
family that enumerate, render and simulate read, a geometry.PolygonRecord
per chain.

Slopes are compared by integer cross products throughout. With a step's
first coordinate fixed, its second runs over a range whose two bounds are
the whole rule, so the walk tests nothing inside it:

* from below, the slope order after the previous step (pa, pb) or
  (px, py): b >= a * pb // pa + 1 for D and y >= x * py // px + 1 for C,
  seeded with (1, 1) for D (so a < b) and (1, 0) for C (so y >= 1);
* from above, the rest stays strictly flatter (D) or steeper (C) than this
  step, b * rem_a < a * rem_b or y * rem_x < x * rem_y: the later steps sum
  to the remainder, and a sum of vectors whose slopes all lie strictly on
  one side of a slope lies on that side too.

The upper bound is also the slope order of the closing step, so every
prefix the walk visits closes into one chain and no branch yields nothing.

A sweep reads each family from one region walk, region_D or region_C,
instead of one targeted walk per end point. It starts every chain at the
origin and extends it only by a strictly flatter (D) or strictly steeper
(C) step, so every node is a whole chain to its own end point, and it
counts {(key, k): mult} per end point, key = cross + gcdsum over the
chain's steps. A step (x, y) from the end point (X, Y) adds X * y - x * Y
to the cross sum and gcd(x, y) to the gcd sum, so each node costs O(1).
A targeted walk stays the cheaper route to one end point: the region walk
for a single pair would visit every chain to every smaller end point too.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from .geometry import PolygonRecord, Steps, TriangleSpec, chain_stats, chain_vertices, check_steps


def chains_D(i: int, n: int) -> Iterator[Steps]:
    """The steps of every element of the D family for (i, n), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return _walk_d((), 1, 1, i, n)


def _walk_d(prefix, pa, pb, rem_a, rem_b):
    for a in range(1, rem_a):
        for b in range(a * pb // pa + 1, (a * rem_b - 1) // rem_a + 1):
            yield from _walk_d((*prefix, (a, b)), a, b, rem_a - a, rem_b - b)
    yield (*prefix, (rem_a, rem_b))


def chains_C(i: int, j: int) -> Iterator[Steps]:
    """The steps of every element of the C family for (i, j), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or j < 1:
        raise ValueError(f"need i, j >= 1, got i={i}, j={j}")
    return _walk_c((), 1, 0, i, j)


def _walk_c(prefix, px, py, rem_x, rem_y):
    for x in range(1, rem_x):
        for y in range(x * py // px + 1, (x * rem_y - 1) // rem_x + 1):
            yield from _walk_c((*prefix, (x, y)), x, y, rem_x - x, rem_y - y)
    yield (*prefix, (rem_x, rem_y))


def region_D(max_b: int) -> dict:
    """{(A, B): {(key, k): mult}} for every 1 <= A < B <= max_b: the key
    histogram of the D family of (A, B), from one walk over the region."""
    rows = {a: {b: {} for b in range(a + 1, max_b + 1)} for a in range(1, max_b)}

    def walk(A, B, pa, pb, key, k):
        k += 1
        room = max_b - B
        for a in range(1, room):
            low = a * pb // pa + 1  # the least b with a/b < pa/pb
            if low > room:
                break
            row = rows[A + a]
            for b in range(low, room + 1):
                term = (key + A * b - a * B + gcd(a, b), k)
                counts = row[B + b]
                counts[term] = counts.get(term, 0) + 1
                if b // a < room - b:  # some (1, b') is flatter and fits
                    walk(A + a, B + b, a, b, term[0], k)

    walk(0, 0, 1, 1, 0, 0)
    return {(a, b): counts for a, row in rows.items() for b, counts in row.items()}


def region_C(max_x: int, max_y: int, max_sum: int) -> dict:
    """{(X, Y): {(key, k): mult}} for every X <= max_x, Y <= max_y with
    X + Y <= max_sum, both at least 1: the key histogram of the C family of
    (X, Y), from one walk over the region."""
    rows = {x: {y: {} for y in range(1, min(max_y, max_sum - x) + 1)} for x in range(1, max_x + 1)}

    def walk(X, Y, px, py, key, k):
        k += 1
        for x in range(1, max_x - X + 1):
            low = x * py // px + 1  # the least y with y/x > py/px
            high = min(max_y - Y, max_sum - X - Y - x)
            if low > high:
                break
            row = rows[X + x]
            for y in range(low, high + 1):
                term = (key + X * y - x * Y + gcd(x, y), k)
                counts = row[Y + y]
                counts[term] = counts.get(term, 0) + 1
                if y // x < high - y:  # necessary for a steeper (1, y') to fit
                    walk(X + x, Y + y, x, y, term[0], k)

    walk(0, 0, 1, 0, 0, 0)
    return {(x, y): counts for x, row in rows.items() for y, counts in row.items()}


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def enumerate_D(i: int, n: int) -> Iterator[Steps]:
    """The steps of every element of the D family for (i, n), each exactly
    once. A D chain has steps (a, b), each 1 <= a < b, with slopes a/b
    strictly decreasing: check_steps on the shear (a, b - a), which keeps
    each cross product, so a refusal names the sheared steps."""
    for steps in sorted(chains_D(i, n), key=len):
        check_steps(tuple([(a, b - a) for a, b in steps]))
        yield steps


def enumerate_polygons(spec: TriangleSpec) -> Iterator[PolygonRecord]:
    """The full polygon family of the triangle (the 2-gon comes first), one
    record per chain: each chain checked once by check_steps, its vertices
    and stats computed from its steps."""
    for steps in sorted(chains_C(spec.i, spec.j), key=len):
        check_steps(steps)
        yield PolygonRecord(chain_vertices(steps), chain_stats(steps, spec))
