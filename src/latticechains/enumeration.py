"""Slope-constrained compositions and the convex chains they index.

Two index families are enumerated, neither built from the other (so the
bijection between them is a checkable fact, not a construction):

* family D: steps (a_l, b_l) with sum(a) = i, sum(b) = n and
  1 > a_1/b_1 > ... > a_k/b_k > 0;
* family C: steps (x_l, y_l) with sum(x) = i, sum(y) = j and
  y_1/x_1 < ... < y_k/x_k, the steps of the triangle's chain polygons.

The shear (a, b) -> (a, b - a) maps D onto C; the tests state it. Both
follow one rule: the steps' slopes, second coordinate over first, strictly
increase from a seed slope, 1 for D (so a < b) and 0 for C (so y >= 1).
So each walk below serves both, started from the seed step (1, 1) for D
and (1, 0) for C.

The targeted depth-first walk, _walk, read by chains_D and chains_C,
yields bare step tuples, unvalidated, in lexicographic order. It visits
every chain prefix once and closes it with the remainder as its last
step; the remainder's first coordinate exceeds that of any step that could
extend the prefix, so the closed chain comes after every extension. The
proof of one pair in verification reads these walks directly. enumerate_D
and enumerate_polygons stable-sort the same walk by step count k, so their
output is grouped by increasing k and lexicographic within a group, and
check each chain once: enumerate_D yields the bare steps after check_steps
on their shear, and enumerate_polygons, the one listing of a triangle's
family that enumerate, render and simulate read, a geometry.PolygonRecord
per chain, from one check_steps pass that checks the chain and gives its
vertices and chain sums.

Slopes are compared by integer cross products throughout. With a step's
first coordinate fixed, its second runs over a range whose two bounds are
the whole rule, so the walk tests nothing inside it:

* from below, the slope order after the previous step (px, py), the
  seed step before the first: y >= x * py // px + 1;
* from above, the remainder stays strictly steeper than this step,
  y * rem_x < x * rem_y: the later steps sum to the remainder, and a sum
  of vectors whose slopes all lie strictly on one side of a slope lies on
  that side too.

The upper bound is also the slope order of the closing step, so every
prefix the walk visits closes into one chain and no branch yields nothing.

A sweep reads each family from one region walk, _region by way of
region_D or region_C, instead of one targeted walk per end point. It
starts every chain at the origin and extends it only by a strictly
steeper step, so every node is a whole chain to its own end point, and it
counts {(key, k): mult} per end point, key = cross + gcdsum over the
chain's steps. A step (x, y) from the end point (X, Y) adds X * y - x * Y
to the cross sum and gcd(x, y) to the gcd sum, so each node costs O(1).
A targeted walk stays the cheaper route to one end point: the region walk
for a single pair would visit every chain to every smaller end point too.

A region is a staircase, one cap per column that never increases: column
X holds the end points above the seed slope, X * sy // sx + 1 <= Y <=
caps[X - 1]. region_D passes max_b - 1 columns capped at max_b, which is
every 1 <= A < B <= max_b. region_C passes its caps with the seed 0, so
column X holds 1 <= Y <= caps[X - 1]: a sweep to N passes N - X, the end
points with X + Y <= N; explorer passes the cells whose family can have a
size it looks for. A step's y range then ends at one list read, and every
prefix of a chain that ends inside the caps stays inside them.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from .geometry import PolygonRecord, Steps, TriangleSpec, chain_stats, check_steps


def chains_D(i: int, n: int) -> Iterator[Steps]:
    """The steps of every element of the D family for (i, n), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return _walk((), 1, 1, i, n)


def chains_C(i: int, j: int) -> Iterator[Steps]:
    """The steps of every element of the C family for (i, j), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or j < 1:
        raise ValueError(f"need i, j >= 1, got i={i}, j={j}")
    return _walk((), 1, 0, i, j)


def _walk(prefix, px, py, rem_x, rem_y):
    for x in range(1, rem_x):
        for y in range(x * py // px + 1, (x * rem_y - 1) // rem_x + 1):
            yield from _walk((*prefix, (x, y)), x, y, rem_x - x, rem_y - y)
    yield (*prefix, (rem_x, rem_y))


def region_D(max_b: int) -> dict:
    """{(A, B): {(key, k): mult}} for every 1 <= A < B <= max_b: the key
    histogram of the D family of (A, B), from one walk over the region."""
    return _region([max_b] * (max_b - 1), 1, 1)


def region_C(caps) -> dict:
    """{(X, Y): {(key, k): mult}} for every cell 1 <= Y <= caps[X - 1] of
    the columns X = 1 .. len(caps): the key histogram of the C family of
    (X, Y), from one walk over the region. The caps must never increase."""
    return _region(caps, 1, 0)


def _region(caps, sx, sy) -> dict:
    """{(X, Y): {(key, k): mult}} for every cell X * sy // sx < Y <= caps[X - 1]
    of the columns X = 1 .. len(caps): the key histogram of the chains to
    (X, Y) whose slopes strictly increase from the seed slope sy/sx.

    The caps must never increase. A chain to (X, Y) passes only through
    points (X', Y') with X' < X and Y' < Y <= caps[X - 1] <= caps[X' - 1],
    so every cell gets its whole family. Along one step's x the least y
    only grows and the column's room only shrinks, so the first x whose
    range is empty ends the loop.

    So a call records a chain exactly when its x = 1 range is non-empty,
    and the walk makes only such calls: after the step (x, y) to
    (X + x, Y + y), that range is y // x + 1 <= y' <= top[X + x + 1] - Y - y,
    non-empty exactly when y // x < top[X + x + 1] - Y - y. The cap past the
    last column is 0, so no call follows a step into the last column."""
    if any(a < b for a, b in zip(caps, caps[1:])):
        raise ValueError(f"column caps must never increase, got {list(caps)}")
    top = (0, *caps, 0)  # top[X] caps column X
    rows = {x: {y: {} for y in range(x * sy // sx + 1, top[x] + 1)} for x in range(1, len(caps) + 1)}

    def walk(X, Y, px, py, key, k):
        k += 1
        for x in range(1, len(caps) + 1 - X):
            low = x * py // px + 1  # the least y with y/x > py/px
            high = top[X + x] - Y
            if low > high:
                break
            row = rows[X + x]
            room = top[X + x + 1] - Y  # the next column's, for the call's x = 1
            for y in range(low, high + 1):
                term = (key + X * y - x * Y + gcd(x, y), k)
                counts = row[Y + y]
                counts[term] = counts.get(term, 0) + 1
                if y // x < room - y:
                    walk(X + x, Y + y, x, y, term[0], k)

    walk(0, 0, sx, sy, 0, 0)
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
    record per chain: one check_steps pass checks each chain and gives its
    vertices and the sums its chain_stats reads."""
    for steps in sorted(chains_C(spec.i, spec.j), key=len):
        vertices, area2, edge_gcds = check_steps(steps)
        yield PolygonRecord(vertices, chain_stats(len(steps), area2, edge_gcds, spec))
