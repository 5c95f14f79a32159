"""Slope-constrained compositions and the convex chains they index.

Two index families are enumerated independently (so the bijection between
them is a checkable fact, not a construction):

* family D: steps (a_l, b_l) with sum(a) = i, sum(b) = n and
  1 > a_1/b_1 > ... > a_k/b_k > 0;
* family C: steps (x_l, y_l) with sum(x) = i, sum(y) = j and
  y_1/x_1 < ... < y_k/x_k, the steps of the triangle's chain polygons.

The shear (a, b) -> (a, b - a) maps D onto C; the tests state it.

Each family has one depth-first walk, chains_D or chains_C, which yields
bare step tuples, unvalidated, in lexicographic order. The walk visits every
chain prefix once and closes it with the remainder as its last step; the
remainder's first coordinate exceeds that of any step that could extend the
prefix, so the closed chain comes after every extension. The proof path in
verification reads these walks directly. enumerate_D and enumerate_polygons
stable-sort the same walk by step count k, so their output is grouped by
increasing k and lexicographic within a group, and validate each chain once:
a D element through geometry.check_steps on its shear, a polygon through
ChainPolygon.

Slopes are compared by integer cross products throughout. The walk takes a
step only if it continues the slope order and the remainder can still
follow it. The later steps sum to the remainder, and a sum of vectors whose
slopes are all strictly below (above) a slope has a slope strictly below
(above) it too. So a D step (a, b) needs (rem_a - a) * b < a * (rem_b - b),
and a C step (x, y) needs x * (rem_y - y) - (rem_x - x) * y > 0. Both are
necessary, and they are exactly the slope order of the closing step, so
every prefix the walk visits closes into one chain and no branch yields
nothing. With the step's first coordinate fixed, each fails for every
larger second coordinate once it fails, so the inner loop stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .geometry import ChainPolygon, Steps, TriangleSpec, check_steps


@dataclass(frozen=True)
class CompositionD:
    """Steps (a_l, b_l), each 1 <= a < b, with slopes a/b strictly decreasing:
    check_steps on the shear (a, b - a), which keeps each cross product. A
    refusal therefore names the sheared steps."""

    steps: Steps

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))
        check_steps(tuple([(a, b - a) for a, b in self.steps]))

    @property
    def k(self) -> int:
        return len(self.steps)


def chains_D(i: int, n: int) -> Iterator[Steps]:
    """The steps of every element of the D family for (i, n), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return _walk_d((), i, n)


def _walk_d(prefix, rem_a, rem_b):
    for a in range(1, rem_a):
        for b in range(a + 1, rem_b):
            if (rem_a - a) * b >= a * (rem_b - b):
                break  # the rest cannot be strictly flatter than (a, b)
            if prefix and prefix[-1][0] * b <= a * prefix[-1][1]:
                continue
            yield from _walk_d((*prefix, (a, b)), rem_a - a, rem_b - b)
    yield (*prefix, (rem_a, rem_b))


def chains_C(i: int, j: int) -> Iterator[Steps]:
    """The steps of every element of the C family for (i, j), each exactly
    once, in lexicographic order and unvalidated."""
    if i < 1 or j < 1:
        raise ValueError(f"need i, j >= 1, got i={i}, j={j}")
    return _walk_c((), i, j)


def _walk_c(prefix, rem_x, rem_y):
    for x in range(1, rem_x):
        for y in range(1, rem_y):
            if x * (rem_y - y) - (rem_x - x) * y <= 0:
                break  # the rest cannot be strictly steeper than (x, y)
            if prefix and prefix[-1][0] * y - x * prefix[-1][1] <= 0:
                continue
            yield from _walk_c((*prefix, (x, y)), rem_x - x, rem_y - y)
    yield (*prefix, (rem_x, rem_y))


def enumerate_D(i: int, n: int) -> Iterator[CompositionD]:
    """Every element of the D family for (i, n), each exactly once."""
    for steps in sorted(chains_D(i, n), key=len):
        yield CompositionD(steps)


def enumerate_polygons(spec: TriangleSpec) -> Iterator[ChainPolygon]:
    """The full polygon family of the triangle (the 2-gon comes first),
    each chain validated once, by ChainPolygon."""
    for steps in sorted(chains_C(spec.i, spec.j), key=len):
        verts = [(0, 0)]
        for dx, dy in steps:
            x, y = verts[-1]
            verts.append((x + dx, y + dy))
        yield ChainPolygon(tuple(verts), spec)
