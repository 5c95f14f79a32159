"""Slope-constrained compositions and the convex chains they index.

Two index families are enumerated independently (so the bijection between
them is a checkable fact, not a construction):

* family D: steps (a_l, b_l) with sum(a) = i, sum(b) = n and
  1 > a_1/b_1 > ... > a_k/b_k > 0;
* family C: steps (x_l, y_l) with sum(x) = i, sum(y) = j and
  y_1/x_1 < ... < y_k/x_k.

Both composition types check their steps with geometry.check_steps, the
one chain rule; a D element is checked through its shear d_to_c.

Slopes are compared by integer cross products throughout. Each family is
produced grouped by increasing step count k, lexicographically within a
group, so output order is reproducible. k never exceeds min(i, j): every
step consumes at least one unit of each coordinate (in D via b - a >= 1).

The depth-first fill skips a step whose remainder cannot follow it. The
later steps sum to the remainder, and a sum of vectors whose slopes are all
strictly below (above) a slope has a slope strictly below (above) it too.
So a D step (a, b) needs (rem_a - a) * b < a * (rem_b - b), and a C step
(x, y) needs x * (rem_y - y) - (rem_x - x) * y > 0. Both are necessary, so
skipping only drops branches that yield nothing, and the order is kept.
With the step's first coordinate fixed, each fails for every larger second
coordinate once it fails, so the inner loop stops there.
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


@dataclass(frozen=True)
class CompositionC:
    """Steps (x_l, y_l), each >= 1, with slopes y/x strictly increasing."""

    steps: Steps

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))
        check_steps(self.steps)

    @property
    def k(self) -> int:
        return len(self.steps)


def enumerate_D(i: int, n: int) -> Iterator[CompositionD]:
    """Every element of the D family for (i, n), each exactly once."""
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    for k in range(1, min(i, n - i) + 1):
        yield from _fill_d([], k, i, n)


def _fill_d(prefix, slots, rem_a, rem_b):
    if slots == 1:
        a, b = rem_a, rem_b
        if a >= 1 and b > a and (not prefix or prefix[-1][0] * b > a * prefix[-1][1]):
            yield CompositionD((*prefix, (a, b)))
        return
    # leave >= 1 of a and >= 2 of b (since b > a >= 1) for each later slot
    for a in range(1, rem_a - (slots - 1) + 1):
        for b in range(a + 1, rem_b - 2 * (slots - 1) + 1):
            if (rem_a - a) * b >= a * (rem_b - b):
                break  # the rest cannot be strictly flatter than (a, b)
            if prefix and prefix[-1][0] * b <= a * prefix[-1][1]:
                continue
            yield from _fill_d([*prefix, (a, b)], slots - 1, rem_a - a, rem_b - b)


def enumerate_C(i: int, j: int) -> Iterator[CompositionC]:
    """Every element of the C family for (i, j), each exactly once."""
    if i < 1 or j < 1:
        raise ValueError(f"need i, j >= 1, got i={i}, j={j}")
    for k in range(1, min(i, j) + 1):
        yield from _fill_c([], k, i, j)


def _fill_c(prefix, slots, rem_x, rem_y):
    if slots == 1:
        x, y = rem_x, rem_y
        if x >= 1 and y >= 1 and (not prefix or prefix[-1][0] * y - x * prefix[-1][1] > 0):
            yield CompositionC((*prefix, (x, y)))
        return
    for x in range(1, rem_x - (slots - 1) + 1):
        for y in range(1, rem_y - (slots - 1) + 1):
            if x * (rem_y - y) - (rem_x - x) * y <= 0:
                break  # the rest cannot be strictly steeper than (x, y)
            if prefix and prefix[-1][0] * y - x * prefix[-1][1] <= 0:
                continue
            yield from _fill_c([*prefix, (x, y)], slots - 1, rem_x - x, rem_y - y)


def d_to_c(d: CompositionD) -> CompositionC:
    """(a, b) -> (a, b - a); slope order flips from decreasing to increasing."""
    return CompositionC(tuple((a, b - a) for a, b in d.steps))


def c_to_d(c: CompositionC) -> CompositionD:
    """(x, y) -> (x, x + y); inverse of d_to_c."""
    return CompositionD(tuple((x, x + y) for x, y in c.steps))


def composition_to_polygon(c: CompositionC, spec: TriangleSpec) -> ChainPolygon:
    """Chain whose vertices are the partial sums of the steps; ChainPolygon
    refuses it unless the steps sum to (spec.i, spec.j)."""
    verts = [(0, 0)]
    for dx, dy in c.steps:
        x, y = verts[-1]
        verts.append((x + dx, y + dy))
    return ChainPolygon(tuple(verts), spec)


def polygon_to_composition(p: ChainPolygon) -> CompositionC:
    """Consecutive vertex differences; inverse of composition_to_polygon."""
    return CompositionC(p.steps)


def enumerate_polygons(spec: TriangleSpec) -> Iterator[ChainPolygon]:
    """The full polygon family of the triangle (the 2-gon comes first)."""
    for c in enumerate_C(spec.i, spec.j):
        yield composition_to_polygon(c, spec)
