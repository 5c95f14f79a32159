"""Signature tooling: which exponent multisets make the unit sum equal 1?

A triangle's signature is the multiset {(u(P), v(P)-2) : P in the chain
family}; the unit-sum identity says every such signature satisfies
    sum over pairs of x^a * (1-x)^b == 1
exactly. This module computes signatures, tests arbitrary pair multisets
against that equation, searches exhaustively for solutions within bounds,
and looks for triangles realizing a given multiset. The search is bounded
tooling only: it reports matches and non-matches, nothing more.

The search rests on one fact: the coefficient of x^t in the sum is
    #(a = t) + sum over pairs with a < t of (-1)^(t-a) * C(b, t-a),
so the pairs with smaller a fix how many pairs have a = t. It peels the
sum level by level: level 0 is the pair (0,1), and level t only chooses
that many values of b.

Unlike the composition steps, exponents here may be 0 (the pair (0,1) is
required in every searched multiset, and it has a = 0).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add

from .enumeration import region_C
from .geometry import FrozenSlots, TriangleSpec
from .polyalgebra import UnitPoly
from .verification import key_signature, signature

_NODE_CAP = 1_000_000  # units of coefficient work; (7,7,11) needs 567,704


class SearchCapExceeded(Exception):
    """The search did more coefficient work than its node cap before finishing."""


class Signature(FrozenSlots):
    """Multiset of exponent pairs, stored sorted so equality is multiset equality."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple):
        pairs = tuple((a, b) for a, b in pairs)
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise TypeError(f"exponents must be ints, got ({a!r}, {b!r})")
            if a < 0 or b < 0:
                raise ValueError(f"exponents must be nonnegative, got ({a},{b})")
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def as_set(self) -> "Signature":
        """Collapse multiplicities (the sum-to-1 reading needs the multiset)."""
        return Signature(tuple(set(self.pairs)))


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def triangle_signature(m: int, n: int) -> Signature:
    return Signature(tuple(signature(TriangleSpec(m, n)).elements()))


def unit_sum_of(sig: Signature) -> UnitPoly:
    """Sum of x^a * (1-x)^b over the multiset, folded from its histogram."""
    return UnitPoly.fold_terms(Counter(sig))


def is_unit_multiset(sig: Signature) -> bool:
    return unit_sum_of(sig) == UnitPoly.one()


def search_unit_multisets(max_a: int, max_b: int, max_size: int,
                          node_cap: int = _NODE_CAP) -> list:
    """Every multiset of pairs (a <= max_a, b <= max_b, size <= max_size)
    that contains (0,1) and sums to 1, sorted by (size, pairs). Exhaustive
    within bounds; raises SearchCapExceeded rather than returning a
    truncated list once its work passes node_cap units: b + 1, the length
    of a pair's row of coefficients, per pair placed and per pair folded.

    The search peels the coefficients of x^t one level t at a time. The
    coefficient of x^t in the sum is
        #(a = t) + sum over pairs with a < t of (-1)^(t-a) * C(b, t-a),
    so the pairs with smaller a fix need_t, the number of pairs with a = t
    that makes that coefficient 1 at t = 0 and 0 above. Level 0 is
    exactly (0,1); level t chooses only a nondecreasing run of need_t
    values of b, and a branch dies when need_t < 0, when a level above
    max_a still needs pairs, or when it would pass max_size. At x = 1
    only b = 0 terms survive, so at most one pair has b = 0. A pair (t, b)
    and each of the `left` - 1 pairs placed after it at level t lower the
    coefficient c of x^(t+1) by b or more, so b runs up to
    (c + room) // left, where room is how many pairs level t+1 may still
    take: 0 at t = max_a, else max_size less the pairs held and still to
    place. Levels whose coefficient is already 0 need no pairs and are
    skipped, so a huge max_a costs nothing. Each completed multiset is
    confirmed by an exact fold.
    """
    if max_a < 0 or max_b < 0:
        raise ValueError("exponent bounds must be >= 0")
    if max_size < 1 or node_cap < 1:
        raise ValueError("max_size and node_cap must be >= 1")
    if max_b == 0:
        return []

    rows = {}
    found = []
    work = 0

    def spend(units: int):
        nonlocal work
        work += units
        if work > node_cap:
            raise SearchCapExceeded(f"did more than {node_cap} units of coefficient work "
                                    f"within bounds ({max_a},{max_b},{max_size})")

    # An entry (pairs, a, left, low, has_b0, coeffs) is a branch whose
    # level a still needs `left` pairs, each with b >= low; coeffs[j] is the
    # coefficient of x^(a+j) in (sum - 1) over `pairs`, and len(coeffs) >= 2.

    def next_level(pairs: tuple, a: int, has_b0: bool, coeffs: tuple):
        """The entry for the first level above a whose coefficient is not 0,
        or None; a multiset with no such level is complete."""
        for i, c in enumerate(coeffs[1:], start=1):
            if c:
                break
        else:
            spend(sum(b + 1 for _, b in pairs))
            sig = Signature(pairs)
            if is_unit_multiset(sig):
                found.append(sig)
            return None
        if c < 0 and a + i <= max_a and len(pairs) - c <= max_size:
            return pairs, a + i, -c, 0, has_b0, coeffs[i:] + (0,)
        return None

    def placements(pairs: tuple, a: int, left: int, low: int, has_b0: bool, coeffs: tuple):
        """The entries one pair (a, b) further on, b in increasing order."""
        # the `left` pairs from this one on lower the x^(a+1) coefficient by
        # b * left or more, and each unit below 0 is one more pair at level
        # a+1, which has room for `room`: so b * left - coeffs[1] <= room
        room = 0 if a == max_a else max_size - len(pairs) - left
        top = min(max_b, (coeffs[1] + room) // left)
        for b in range(1 if has_b0 and low == 0 else low, top + 1):
            spend(b + 1)
            if b not in rows:
                # rows[b][j] is the coefficient of x^(a+j) in x^a * (1-x)^b, each from the last
                rows[b] = tuple(accumulate(range(b), lambda c, j: -c * (b - j) // (j + 1),
                                           initial=1))
            row = rows[b]
            pad = (0,) * (len(row) - len(coeffs))
            after = tuple(map(add, coeffs + pad, row)) + coeffs[len(row):]
            placed = pairs + ((a, b),)
            if left > 1:
                yield placed, a, left - 1, b, has_b0 or b == 0, after
            else:
                entry = next_level(placed, a, has_b0 or b == 0, after)
                if entry:
                    yield entry

    # the walk keeps its own stack of placement generators, so its depth is
    # not bounded by the interpreter's recursion limit
    root = next_level(((0, 1),), 0, False, (0, -1))
    stack = [placements(*root)] if root else []
    while stack:
        entry = next(stack[-1], None)
        if entry is None:
            stack.pop()
        else:
            stack.append(placements(*entry))
    return sorted(found, key=lambda s: (len(s), s.pairs))


def triangle_signatures(max_m: int, max_n: int) -> dict:
    """{(m, n): triangle_signature(m, n)} for every triangle within bounds,
    in row-major (m, n) order, all read from one walk over the box."""
    if max_m < 1 or max_n < 1:
        raise ValueError("triangle bounds must be >= 1")
    hists = region_C(max_m, max_n, max_m + max_n)
    return {(m, n): Signature(tuple(key_signature(hists[m, n], TriangleSpec(m, n)).elements()))
            for m in range(1, max_m + 1) for n in range(1, max_n + 1)}


def match_signature(sig: Signature, signatures: dict) -> list:
    """Every (m, n) in `signatures`, a map from triangle_signatures, whose
    signature equals sig, in the map's order. The map's bounds are the only
    bounds, and a caller matching many multisets computes each signature
    once; its values may be collapsed with as_set()."""
    return [mn for mn, other in signatures.items() if other == sig]
