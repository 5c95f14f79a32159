"""Signature tooling: which exponent multisets make the unit sum equal 1?

A triangle's signature is the multiset {(u(P), v(P)-2) : P in the chain
family}; the unit-sum identity says every such signature satisfies
    sum over pairs of x^a * (1-x)^b == 1
exactly. This module computes signatures, tests arbitrary pair multisets
against that equation, searches exhaustively for solutions within bounds,
and looks for triangles realizing a given multiset. The search is bounded
tooling only: it reports matches and non-matches, nothing more.

Unlike the composition steps, exponents here may be 0 (the pair (0,1) is
required in every searched multiset, and it has a = 0).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .geometry import TriangleSpec
from .polyalgebra import UnitPoly
from .verification import signature

Pair = tuple[int, int]


class SearchCapExceeded(Exception):
    """The backtracking search hit its node cap before finishing."""


@dataclass(frozen=True)
class Signature:
    """Multiset of exponent pairs, stored sorted so equality is multiset equality."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((a, b) for a, b in self.pairs)
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


def triangle_signature(m: int, n: int) -> Signature:
    return Signature(tuple(signature(TriangleSpec(m, n)).elements()))


def unit_sum_of(sig: Signature) -> UnitPoly:
    """Sum of x^a * (1-x)^b over the multiset, folded from its histogram."""
    return UnitPoly.fold_terms(Counter(sig), step=1)


def is_unit_multiset(sig: Signature) -> bool:
    return unit_sum_of(sig) == UnitPoly.one()


def search_unit_multisets(max_a: int, max_b: int, max_size: int,
                          node_cap: int = 200_000) -> list:
    """Every multiset of pairs (a <= max_a, b <= max_b, size <= max_size)
    that contains (0,1) and sums to 1. Exhaustive within bounds; raises
    SearchCapExceeded rather than returning a truncated list.

    Pruning facts (terms are strictly positive on 0 < x < 1):
    - the partial sum at x = 1/2 can never exceed 1; it is kept exactly as
      a numerator over 2**(max_a + max_b), where a term adds 2**-(a + b);
    - at x = 0 only a = 0 terms survive, so exactly one pair has a = 0;
    - at x = 1 only b = 0 terms survive, so exactly one pair has b = 0.
    """
    if max_a < 0 or max_b < 0:
        raise ValueError("exponent bounds must be >= 0")
    if max_size < 1 or node_cap < 1:
        raise ValueError("max_size and node_cap must be >= 1")

    candidates = [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
    whole = 1 << (max_a + max_b)
    one = UnitPoly.one()
    found = []
    visited = 0

    def extend(start: int, chosen: list, val_half: int, a0: int, b0: int):
        nonlocal visited
        for idx in range(start, len(candidates)):
            visited += 1
            if visited > node_cap:
                raise SearchCapExceeded(
                    f"visited more than {node_cap} nodes within bounds "
                    f"({max_a},{max_b},{max_size})"
                )
            a, b = candidates[idx]
            new_a0 = a0 + (a == 0)
            new_b0 = b0 + (b == 0)
            if new_a0 > 1 or new_b0 > 1:
                continue
            new_val = val_half + (whole >> (a + b))
            if new_val > whole:
                continue
            chosen.append((a, b))
            if new_val == whole:
                sig = Signature(tuple(chosen))
                if (0, 1) in sig.pairs and unit_sum_of(sig) == one:
                    found.append(sig)
            elif len(chosen) < max_size:
                extend(idx, chosen, new_val, new_a0, new_b0)
            chosen.pop()

    extend(0, [], 0, 0, 0)
    return sorted(found, key=lambda s: (len(s), s.pairs))


def triangle_signatures(max_m: int, max_n: int) -> dict:
    """{(m, n): triangle_signature(m, n)} for every triangle within bounds,
    in row-major (m, n) order."""
    if max_m < 1 or max_n < 1:
        raise ValueError("triangle bounds must be >= 1")
    return {(m, n): triangle_signature(m, n)
            for m in range(1, max_m + 1) for n in range(1, max_n + 1)}


def match_signature(sig: Signature, max_m: int, max_n: int, signatures=None) -> list:
    """All (m, n) within bounds whose triangle signature equals sig.

    `signatures` is a map from triangle_signatures to filter instead of
    computing one, so a caller matching many multisets computes each
    signature once; its values may be collapsed with as_set()."""
    if signatures is None:
        signatures = triangle_signatures(max_m, max_n)
    return [(m, n) for (m, n), other in signatures.items()
            if other == sig and m <= max_m and n <= max_n]
