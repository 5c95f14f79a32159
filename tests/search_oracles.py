"""Two searches for unit multisets, kept as oracles for
latticechains.explorer.search_unit_multisets.

backtracking_search is the search the explorer used before its level peel:
it tries every (a, b) pair in order and prunes by the value of the sum at
x = 1/2 and by the single a = 0 and single b = 0 rules. mirror_peel_search
peels the sum from x = 1 instead, level by level over b, with its own
coefficient arithmetic. Neither calls into the explorer's search or fold.
"""

from itertools import combinations_with_replacement
from math import comb

from latticechains.explorer import Signature


def _sorted(found):
    return sorted(found, key=lambda s: (len(s), s.pairs))


def backtracking_search(max_a, max_b, max_size):
    """Every multiset of pairs (a <= max_a, b <= max_b, size <= max_size)
    that contains (0,1) and sums to 1, sorted by (size, pairs).

    Pruning facts (terms are strictly positive on 0 < x < 1):
    - the partial sum at x = 1/2 can never exceed 1; it is kept exactly as
      a numerator over 2**(max_a + max_b), where a term adds 2**-(a + b);
    - at x = 0 only a = 0 terms survive, so exactly one pair has a = 0;
    - at x = 1 only b = 0 terms survive, so exactly one pair has b = 0.
    A multiset whose value at x = 1/2 is exactly 1 is confirmed by an exact
    coefficient check.
    """
    candidates = [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
    whole = 1 << (max_a + max_b)
    found = []

    def extend(start, chosen, val_half, a0, b0):
        for idx in range(start, len(candidates)):
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
                if (0, 1) in chosen and _x_coefficients(chosen) == {0: 1}:
                    found.append(Signature(tuple(chosen)))
            elif len(chosen) < max_size:
                extend(idx, chosen, new_val, new_a0, new_b0)
            chosen.pop()

    extend(0, [], 0, 0, 0)
    return _sorted(found)


def _x_coefficients(pairs):
    """Nonzero coefficients {t: c} of sum x^a (1-x)^b, by the binomial theorem."""
    coefficients = {}
    for a, b in pairs:
        for j in range(b + 1):
            coefficients[a + j] = coefficients.get(a + j, 0) + (-1) ** j * comb(b, j)
    return {t: c for t, c in coefficients.items() if c}


def mirror_peel_search(max_a, max_b, max_size):
    """The same multisets as backtracking_search, peeled from x = 1.

    With y = 1 - x each term is (1-y)^a * y^b, so the coefficient of y^t is
    #(b = t) + sum over pairs with b < t of (-1)^(t-b) * C(a, t-b). Level t
    chooses exactly as many values of a as that leaves missing, at most one
    pair has a = 0 (the value at x = 0), and after level max_b every
    coefficient of (sum - 1) must be 0.
    """
    found = []

    def level(t, pairs, rest):
        # rest[s]: coefficient of y^s in (sum - 1) over the pairs with b < t
        if t > max_b:
            if not any(rest.values()) and (0, 1) in pairs:
                found.append(Signature(tuple(pairs)))
            return
        need = -rest.get(t, 0)
        if need < 0 or len(pairs) + need > max_size:
            return
        zeros = sum(a == 0 for a, _ in pairs)
        for a_values in combinations_with_replacement(range(max_a + 1), need):
            if zeros + a_values.count(0) > 1:
                continue
            after = dict(rest)
            for a in a_values:
                for j in range(a + 1):
                    after[t + j] = after.get(t + j, 0) + (-1) ** j * comb(a, j)
            level(t + 1, pairs + [(a, t) for a in a_values], after)

    level(0, [], {0: -1})
    return _sorted(found)
