"""The five identity checks as term dicts, kept as an oracle for
latticechains.verification.check_histograms, which packs each form straight
from its key histogram. Here every form is first built as a {(shift, power):
mult} dict, _q_terms for the q forms and the signature and its _swapped
terms for the unit sums, expanded by fold_terms and compared with its
monomial, so no check here runs through polyalgebra.packed_equals. A term
that is no polynomial, a power below 0 or a negative power of x, fails its
form, as the packed checks refuse it.

The signature floors (key - g)/2, as the checks once did: a key off Pick's
parity, key - g odd, lands on a neighbouring term here, where the packed
unit sums refuse it.

edited makes the failing histograms these checks are tried on."""

from collections import Counter

from latticechains.geometry import TriangleSpec
from latticechains.polyalgebra import QHalfPoly, UnitPoly
from latticechains.verification import (
    CHECK_NAMES, _q_terms, _swapped, rhs_main, rhs_main_via_polygons)


def floored_signature(keys, spec: TriangleSpec) -> Counter:
    return Counter({(spec.interior_count - (key - spec.g) // 2, k - 1): mult
                    for (key, k), mult in keys.items()})


def folds_to(cls, terms, target) -> bool:
    try:
        return cls.fold_terms(terms) == target
    except ValueError:  # a power below 0, or a negative power of x in a UnitPoly
        return False


def checks_oracle(i: int, n: int, d_keys, c_keys) -> tuple:
    spec = TriangleSpec(i, n - i)
    sig = floored_signature(c_keys, spec)
    return tuple(zip(CHECK_NAMES, (
        folds_to(QHalfPoly, _q_terms(d_keys, 0), rhs_main(i, n)),
        folds_to(QHalfPoly, _q_terms(c_keys, spec.g + 2), rhs_main_via_polygons(spec)),
        folds_to(UnitPoly, sig, UnitPoly.one()),
        folds_to(UnitPoly, _swapped(sig), UnitPoly.one()),
        d_keys == c_keys,
    )))


def edited(keys, edits, empty: bool) -> Counter:
    """The histogram with its picked terms' keys moved by delta, their k by
    +-1, their multiplicities changed, or dropped, and the terms added."""
    hist = Counter() if empty else Counter(keys)
    for kind, pick, delta, mult in edits:
        if kind == "add" or not hist:
            hist[pick, delta + 3] += mult
            continue
        key, k = sorted(hist)[pick % len(hist)]
        old = hist.pop((key, k))
        if kind == "key":
            hist[key + delta, k] += old
        elif kind == "k":
            hist[key, k + (1 if delta > 0 else -1)] += old
        elif kind == "mult":
            hist[key, k] = old + delta if old + delta > 0 else mult
    return hist
