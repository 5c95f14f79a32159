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
unit sums refuse it."""

from collections import Counter

from latticechains.geometry import TriangleSpec
from latticechains.polyalgebra import QHalfPoly, UnitPoly
from latticechains.verification import (
    CHECK_NAMES, _q_terms, _swapped, rhs_main, rhs_main_via_polygons)


def floored_signature(keys, spec: TriangleSpec) -> Counter:
    return Counter({(spec.interior_count - (key - spec.g) // 2, k - 1): mult
                    for (key, k), mult in keys.items()})


def folds_to(cls, terms, target) -> bool:
    if any(power < 0 for _, power in terms):
        return False
    try:
        return cls.fold_terms(terms) == target
    except ValueError:  # a negative power of x, which no UnitPoly holds
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
