"""Exact verification of the chain-count identity, in three equivalent forms.

Form 1 (step family D): sum over the D chains of (i, n) of
    (q - 1)^(k-1) * q^(1 - k + (cross + gcdsum)/2)
which must equal the single monomial q^((i*j - n)/2 + 1), j = n - i.

Form 2 (polygon family): sum over enumerate_polygons of
    (q - 1)^(k-1) * q^(-(k-1) + interior(P) + boundary(P))
which must equal q^((i*j - n + gcd(i,j))/2 + 2). The two forms differ by
the factor q^(1 + gcd(i,j)/2), termwise, via the Pick-type exponent
identity (see tests).

Form 3 (unit sums): over the same polygons,
    sum x^u(P) * (1-x)^(v(P)-2)  ==  1  ==  sum (1-x)^u(P) * x^(v(P)-2).

All comparisons are exact polynomial equalities. Half-integer q-exponents
are carried as doubled integers, so every coefficient stays an int.

Every form is one shift of a key histogram {(key, k): mult}, counted once
per family straight off the unsorted walk chains_D or chains_C, where
key = cross + gcdsum over a chain's bare steps; fold_terms expands each
distinct key once, times its multiplicity. Both sums survive the shear
(a, b) -> (a, b - a) from D to C, and on a C chain they are its polygon's
area2 and edge-gcd sum G. With q = v^2, a D term is
v^key * (1 - v^-2)^(k-1). By Pick, 2(i(P) + b(P)) = key + g + 2
(g = gcd(i,j)), the 2-gon included: the polygon form is the C histogram
shifted by g + 2. The unit sums fold the signature, where
u(P) = I_T - (key - g)/2 (I_T the triangle's interior count) and
v(P) - 2 = k - 1. So polygon_form and unit_sum test one identity, and
form_consistency ties the C family to the separately enumerated D family:
as the shear keeps each chain's (key, k), their key histograms must be
equal. That states the bijection itself; equal folds would not, as the
fold has a kernel, v^s(1-v^-2)^p = v^s(1-v^-2)^(p+1) + v^(s-2)(1-v^-2)^p.
No chain polygon is built on this path, and check_steps runs on no
chain: the walks' step conditions are the chain rule. A failed report's
per-term ledger lists the walk chains_D as the checks read it, unvalidated.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .enumeration import chains_C, chains_D
from .geometry import Steps, TriangleSpec, pair_cross_sum, pair_gcd_sum
from .polyalgebra import QHalfPoly, UnitPoly

# names of verify_all's checks, in the order they run
CHECK_NAMES = (
    "d_form",
    "polygon_form",
    "unit_sum",
    "unit_sum_process",
    "form_consistency",
)


class IdentityReport(NamedTuple):
    spec: TriangleSpec
    lhs: QHalfPoly
    rhs: QHalfPoly
    checks: tuple  # (name, passed) in CHECK_NAMES order

    @property
    def failed_check(self) -> Optional[str]:
        """The first check that failed, or None."""
        return next((name for name, ok in self.checks if not ok), None)

    @property
    def all_passed(self) -> bool:
        return self.failed_check is None

    @property
    def per_term_ledger(self) -> tuple:
        """(steps, doubled exponent, k) per D term, grouped by increasing k;
        the walk chains_D runs again on each access and no chain is
        validated, so a wrong walk is listed as the checks read it."""
        return tuple((steps, d_term_doubled_exponent(steps), len(steps))
                     for steps in sorted(chains_D(self.spec.i, self.spec.n), key=len))


def d_term_doubled_exponent(steps: Steps) -> int:
    return 2 * (1 - len(steps)) + pair_cross_sum(steps) + pair_gcd_sum(steps)


def _term_keys(chains) -> Counter:
    """{(cross + gcdsum, k): mult} over the chains' steps."""
    return Counter((pair_cross_sum(s) + pair_gcd_sum(s), len(s)) for s in chains)


def _q_form(keys, shift: int) -> QHalfPoly:
    """Sum of v^(key + shift) * (1 - v^-2)^(k-1) over the key histogram."""
    return QHalfPoly.fold_terms({(key + shift, k - 1): mult for (key, k), mult in keys.items()})


def _signature(keys, spec: TriangleSpec) -> Counter:
    """{(u(P), v(P)-2): mult} from the C family's key histogram."""
    return Counter({(spec.interior_count - (key - spec.g) // 2, k - 1): mult
                    for (key, k), mult in keys.items()})


def _unit_form(sig, swap: bool) -> UnitPoly:
    """Sum of x^u * (1-x)^(v-2) over the signature, or of (1-x)^u * x^(v-2) if swap."""
    if swap:
        sig = {(b, a): mult for (a, b), mult in sig.items()}
    return UnitPoly.fold_terms(sig)


def rhs_main(i: int, n: int) -> QHalfPoly:
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return QHalfPoly.monomial(i * (n - i) - n + 2)


def signature(spec: TriangleSpec) -> Counter:
    """{(u(P), v(P)-2): mult} over the polygon family of the triangle."""
    return _signature(_term_keys(chains_C(spec.i, spec.j)), spec)


def lhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return _q_form(_term_keys(chains_C(spec.i, spec.j)), spec.g + 2)


def rhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return QHalfPoly.monomial(spec.i * spec.j - spec.n + spec.g + 4)


def unit_sum(spec: TriangleSpec) -> UnitPoly:
    """Sum of x^u(P) * (1-x)^(v(P)-2) over the polygon family."""
    return _unit_form(signature(spec), swap=False)


def unit_sum_process(spec: TriangleSpec) -> UnitPoly:
    """Same family, factors swapped: sum of (1-x)^u(P) * x^(v(P)-2)."""
    return _unit_form(signature(spec), swap=True)


def verify_all(i: int, n: int) -> IdentityReport:
    """Run all five identity checks; a violation is reported, never raised.

    Each family is enumerated once, into its key histogram, and each form
    is folded from one shift of it.
    """
    rhs = rhs_main(i, n)  # refuses a bad (i, n) first
    spec = TriangleSpec(i, n - i)
    d_keys = _term_keys(chains_D(i, n))
    lhs = _q_form(d_keys, 0)
    c_keys = _term_keys(chains_C(spec.i, spec.j))
    poly_lhs = _q_form(c_keys, spec.g + 2)
    sig = _signature(c_keys, spec)
    checks = tuple(zip(CHECK_NAMES, (
        lhs == rhs,
        poly_lhs == rhs_main_via_polygons(spec),
        _unit_form(sig, swap=False) == UnitPoly.one(),
        _unit_form(sig, swap=True) == UnitPoly.one(),
        d_keys == c_keys,
    )))
    return IdentityReport(spec=spec, lhs=lhs, rhs=rhs, checks=checks)
