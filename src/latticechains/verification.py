"""Exact verification of the chain-count identity, in three equivalent forms.

Form 1 (step family D): sum over enumerate_D(i, n) of
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

Each form is folded from a term histogram: polyalgebra's ``fold_terms``
expands each distinct key once, times its multiplicity. The D form is keyed
by (k, doubled exponent); its per-term ledger is kept for the failure report.
The polygon side reads only the signature {(u(P), v(P)-2): mult} counted
from signature_pairs, since by Pick i(P) + b(P) = I_T + 1 + g - u(P) (I_T
the triangle's interior count, g = gcd(i,j)) and k - 1 = v(P) - 2. So the
polygon form is q^(I_T + 1 + g) times the unit sum at x = 1/q: polygon_form
and unit_sum test one identity, and form_consistency is the check that ties
the polygon family to the separately enumerated D family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .enumeration import CompositionD, enumerate_D, enumerate_polygons
from .geometry import TriangleSpec, pair_cross_sum, pair_gcd_sum, polygon_stats
from .polyalgebra import QHalfPoly, UnitPoly, q_monomial

# names of verify_all's checks, in the order they run
CHECK_NAMES = (
    "d_form",
    "polygon_form",
    "unit_sum",
    "unit_sum_process",
    "form_consistency",
)


@dataclass(frozen=True)
class IdentityReport:
    spec: TriangleSpec
    lhs: QHalfPoly
    rhs: QHalfPoly
    equal: bool
    per_term_ledger: tuple  # (element, doubled exponent, k) per D term
    checks: tuple  # (name, passed) in CHECK_NAMES order
    failed_check: Optional[str]

    @property
    def all_passed(self) -> bool:
        return self.failed_check is None


def d_term_doubled_exponent(d: CompositionD) -> int:
    return 2 * (1 - d.k) + pair_cross_sum(d.steps) + pair_gcd_sum(d.steps)


def _d_ledger(i: int, n: int) -> list:
    """(element, doubled exponent, k) per D term, in enumeration order."""
    return [(d, d_term_doubled_exponent(d), d.k) for d in enumerate_D(i, n)]


def _d_form(ledger) -> QHalfPoly:
    """Sum of (q - 1)^(k-1) * q^(doubled/2) over the ledger, as
    v^(doubled + 2k - 2) * (1 - v^-2)^(k-1)."""
    histogram = Counter((doubled + 2 * (k - 1), k - 1) for _, doubled, k in ledger)
    return QHalfPoly.fold_terms(histogram, step=-2)


def lhs_main_via_D(i: int, n: int) -> QHalfPoly:
    return _d_form(_d_ledger(i, n))


def rhs_main(i: int, n: int) -> QHalfPoly:
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return q_monomial(i * (n - i) - n + 2)


def polygon_term_doubled_exponent(k: int, interior: int, boundary: int) -> int:
    return 2 * (interior + boundary - (k - 1))


def signature_pairs(spec: TriangleSpec) -> list:
    """(u(P), v(P)-2) per polygon of the family, in enumeration order."""
    return [(s.u, s.v_count - 2) for s in map(polygon_stats, enumerate_polygons(spec))]


def _polygon_form(signature, spec: TriangleSpec) -> QHalfPoly:
    """Sum of (q - 1)^w * q^(top - u - w) over the signature {(u, w): mult},
    top = I_T + 1 + g, as v^(2*(top - u)) * (1 - v^-2)^w."""
    top = spec.interior_count + 1 + spec.g
    histogram = {(2 * (top - u), w): mult for (u, w), mult in signature.items()}
    return QHalfPoly.fold_terms(histogram, step=-2)


def _unit_form(signature, swap: bool) -> UnitPoly:
    """Sum of x^u * (1-x)^(v-2) over the signature, or of (1-x)^u * x^(v-2) if swap."""
    if swap:
        signature = {(b, a): mult for (a, b), mult in signature.items()}
    return UnitPoly.fold_terms(signature, step=1)


def lhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return _polygon_form(Counter(signature_pairs(spec)), spec)


def rhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return q_monomial(spec.i * spec.j - spec.n + spec.g + 4)


def unit_sum(spec: TriangleSpec) -> UnitPoly:
    """Sum of x^u(P) * (1-x)^(v(P)-2) over the polygon family."""
    return _unit_form(Counter(signature_pairs(spec)), swap=False)


def unit_sum_process(spec: TriangleSpec) -> UnitPoly:
    """Same family, factors swapped: sum of (1-x)^u(P) * x^(v(P)-2)."""
    return _unit_form(Counter(signature_pairs(spec)), swap=True)


def verify_all(i: int, n: int) -> IdentityReport:
    """Run all five identity checks; a violation is reported, never raised.

    Each family is enumerated once, with one polygon_stats call per polygon,
    and each form is folded from its term histogram.
    """
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    spec = TriangleSpec(i, n - i)

    ledger = _d_ledger(i, n)
    lhs = _d_form(ledger)
    rhs = rhs_main(i, n)

    signature = Counter(signature_pairs(spec))
    poly_lhs = _polygon_form(signature, spec)
    results = (
        ("d_form", lhs == rhs),
        ("polygon_form", poly_lhs == rhs_main_via_polygons(spec)),
        ("unit_sum", _unit_form(signature, swap=False) == UnitPoly.one()),
        ("unit_sum_process", _unit_form(signature, swap=True) == UnitPoly.one()),
        ("form_consistency", poly_lhs == lhs * q_monomial(2 + spec.g)),
    )
    failed = next((name for name, ok in results if not ok), None)
    return IdentityReport(
        spec=spec,
        lhs=lhs,
        rhs=rhs,
        equal=(lhs == rhs),
        per_term_ledger=tuple(ledger),
        checks=results,
        failed_check=failed,
    )
