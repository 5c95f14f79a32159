"""Exact verification of the chain-count identity, in three equivalent forms.

Form 1 (step family D): sum over the D chains of (i, n) of
    (q - 1)^(k-1) * q^(1 - k + (cross + gcdsum)/2)
which must equal the single monomial q^((i*j - n)/2 + 1), j = n - i.

Form 2 (polygon family): sum over the triangle's chain polygons P of
    (q - 1)^(k-1) * q^(-(k-1) + interior(P) + boundary(P))
which must equal q^((i*j - n + gcd(i,j))/2 + 2): termwise, form 1 times
q^(1 + gcd(i,j)/2), by the Pick-type exponent identity (see tests).

Form 3 (unit sums): over the same polygons,
    sum x^u(P) * (1-x)^(v(P)-2)  ==  1  ==  sum (1-x)^u(P) * x^(v(P)-2).

All comparisons are exact, half-integer q-exponents doubled into ints. Every
form is one shift of a key histogram {(key, k): mult}, key = cross + gcdsum
over a chain's bare steps. verify_all counts a pair's two off the targeted
walks chains_D and chains_C; verify_up_to counts every pair's from one region
walk per family, region_D and region_C, before its first report.

check_histograms gives five verdicts from three packed tests and one dict
compare. With E = i*j - n + 2, which by Pick is rhs_main's exponent,
rhs_main_via_polygons' less g + 2, and 2*I_T + g, write T(h) for "the sum
of mult * z^((E - key)/2) * (1 - z)^(k-1) over the histogram h is 1" and
T'(h) for the same with the two factors swapped:

    check             reads
    d_form            T(D)
    polygon_form      T(C); T(D)'s result if D and C are equal as plain dicts
    unit_sum          T(C): polygon_form's result, as their targets agree
    unit_sum_process  T'(C), always computed: a second evaluation
    form_consistency  D == C

A verdict reads another's result only when both are the same call: equal
(top, c, swapped), read off the targets, and histograms equal as plain
dicts, as Counter's == takes a term of multiplicity 0 for no term. So a
patched target is packed on its own. Each test packs the form's terms
straight from the histogram into one polyalgebra.packed_equals; fold_terms
expands a form only to print a failing lhs and in the public single-form
functions. A failure report's term ledger is the D histogram its checks
read, walked no second time; a term with k < 1, a negative power of
(q - 1), folds to no polynomial, and the report says so in place of an lhs.

Both sums survive the shear (a, b) -> (a, b - a) from D to C, and on a C
chain they are its polygon's area2 and edge-gcd sum G. With q = v^2, a D
term is v^key * (1 - v^-2)^(k-1). By Pick, 2(i(P) + b(P)) = key + g + 2
(g = gcd(i,j)), the 2-gon included: the polygon form is the C histogram
shifted by g + 2. The unit sums fold the signature, u(P) = I_T - (key - g)/2
(I_T the triangle's interior count) and v(P) - 2 = k - 1; every form, and
key_signature, refuses a key off Pick's parity, key - g odd. polygon_form
and unit_sum test one identity; form_consistency ties the C family to the
separately enumerated D family: the shear keeps each chain's (key, k), so
the key histograms must be equal. That states the bijection itself; equal
folds would not, as the fold has a kernel, v^s(1-v^-2)^p =
v^s(1-v^-2)^(p+1) + v^(s-2)(1-v^-2)^p. No chain polygon is built and
check_steps runs on no chain: the walks' step conditions are the chain rule.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .enumeration import chains_C, chains_D, region_C, region_D
from .geometry import TriangleSpec, pair_cross_sum, pair_gcd_sum
from .polyalgebra import QHalfPoly, UnitPoly, packed_equals

# names of check_histograms' checks, in the order they run
CHECK_NAMES = ("d_form", "polygon_form", "unit_sum", "unit_sum_process", "form_consistency")


class IdentityReport(NamedTuple):
    """One pair's verdict. d_keys is the D key histogram {(key, k): mult}
    that check_histograms read: the targeted walk's Counter in verify_all,
    the region walk's dict in a sweep. A failure report lists it as its term
    ledger, whose terms fold to lhs; lhs is None if a term has k < 1, a
    negative power of (q - 1), so the ledger folds to no polynomial."""

    spec: TriangleSpec
    lhs: Optional[QHalfPoly]
    rhs: QHalfPoly
    checks: tuple  # (name, passed) in CHECK_NAMES order
    d_keys: dict

    @property
    def failed_check(self) -> Optional[str]:
        """The first check that failed, or None."""
        return next((name for name, ok in self.checks if not ok), None)

    @property
    def all_passed(self) -> bool:
        return self.failed_check is None


def _term_keys(chains) -> Counter:
    """{(cross + gcdsum, k): mult} over the chains' steps."""
    return Counter((pair_cross_sum(s) + pair_gcd_sum(s), len(s)) for s in chains)


def _q_terms(keys, shift: int) -> dict:
    """The fold terms of v^(key + shift) * (1 - v^-2)^(k-1) over the key histogram."""
    return {(key + shift, k - 1): mult for (key, k), mult in keys.items()}


def key_signature(keys, spec: TriangleSpec) -> Counter:
    """{(u(P), v(P)-2): mult} from the C family's key histogram; a key off
    Pick's parity, key - g odd, is a ValueError."""
    sig = Counter()
    for (key, k), mult in keys.items():
        half, odd = divmod(key - spec.g, 2)
        if odd:
            raise ValueError(f"key {key} is off Pick's parity: key - g is odd, g = {spec.g}")
        sig[spec.interior_count - half, k - 1] = mult
    return sig


def _swapped(sig) -> dict:
    """The terms of (1-x)^u * x^(v-2) over the signature."""
    return {(b, a): mult for (a, b), mult in sig.items()}


def rhs_main(i: int, n: int) -> QHalfPoly:
    if i < 1 or n <= i:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return QHalfPoly.monomial(i * (n - i) - n + 2)


# only the unit sums and triangle_signature call this; it goes with them (ROADMAP item 5)
def signature(spec: TriangleSpec) -> Counter:
    """{(u(P), v(P)-2): mult} over the polygon family of the triangle."""
    return key_signature(_term_keys(chains_C(spec.i, spec.j)), spec)


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def lhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return QHalfPoly.fold_terms(_q_terms(_term_keys(chains_C(spec.i, spec.j)), spec.g + 2))


def rhs_main_via_polygons(spec: TriangleSpec) -> QHalfPoly:
    return QHalfPoly.monomial(spec.i * spec.j - spec.n + spec.g + 4)


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def unit_sum(spec: TriangleSpec) -> UnitPoly:
    """Sum of x^u(P) * (1-x)^(v(P)-2) over the polygon family."""
    return UnitPoly.fold_terms(signature(spec))


# no command calls this; it stays while perfbench wraps it (ROADMAP item 5)
def unit_sum_process(spec: TriangleSpec) -> UnitPoly:
    """Same family, factors swapped: sum of (1-x)^u(P) * x^(v(P)-2)."""
    return UnitPoly.fold_terms(_swapped(signature(spec)))


def _packs_to(keys, top: int, c: int, swapped: bool = False) -> bool:
    """Whether z^h * (1 - z)^(k-1), or (1 - z)^h * z^(k-1) if swapped, summed
    over the key histogram with h = (top - key)/2, is c; a key a parity apart
    is refused. With z = v^-2 and top = e - shift it is a q form against
    c * v^e; with z = x and top = 2 I_T + g, h is u(P) and it is a unit sum."""
    terms = []
    for (key, k), mult in keys.items():
        if (top - key) & 1:
            return False
        h = (top - key) >> 1
        terms.append((k - 1, h, mult) if swapped else (h, k - 1, mult))
    return packed_equals(terms, c, 0)


def check_histograms(i: int, n: int, d_keys, c_keys) -> IdentityReport:
    """Run the five identity checks on the key histograms of the D family of
    (i, n) and the C family of its triangle; a violation is reported, never
    raised, and only a failing lhs is expanded, to be printed."""
    rhs = rhs_main(i, n)  # refuses a bad (i, n) first
    spec = TriangleSpec(i, n - i)
    [(e, c)], [(e_p, c_p)] = rhs.items(), rhs_main_via_polygons(spec).items()
    polygon_call = (e_p - spec.g - 2, c_p)
    u_top = 2 * spec.interior_count + spec.g  # u(P) = I_T - (key - g)/2
    # a check reads another's result only on the same call; Counter's == would
    # equate a term of multiplicity 0, which a packed check can refuse, with none
    same_keys = d_keys.items() == c_keys.items()
    d_form = _packs_to(d_keys, e, c)
    polygon_form = (d_form if same_keys and polygon_call == (e, c)
                    else _packs_to(c_keys, *polygon_call))
    checks = tuple(zip(CHECK_NAMES, (
        d_form,
        polygon_form,
        polygon_form if polygon_call == (u_top, 1) else _packs_to(c_keys, u_top, 1),
        _packs_to(c_keys, u_top, 1, swapped=True),
        same_keys or d_keys == c_keys,
    )))
    try:
        lhs = rhs if d_form else QHalfPoly.fold_terms(_q_terms(d_keys, 0))
    except ValueError:  # a term with k < 1
        lhs = None
    return IdentityReport(spec=spec, lhs=lhs, rhs=rhs, checks=checks, d_keys=d_keys)


def verify_all(i: int, n: int) -> IdentityReport:
    """check_histograms on one pair, each family counted by its targeted walk."""
    return check_histograms(i, n, _term_keys(chains_D(i, n)), _term_keys(chains_C(i, n - i)))


def verify_up_to(max_n: int):
    """The reports of every pair 1 <= i < n <= max_n, ordered by n, then i.
    Each family is counted by one region walk over the whole sweep, and both
    walks finish, holding every pair's histograms, before the first check."""
    d_hists = region_D(max_n)
    c_hists = region_C(max_n - 1, max_n - 1, max_n)
    return (check_histograms(i, n, d_hists[i, n], c_hists[i, n - i])
            for n in range(2, max_n + 1) for i in range(1, n))
