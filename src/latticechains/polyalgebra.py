"""Exact univariate polynomials with big-integer coefficients: the folds
that build every identity form, and their rendering.

Two families cover every identity in this project:

* ``QHalfPoly`` -- Laurent polynomials in v where q = v^2, so a v-exponent
  e stands for q^(e/2). Half-integer powers of q stay integral by doubling.
* ``UnitPoly`` -- ordinary polynomials in x with nonnegative exponents.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored, so dict equality is canonical equality.

Every identity form is a sum of terms of one shape,
    mult * y^shift * (1 - y^step)^power,
so ``fold_terms`` sums a whole form from its term histogram
{(shift, power): mult}: each distinct key is expanded once by the binomial
theorem into one shared coefficient dict, and the polynomial is built once.
``UnitPoly`` folds y = x, step = 1, ``QHalfPoly`` y = v, step = -2, since
(q - 1)^(k-1) * q^(d/2) = v^(d + 2k - 2) * (1 - v^-2)^(k-1).

A check only asks whether a form equals its monomial: ``packed_equals``
answers from its (a, b, mult) terms mult * z^a * (1 - z)^b by one Horner at
a power of two wide enough that equal integers mean equal polynomials
(Kronecker substitution). ``fold_terms`` expands a printed form and the
single forms of verification.
"""

from __future__ import annotations

from math import comb


class _Poly:
    """Sparse exponent -> coefficient polynomial; immutable value object."""

    __slots__ = ("_coeffs",)
    _allow_negative = True

    def __init__(self, coeffs=None):
        items = {e: c for e, c in (coeffs or {}).items() if c}
        if not self._allow_negative and min(items, default=0) < 0:
            raise ValueError(f"negative exponent {min(items)} not allowed for {type(self).__name__}")
        self._coeffs = items

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls({exponent: coeff})

    @classmethod
    def fold_terms(cls, histogram):
        """Sum of mult * y^shift * (1 - y^step)^power over a {(shift, power):
        mult} mapping, with the type's own step; the empty mapping gives zero."""
        coeffs = {}
        for (shift, power), mult in histogram.items():
            for t in range(power + 1):
                e = shift + cls._step * t
                coeffs[e] = coeffs.get(e, 0) + (-mult if t & 1 else mult) * comb(power, t)
        return cls(coeffs)

    def items(self):
        """(exponent, coefficient) pairs in decreasing exponent order."""
        return sorted(self._coeffs.items(), reverse=True)

    def __eq__(self, other):
        return type(self) is type(other) and self._coeffs == other._coeffs

    # no fold adds or multiplies; these stay while perfbench wraps them (ROADMAP item 5)
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return type(self)(out)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return type(self)(out)

    def render(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            mag = abs(c)
            var = self._var_text(e)
            if not var:
                body = str(mag)
            elif mag == 1:
                body = var
            else:
                body = f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"

    def __str__(self):
        return self.render()

    @staticmethod
    def _var_text(e) -> str:
        raise NotImplementedError


class QHalfPoly(_Poly):
    """Laurent polynomial in v with q = v^2; rendered in terms of q."""

    __slots__ = ()
    _step = -2

    @staticmethod
    def _var_text(e) -> str:
        if e == 0:
            return ""
        if e % 2 == 0:
            half = e // 2
            return "q" if half == 1 else f"q^{half}"
        return f"q^({e}/2)"


class UnitPoly(_Poly):
    """Polynomial in x, nonnegative exponents only."""

    __slots__ = ()
    _allow_negative = False
    _step = 1

    @staticmethod
    def _var_text(e) -> str:
        if e == 0:
            return ""
        return "x" if e == 1 else f"x^{e}"


def packed_equals(terms, c: int, t: int) -> bool:
    """Whether the sum of mult * z^a * (1 - z)^b over a list of (a, b, mult)
    terms, mult > 0, equals c * z^t, c != 0, as Laurent polynomials in z.

    With a counted from the least of t and every a, level b packs into
    P_b = sum of mult * 2^(W*a), and Horner runs r = r - (r << W) + P_b from
    the top level down: the form at z = 2^W. With W = bits(sum(mult) + |c|)
    + max b + 2, each coefficient of form - target is below 2^(W-1) in size,
    so equal integers mean equal polynomials. A power b < 0 is refused."""
    low, top, total = t, 0, 0
    for a, b, mult in terms:
        total += mult
        if a < low:
            low = a
        if b > top:
            top = b
        elif b < 0:
            return False
    width = (total + abs(c)).bit_length() + top + 2
    levels = [0] * (top + 1)
    for a, b, mult in terms:
        levels[b] += mult << (width * (a - low))
    r = 0
    for packed in reversed(levels):
        r = r - (r << width) + packed
    return r == c << (width * (t - low))


# no fold calls this; it stays while perfbench wraps it (ROADMAP item 5)
def term_x_pow_times_one_minus_x_pow(a: int, b: int) -> UnitPoly:
    """Expansion of x^a * (1-x)^b with exact signed binomial coefficients."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    return UnitPoly.fold_terms({(a, b): 1})
