"""Rational function fields F_{2^k}(t), a feature-gated coefficient
backend.

Only what the Artin-Schreier membership test and the Galois obstruction
need: exact field arithmetic, perfect-square detection for denominators,
and membership in {u**2 + u} decided by linearizing the semilinear
equation s**2 + s*r = numerator over the prime field.

``FunctionField.make`` reduces an arbitrary fraction by a full gcd.
``add`` and ``mul`` take operands already in lowest terms and return
lowest terms without one, by Henrici's formulas (Knuth, TAOCP vol. 2,
section 4.5.1): only gcds of a numerator against the other denominator,
or of the two denominators, are taken, and none when a denominator is 1,
so sums and products of polynomials take no gcd at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fields, linalg
from .fields import poly_add, poly_deg, poly_divmod, poly_gcd, poly_mod, poly_mul
from .fields import poly_monic, poly_scale, poly_sqrt, poly_to_str, poly_trim


@dataclass(frozen=True)
class Rat:
    """A rational function in lowest terms with monic denominator."""

    num: tuple
    den: tuple


class FunctionField:
    """F_{2^k}(t) for a finite coefficient level."""

    is_finite = False

    def __init__(self, coeff_level, var="t"):
        self.coeff = coeff_level
        self.var = var
        self.zero = Rat((), (coeff_level.one,))
        self.one = Rat((coeff_level.one,), (coeff_level.one,))
        self.t = Rat((coeff_level.zero, coeff_level.one), (coeff_level.one,))

    def make(self, num, den=None):
        k = self.coeff
        num = poly_trim(num)
        den = poly_trim(den) if den is not None else (k.one,)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        g = poly_gcd(k, num, den)
        if poly_deg(g) > 0:
            num = poly_divmod(k, num, g)[0]
            den = poly_divmod(k, den, g)[0]
        lead = den[-1]
        if lead != k.one:
            inv = k.inv(lead)
            num = poly_scale(k, inv, num)
            den = poly_scale(k, inv, den)
        return Rat(num, den)

    def is_zero(self, x):
        return not x.num

    def add(self, x, y):
        k = self.coeff
        b, d = x.den, y.den
        g = (k.one,) if (k.one,) in (b, d) else poly_gcd(k, b, d)
        if poly_deg(g) == 0:
            num = poly_add(k, poly_mul(k, x.num, d), poly_mul(k, y.num, b))
            return Rat(num, poly_mul(k, b, d)) if num else self.zero
        # b = g b', d = g d': a/b + c/d = (a d' + c b') / (g b' d'), and a
        # factor the new numerator t shares with that denominator divides g
        b1, d1 = _quo(k, b, g), _quo(k, d, g)
        t = poly_add(k, poly_mul(k, x.num, d1), poly_mul(k, y.num, b1))
        if not t:
            return self.zero
        g2 = poly_gcd(k, t, g)
        return Rat(_quo(k, t, g2), poly_mul(k, b1, _quo(k, d, g2)))

    sub = add  # characteristic two

    def neg(self, x):
        return x

    def mul(self, x, y):
        # (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)), g1 = gcd(a, d) and
        # g2 = gcd(c, b); a denominator 1 makes its gcd 1
        k = self.coeff
        if not x.num or not y.num:
            return self.zero
        one = (k.one,)
        g1 = one if y.den == one else poly_gcd(k, x.num, y.den)
        g2 = one if x.den == one else poly_gcd(k, y.num, x.den)
        return Rat(
            poly_mul(k, _quo(k, x.num, g1), _quo(k, y.num, g2)),
            poly_mul(k, _quo(k, x.den, g2), _quo(k, y.den, g1)),
        )

    def square(self, x):
        # num and den are coprime, so their squares are too
        k = self.coeff
        return Rat(poly_mul(k, x.num, x.num), poly_mul(k, x.den, x.den))

    def inv(self, x):
        if not x.num:
            raise ZeroDivisionError("inverse of zero")
        # already in lowest terms: only the leading coefficient moves
        k = self.coeff
        c = k.inv(x.num[-1])
        return Rat(poly_scale(k, c, x.den), poly_scale(k, c, x.num))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, e):
        if e < 0:
            return self.inv(self.pow(x, -e))
        r = self.one
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def show(self, x):
        if not x.num:
            return "0"
        num = poly_to_str(self.coeff, x.num, self.var)
        if x.den == (self.coeff.one,):
            return num
        den = poly_to_str(self.coeff, x.den, self.var)
        return f"({num})/({den})"

    def random_element(self, rng, deg=3):
        k = self.coeff
        num = tuple(k.random_element(rng) for _ in range(deg + 1))
        den = tuple(k.random_element(rng) for _ in range(deg)) + (k.one,)
        return self.make(num, den)

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.coeff == other.coeff

    def __hash__(self):
        return hash(("FunctionField", self.coeff))

    def __repr__(self):
        return f"{self.coeff!r}({self.var})"


def _quo(k, p, g):
    """p / g for a monic divisor g of p."""
    return p if len(g) == 1 else poly_divmod(k, p, g)[0]


def wp_member(ff, c, witness=False):
    """Whether c = u**2 + u for a rational function u.

    If u = s/r in lowest terms then c has denominator exactly r**2, so a
    square denominator is necessary.  With r fixed, s**2 + s*r = num is
    GF(2)-linear in the coefficients of s and is solved by linearization
    over the prime field.  Returns u (or None) when ``witness`` is set.
    """
    k = ff.coeff
    if not c.num:
        return (True, ff.zero) if witness else True
    try:
        r = poly_sqrt(k, c.den)
    except fields.NotAPower:
        return (False, None) if witness else False
    # unknown s with deg s <= deg r + ceil(deg num / 2)
    bound = poly_deg(r) + (poly_deg(c.num) + 1) // 2
    nbits = k.bits
    nunk = (bound + 1) * nbits
    target_deg = max(2 * bound, bound + poly_deg(r), poly_deg(c.num))
    nrows = (target_deg + 1) * nbits
    rows = [0] * nrows
    rhs = 0
    num = list(c.num) + [k.zero] * (target_deg + 1 - len(c.num))
    for d in range(target_deg + 1):
        for b in range(nbits):
            if (num[d] >> b) & 1:
                rhs |= 1 << (d * nbits + b)
    for j in range(bound + 1):
        for b in range(nbits):
            e = 1 << b
            col = j * nbits + b
            # contribution of s_j = e * t^j to s^2: e^2 * t^(2j)
            sq = k.square(e)
            for bb in range(nbits):
                if (sq >> bb) & 1:
                    rows[2 * j * nbits + bb] ^= 1 << col
            # contribution to s*r (may cancel against the square part)
            for i, rc in enumerate(r):
                if rc:
                    prod = k.mul(e, rc)
                    for bb in range(nbits):
                        if (prod >> bb) & 1:
                            rows[(j + i) * nbits + bb] ^= 1 << col
    sol = linalg.solve_gf2(rows, nunk, rhs)
    if sol is None:
        return (False, None) if witness else False
    if not witness:
        return True
    s = []
    for j in range(bound + 1):
        v = 0
        for b in range(nbits):
            if (sol >> (j * nbits + b)) & 1:
                v |= 1 << b
        s.append(v)
    u = ff.make(tuple(s), r)
    check = ff.add(ff.square(u), u)
    assert check == c
    return True, u
