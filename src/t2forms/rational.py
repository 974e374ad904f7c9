"""Rational function fields F_{2^k}(t), a feature-gated coefficient
backend.

Only what the Artin-Schreier membership test and the Galois obstruction
need: exact field arithmetic, perfect-square detection for denominators,
and :func:`semilinear_solve`, which solves s**2 + r*s = target for a
polynomial s of bounded degree as one GF(2)-linear system written by the
packed image of each unknown bit.  Membership in {u**2 + u}
(:func:`wp_member`) is its one caller; the Arf comparison and the cubic
splitting oracle of ``theorems`` both reduce to that membership.

``FunctionField.make`` reduces an arbitrary fraction by a full gcd.
``add`` and ``mul`` take operands already in lowest terms and return
lowest terms without one, by Henrici's formulas (Knuth, TAOCP vol. 2,
section 4.5.1): only gcds of a numerator against the other denominator,
or of the two denominators, are taken, and none when a denominator is 1,
so sums and products of polynomials take no gcd at all.

The fraction formulas are written once against the coefficient level's
``fields.PolyRing``, and a ``Rat`` keeps its numerator and denominator
in that ring's form: one int with a ``bits``-bit chunk per coefficient
of t (over GF(2), bit i the coefficient of t^i), so every product,
division and gcd is shift, xor and per-chunk scaling.  ``make`` is the
only operation that reads caller input, so ``add``, ``mul``, ``square``
and ``inv`` convert nothing; ``Rat.num`` and ``Rat.den`` give trimmed
tuples, built when read.  A monic numerator (every nonzero one over
GF(2)) makes ``inv`` a swap of numerator and denominator.
"""

from __future__ import annotations

from . import fields, linalg
from .fields import poly_deg, poly_scale, poly_sqrt, poly_to_str


class Rat:
    """A rational function in lowest terms with monic denominator.

    Numerator and denominator are kept in the form of ``ring``, the
    polynomial ring of the coefficient level of the field that made the
    fraction (``fields.PolyRing``: packed ints).  ``num`` and ``den``
    read them as trimmed coefficient tuples, and two fractions are equal,
    and hash alike, when those tuples are.  Immutable."""

    __slots__ = ("_num", "_den", "_ring")

    def __init__(self, num, den, ring):
        _set_num(self, num)
        _set_den(self, den)
        _set_ring(self, ring)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Rat.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Rat.{name}")

    def __reduce__(self):
        return Rat, (self._num, self._den, self._ring)

    @property
    def num(self):
        return self._ring.write(self._num)

    @property
    def den(self):
        return self._ring.write(self._den)

    def __eq__(self, other):
        if not isinstance(other, Rat):
            return NotImplemented
        if self._ring is other._ring:
            return self._num == other._num and self._den == other._den
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        """False exactly at zero, as ``FunctionField.is_zero``."""
        return bool(self._num)

    def __repr__(self):
        return f"Rat(num={self.num!r}, den={self.den!r})"


# the slots' own setters, which __setattr__ does not intercept
_set_num, _set_den, _set_ring = Rat._num.__set__, Rat._den.__set__, Rat._ring.__set__


class FunctionField:
    """F_{2^k}(t) for a finite coefficient level."""

    is_finite = False

    def __init__(self, coeff_level, var="t"):
        self.coeff = coeff_level
        self.var = var
        R = self._ring = coeff_level.poly_ring()
        self.zero = Rat(R.read(()), R.one, R)
        self.one = Rat(R.one, R.one, R)
        self.t = Rat(R.x, R.one, R)

    def make(self, num, den=None):
        """The fraction num/den of two coefficient sequences, trimmed or
        not, in lowest terms."""
        k, R = self.coeff, self._ring
        a = R.read(num)
        b = R.read(den) if den is not None else R.one
        if not b:
            raise ZeroDivisionError("zero denominator")
        if not a:
            return self.zero
        g = R.gcd(a, b)
        a, b = _quo(R, a, g), _quo(R, b, g)
        lead = R.lead(b)
        if lead != k.one:
            inv = k.inv(lead)
            a, b = R.scale(inv, a), R.scale(inv, b)
        return Rat(a, b, R)

    def is_zero(self, x):
        return not x._num

    def add(self, x, y):
        R = self._ring
        one = R.one
        a, b, c, d = x._num, x._den, y._num, y._den
        g = one if one in (b, d) else R.gcd(b, d)
        if g == one:
            num = R.add(R.mul(a, d), R.mul(c, b))
            return Rat(num, R.mul(b, d), R) if num else self.zero
        # b = g b', d = g d': a/b + c/d = (a d' + c b') / (g b' d'), and a
        # factor the new numerator t shares with that denominator divides g
        b1, d1 = _quo(R, b, g), _quo(R, d, g)
        t = R.add(R.mul(a, d1), R.mul(c, b1))
        if not t:
            return self.zero
        g2 = R.gcd(t, g)
        return Rat(_quo(R, t, g2), R.mul(b1, _quo(R, d, g2)), R)

    sub = add  # characteristic two

    def mul(self, x, y):
        # (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)), g1 = gcd(a, d) and
        # g2 = gcd(c, b); a denominator 1 makes its gcd 1
        a, b, c, d = x._num, x._den, y._num, y._den
        if not a or not c:
            return self.zero
        R = self._ring
        one, mul = R.one, R.mul
        g1 = one if d == one else R.gcd(a, d)
        g2 = one if b == one else R.gcd(c, b)
        return Rat(mul(_quo(R, a, g1), _quo(R, c, g2)), mul(_quo(R, b, g2), _quo(R, d, g1)), R)

    def square(self, x):
        # num and den are coprime, so their squares are too
        R = self._ring
        return Rat(R.square(x._num), R.square(x._den), R)

    def inv(self, x):
        if not x._num:
            raise ZeroDivisionError("inverse of zero")
        # already in lowest terms: only the leading coefficient moves
        R = self._ring
        c = self.coeff.inv(R.lead(x._num))
        return Rat(R.scale(c, x._den), R.scale(c, x._num), R)

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
        if not x._num:
            return "0"
        num = poly_to_str(self.coeff, x.num, self.var)
        if x._den == self._ring.one:
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


def _quo(R, p, g):
    """p / g for a monic divisor g of p, in the ring R."""
    return p if g == R.one else R.divmod(p, g)[0]


def semilinear_solve(k, r, target, bound):
    """The coefficients of an s in k[t] of degree at most ``bound`` with
    s**2 + r*s = target, or None when there is none; ``r`` and
    ``target`` are coefficient tuples over k.

    The map s -> s**2 + r*s is GF(2)-linear: unknown bit e t^j of s (e a
    bit of k) maps to e**2 t**(2j) + e t**j r, packed with ``k.bits``
    bits per coefficient (``linalg.pack_row``).  Unknowns run by
    (degree, bit) and the free ones are zero.
    """
    nbits = k.bits
    deg = max(2 * bound, bound + poly_deg(r), poly_deg(target))
    # the images of e t^0, one pair (square part, r part) per bit e; a
    # constant packs to itself
    units = [(k.square(1 << b), linalg.pack_row(k, poly_scale(k, 1 << b, r))) for b in range(nbits)]
    images = [
        (s2 << (2 * j * nbits)) ^ (sr << (j * nbits)) for j in range(bound + 1) for s2, sr in units
    ]
    rows = linalg.rows_from_images(images, (deg + 1) * nbits)
    sol = linalg.solve_gf2(rows, len(images), linalg.pack_row(k, target))
    return None if sol is None else linalg.unpack_row(k, sol, bound + 1)


def wp_member(ff, c, witness=False):
    """Whether c = u**2 + u for a rational function u.

    If u = s/r in lowest terms then c has denominator exactly r**2, so a
    square denominator is necessary.  With r fixed, s**2 + s*r = num is
    GF(2)-linear in the coefficients of s (:func:`semilinear_solve`).
    Returns u (or None) when ``witness`` is set.
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
    sol = semilinear_solve(k, r, c.num, bound)
    if sol is None:
        return (False, None) if witness else False
    if not witness:
        return True
    u = ff.make(tuple(sol), r)
    check = ff.add(ff.square(u), u)
    assert check == c
    return True, u
