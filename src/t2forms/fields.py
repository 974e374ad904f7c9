"""Exact arithmetic in towers of finite fields of characteristic two.

Fields are built as chains of extensions starting at GF(2).  A ``Level``
is one field in such a chain.  Its elements are plain Python ints: the
int encodes the coordinate vector over the parent level in base
``2**parent.bits``, recursively, so the bits of an element are its
coordinates over GF(2) in the product basis of the chain generators.
Consequences used throughout the package:

* addition of any two elements of a level is integer xor,
* 0 and 1 are the zero and one of every level,
* an element of a lower level embeds into every level above it with the
  same int value, and membership in a sublevel is ``x < sub.order`` (so
  ``relative_frobenius`` returns such an element untouched).

Two routes for multiplication and inversion, by level:

* a level of order up to 2^11 multiplies and inverts through exp/log
  tables built at construction.  Multiplication by a fixed g is
  GF(2)-linear, so ``bits`` raw products give two lookup tables, over
  the low and the high half of the bits, and the walk 1, g, g^2, ... takes
  two lookups and one xor per step; the first g = 2, 3, ... whose walk
  returns to 1 after exactly order - 1 steps is the generator;
* the raw multiply of every level works in its flat form GF(2)[x]/(m),
  an int of ``bits`` bits per element: a carry-less product reduced by
  m, and a table-free level (such as GF(2^13), GF(8^5) or GF(4^8))
  inverts by extended Euclid on the two ints (von zur Gathen & Gerhard,
  *Modern Computer Algebra*, ch. 3-4).  A level directly over GF(2) is
  its own flat form; a deeper one maps its tower coordinates to the
  flat form and back by two GF(2)-linear chunk tables.

Polynomials over a level are given and returned as trimmed tuples of
element ints, lowest degree first; the zero polynomial is the empty
tuple.  Inside, every finite level has one polynomial arithmetic,
:class:`PolyRing`: a polynomial is one int with a ``bits``-bit chunk per
coefficient, the layout of ``linalg.PackedRows``, so GF(2)[x] (the
``gf2x_`` section, bit i the coefficient of x^i) is its case bits = 1.
``poly_mul``, ``poly_divmod``, ``poly_mod`` and ``poly_gcd`` convert
through it over any ``Level``, and the irreducibility scan, the factor
witness and ``rational``'s fractions run on it throughout.  The helpers
are duck-typed over their field argument, so over a field that is not a
``Level``, such as a ``rational.FunctionField`` coefficient field, they
run their coefficient-tuple loops.
"""

from __future__ import annotations

import operator
import re

from . import linalg

_TABLE_LIMIT = 1 << 11  # exp/log tables are built for orders up to this
# a parsed power p^e or product p*q of degree above this is refused
# before it is built; no claim or test writes a degree near it
_MAX_PARSED_DEGREE = 1 << 10


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class RejectsReducible(FieldError):
    """A defining polynomial has a proper factor.

    The witness pair ``factors`` multiplies back to the rejected
    polynomial (both are coefficient tuples over the base level).
    """

    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors


class NotAPower(FieldError):
    """A polynomial is not the expected n-th power."""


class UnknownGenerator(FieldError):
    """An element expression refers to a name the tower does not define."""


class Level:
    """One finite field in an extension chain starting at GF(2).

    Never instantiated directly: use the module constant ``GF2`` and
    :meth:`extend`.  A level's arithmetic never changes after
    construction, but the verification harness attaches its memo,
    ``_tensor_cache``, to it: tensor forms and matrix Witt classes on a
    base field, crossed-product Witt classes on an extension.  A pickle
    or copy of the level leaves the memo out.
    """

    is_finite = True

    def __init__(self, parent, poly=None, gen_name=None, *, _irreducible=False):
        # _irreducible: the caller has just proved poly irreducible over
        # parent (find_irreducible's scan, or an Artin-Schreier solve that
        # found no root of a quadratic), so the witness is not run again
        self.parent = parent
        if parent is None:
            self.poly = None
            self._flat = (2, int, int)  # GF(2) is GF(2)[x]/(x); int(v) is v
            self.gen_name = None
            self.rel_degree = 1
            self.bits = 1
            self.gen = 1
        else:
            poly = poly_trim(poly)
            if len(poly) < 3 or poly[-1] != 1:
                raise FieldError("defining polynomial must be monic of degree >= 2")
            if gen_name is None or not gen_name.isidentifier():
                raise FieldError("extension needs an identifier generator name")
            if gen_name in parent.gen_map():
                raise FieldError(f"generator name {gen_name!r} already used in tower")
            witness = None if _irreducible else poly_factor_witness(parent, poly)
            if witness is not None:
                g, h = witness
                raise RejectsReducible(
                    f"{poly_to_str(parent, poly, gen_name)} is reducible: "
                    f"({poly_to_str(parent, g, gen_name)})"
                    f"*({poly_to_str(parent, h, gen_name)})",
                    factors=witness,
                )
            self.poly = tuple(poly)
            # over GF(2) the level is its own flat form, theta = gen
            self._flat = (gf2x_from_poly(poly), int, int) if parent.parent is None else None
            self.gen_name = gen_name
            self.rel_degree = len(poly) - 1
            self.bits = parent.bits * self.rel_degree
            self.gen = 1 << parent.bits
        self.order = 1 << self.bits
        self.zero = 0
        self.one = 1
        self._exp = None
        self._log = None
        self._nonresidue = None
        self._trace_mask = None
        self._sqrt_map = None
        self._as_solver = None
        self._poly_ring = None
        self._signature = (
            (None,) if parent is None else parent._signature + (self.poly, self.gen_name)
        )
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # -- construction -------------------------------------------------

    def extend(self, poly, name=None, *, _irreducible=False):
        """Return a new level on top of this one.

        ``poly`` is either a coefficient tuple over this level (lowest
        degree first, including the leading 1) with an explicit ``name``,
        or a string such as ``"b^3+b+a"`` whose single new identifier
        names the generator.  Raises :class:`RejectsReducible` with a
        factorization witness if the polynomial is not irreducible.
        """
        if isinstance(poly, str):
            var, coeffs = parse_poly(self, poly)
            if name is not None and name != var:
                raise FieldError(f"polynomial variable {var!r} does not match name {name!r}")
            return Level(self, coeffs, var)
        if name is None:
            name = fresh_gen_name(self)
        return Level(self, tuple(poly), name, _irreducible=_irreducible)

    def ancestors(self):
        """The chain of levels from this one down to GF(2)."""
        out = []
        lvl = self
        while lvl is not None:
            out.append(lvl)
            lvl = lvl.parent
        return out

    def is_extension_of(self, sub):
        # the signatures of the ancestors are the prefixes of this one's
        if not isinstance(sub, Level):
            return False
        return self._signature[: len(sub._signature)] == sub._signature

    def gen_map(self):
        """Mapping of generator names to their elements at this level."""
        out = {}
        for lvl in self.ancestors():
            if lvl.gen_name is not None:
                out[lvl.gen_name] = lvl.gen
        return out

    def spec_string(self):
        """The ``extend(...)`` expression that rebuilds this level."""
        if self.parent is None:
            return "GF2"
        inner = self.parent.spec_string()
        return f'extend({inner},"{poly_to_str(self.parent, self.poly, self.gen_name)}")'

    # -- tables --------------------------------------------------------

    def _build_tables(self):
        """exp/log tables of the first generator g = 2, 3, ... of the
        multiplicative group.  x -> x*g is GF(2)-linear, so the images
        of the basis bits under it, xor-summed over each half of x's
        bits, make two lookup tables, and a step of the walk from 1 is
        two lookups and one xor.  The walk of g returns to 1 after the
        order of g; the first walk of length order - 1 is the exp table."""
        n = self.order - 1
        if n == 1:
            self._exp = [1]
            self._log = [0, 0]
            return
        half = self.bits // 2
        mask = (1 << half) - 1
        for g in range(2, self.order):
            images = [self._mul_raw(1 << i, g) for i in range(self.bits)]
            low, high = linalg.linear_table(images[:half]), linalg.linear_table(images[half:])
            exp = [1]
            cur = g
            while cur != 1:
                exp.append(cur)
                cur = low[cur & mask] ^ high[cur >> half]
            if len(exp) == n:
                break
        assert len(exp) == n
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def _flat_form(self):
        """(m, to, fro) of a level whose parent is not GF(2), built on the
        first raw multiply: the level is GF(2)[x]/(m) with x = theta, the
        first of gen, gen + 1, ... whose powers below theta^bits are
        GF(2)-independent, and m is x^bits plus the solve of theta^bits in
        them.  ``to`` maps flat to tower coordinates, ``fro`` back."""
        n, par = self.bits, self.parent
        for theta in range(self.gen, self.order):
            images, p = [1], (1,)
            while len(images) <= n:
                p = poly_mod(par, poly_mul(par, p, self.coeffs(theta)), self.poly)
                images.append(self.from_coeffs(p))
            solver = linalg.GF2Solver(linalg.rows_from_images(images[:n], n), n)
            if not solver.checks:
                break
        fro = linalg.linear_map([solver.solve(1 << i) for i in range(n)])
        self._flat = ((1 << n) | solver.solve(images[n]), linalg.linear_map(images[:n]), fro)
        return self._flat

    def _mul_raw(self, x, y):
        m, to, fro = self._flat or self._flat_form()
        return to(gf2x_divmod(gf2x_mul(fro(x), fro(y)), m)[1])

    def _pow_raw(self, x, e):
        r = 1
        b = x
        while e:
            if e & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return r

    # -- arithmetic ----------------------------------------------------

    def add(self, x, y):
        return x ^ y

    sub = add  # characteristic two

    def mul(self, x, y):
        if self._log is not None:
            if x == 0 or y == 0:
                return 0
            n = self.order - 1
            return self._exp[(self._log[x] + self._log[y]) % n]
        return self._mul_raw(x, y)

    def square(self, x):
        return self.mul(x, x)

    frobenius = square

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            n = self.order - 1
            return self._exp[(-self._log[x]) % n]
        return self._inv_euclid(x)

    def _inv_euclid(self, x):
        """Inverse by extended Euclid on x and m in the flat form."""
        m, to, fro = self._flat or self._flat_form()
        g, s = gf2x_xgcd(fro(x), m)
        assert g == 1
        return to(s)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, e):
        if e < 0:
            return self.inv(self.pow(x, -e))
        if self._log is not None and x != 0:
            n = self.order - 1
            return self._exp[(self._log[x] * e) % n]
        return self._pow_raw(x, e)

    def sqrt(self, x):
        """Inverse of the Frobenius map, GF(2)-linear: a ``linalg.linear_map``
        of the roots of the basis bits, built on the first call."""
        if self._sqrt_map is None:
            e = self.order // 2
            self._sqrt_map = linalg.linear_map([self.pow(1 << i, e) for i in range(self.bits)])
        return self._sqrt_map(x)

    def is_zero(self, x):
        return x == 0

    def trace(self, x):
        """Absolute trace down to GF(2), returned as 0 or 1.

        The trace is GF(2)-linear, so it is the parity of the bits of x
        under a mask whose bit i is the trace of 1 << i, built on the
        first call (most levels of a tower never take a trace)."""
        if self._trace_mask is None:
            mask = 0
            for i in range(self.bits):
                acc = y = 1 << i
                for _ in range(self.bits - 1):
                    y = self.square(y)
                    acc ^= y
                assert acc in (0, 1)
                mask |= acc << i
            self._trace_mask = mask
        return (x & self._trace_mask).bit_count() & 1

    def artin_schreier_solve(self, c):
        """A solution of x**2 + x = c, or None when there is none.

        The squaring map is GF(2)-linear, so the equation is solved as a
        linear system over the bit coordinates.  Its echelon form and row
        transform are built on the first call, the same way as the trace
        mask; every solve after that is ``bits`` parities.
        """
        if self._as_solver is None:
            # unknown bit i maps to e_i^2 + e_i
            n = self.bits
            images = [self.square(1 << i) ^ (1 << i) for i in range(n)]
            self._as_solver = linalg.GF2Solver(linalg.rows_from_images(images, n), n)
        sol = self._as_solver.solve(c)
        if sol is None:
            return None
        assert self.square(sol) ^ sol == c
        return sol

    def poly_ring(self):
        """The polynomials over this level (:class:`PolyRing`), built on
        the first call, as the trace mask is."""
        if self._poly_ring is None:
            self._poly_ring = PolyRing(self)
        return self._poly_ring

    def wp_member(self, c):
        """Whether c lies in {x**2 + x}, the Artin-Schreier subgroup."""
        return self.trace(c) == 0

    def nonresidue(self):
        """Canonical element outside {x**2+x}: the first power of the
        multiplicative generator (starting at 1) with absolute trace 1."""
        if self._nonresidue is None:
            if self._exp is None:
                raise FieldError("nonresidue needs a table-backed field")
            for v in self._exp:
                if self.trace(v) == 1:
                    self._nonresidue = v
                    break
        return self._nonresidue

    def wp_class_rep(self, c):
        """Canonical representative of c modulo {x**2+x}: 0 or the
        canonical nonresidue."""
        return 0 if self.wp_member(c) else self.nonresidue()

    # -- coordinates ---------------------------------------------------

    def coeffs(self, x):
        """Coordinates of x over the parent level, lowest first."""
        if self.parent is None:
            return (x,)
        pb = self.parent.bits
        mask = (1 << pb) - 1
        return tuple((x >> (pb * i)) & mask for i in range(self.rel_degree))

    def from_coeffs(self, cs):
        pb = self.parent.bits if self.parent else 1
        v = 0
        for i, c in enumerate(cs):
            v |= c << (pb * i)
        return v

    def degree_over(self, sub):
        if not self.is_extension_of(sub):
            raise FieldError("not an extension of the given level")
        return self.bits // sub.bits

    def coords_over(self, sub, x):
        """Coordinates of x in the product basis of this level over sub,
        lowest first: its ``sub.bits``-bit chunks."""
        n = self.degree_over(sub)
        sb = sub.bits
        mask = (1 << sb) - 1
        return tuple((x >> (sb * i)) & mask for i in range(n))

    def basis_over(self, sub):
        """The product basis of this level over sub; its first vector is 1."""
        sb = sub.bits
        return [1 << (sb * t) for t in range(self.degree_over(sub))]

    def relative_frobenius(self, sub, x, power=1):
        """x raised to |sub| ** power, a generator of Gal(self/sub).  It
        fixes sub, whose elements are exactly the x < sub.order."""
        n = self.degree_over(sub)
        if x < sub.order:
            return x
        e = power % n
        y = x
        for _ in range(e * sub.bits):
            y = self.square(y)
        return y

    def elements(self):
        if self.order > _TABLE_LIMIT * 8:
            raise FieldError("refusing to enumerate a large field")
        return range(self.order)

    def random_element(self, rng):
        return rng.randrange(self.order)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.order)

    # -- text ----------------------------------------------------------

    def show(self, x):
        """Render an element in the generator names, e.g. ``a+1``."""
        if self.parent is None:
            return str(x & 1)
        return poly_to_str(self.parent, self.coeffs(x), self.gen_name)

    def parse(self, text):
        """Parse an element expression in the tower's generator names."""
        var, coeffs = parse_poly(self, text, allow_new=False)
        assert var is None
        if len(coeffs) > 1:
            raise UnknownGenerator("expression does not reduce to a single element")
        return coeffs[0] if coeffs else 0

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_tensor_cache", None)
        return state

    def __eq__(self, other):
        return isinstance(other, Level) and self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        names = ",".join(n for n in reversed([l.gen_name for l in self.ancestors()]) if n)
        if names:
            return f"GF(2^{self.bits})({names})"
        return f"GF(2^{self.bits})" if self.bits > 1 else "GF(2)"


GF2 = Level(None)


def fresh_gen_name(level):
    used = set(level.gen_map())
    for ch in "abcdefghijklmnopqrstuvwxyz":
        if ch not in used and ch not in ("x", "t"):
            return ch
    raise FieldError("ran out of generator names")


# -- GF(2)[x] packed in ints -------------------------------------------
#
# Bit i of the int is the coefficient of x^i, so addition is xor.  These
# are :class:`PolyRing` over GF2, the case of one bit per coefficient, and
# the flat form of every level (element and mask are such ints).

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def gf2x_from_poly(p):
    """The int of a coefficient sequence over GF(2), trimmed or not."""
    return int(bytes(p).translate(_TO_DIGITS)[::-1] or b"0", 2)


def gf2x_to_poly(a):
    """The trimmed coefficient tuple of an int polynomial."""
    return tuple(bin(a)[:1:-1].encode().translate(_FROM_DIGITS)) if a else ()


def gf2x_deg(a):
    return a.bit_length() - 1


def gf2x_mul(a, b):
    """Carry-less product: a shifted copy of a per set bit of b."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2x_square(a):
    """a^2 by bit spreading: squaring is additive, so bit i goes to 2i."""
    return int("0".join(bin(a)[2:]), 2)


def gf2x_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b: the top bit of a is
    cleared with a shifted copy of b until the degree drops below b's."""
    nb = b.bit_length()
    if not nb:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    shift = a.bit_length() - nb
    while shift >= 0:
        q ^= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - nb
    return q, a


def gf2x_gcd(a, b):
    while b:
        a, b = b, gf2x_divmod(a, b)[1]
    return a


def gf2x_xgcd(a, m):
    """(g, s) with g = gcd(a, m) and s a = g mod m: s * a = r mod m holds
    for both rows of the Euclid steps."""
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1:
        q, r = gf2x_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ gf2x_mul(q, s1)
    return r0, s0


class PolyRing:
    """The polynomials over a finite level, each one int with a
    ``bits``-bit chunk per coefficient, lowest degree in the lowest
    chunk (the layout of ``linalg.PackedRows``); ``read`` takes a
    coefficient sequence, trimmed or not, and ``write`` gives the trimmed
    tuple back.

    ``add`` is xor; ``square`` puts the square of chunk i at chunk 2i;
    ``mul`` xors a scaled, shifted copy of one operand per chunk of the
    other; ``divmod`` clears the top chunk with a shifted copy of c*d.
    The multiples c*d of a divisor live as long as one division, or as
    the reducer ``mod_by(d)`` its caller holds for a scan, so there are
    at most 2^bits - 1 of them per divisor and none on the level.
    ``gcd`` is monic.  Over ``GF2`` (bits = 1) the operations are the
    ``gf2x_`` routines.  Each level builds its ring once
    (:meth:`Level.poly_ring`)."""

    def __init__(self, level):
        self.level = level
        self.bits = level.bits
        self._mask = level.order - 1
        self._ones = 1  # bit 0 of each chunk, as many chunks as scaled
        self.one, self.x = 1, level.order
        self.add = operator.xor
        if self.bits == 1:
            self.read, self.write = gf2x_from_poly, gf2x_to_poly
            self.deg, self.mul, self.square = gf2x_deg, gf2x_mul, gf2x_square
            self.divmod, self.gcd, self.mod_by = gf2x_divmod, gf2x_gcd, _gf2x_mod_by

    def read(self, p):
        return linalg.pack_row(self.level, p)

    def write(self, a):
        b, m = self.bits, self._mask
        return tuple((a >> s) & m for s in range(0, a.bit_length(), b))

    def deg(self, a):
        return (a.bit_length() - 1) // self.bits

    def lead(self, a):
        return a >> (self.deg(a) * self.bits)

    def scale(self, c, a):
        """c a, each chunk of a times the element c.  That is GF(2)-linear
        in the chunk, so bit k of every chunk adds c e_k, e_k = 1 << k:
        (a >> k) & ones has a 0 or 1 in each chunk, and its integer
        product with c e_k puts c e_k in the chunks of the ones, with no
        carry.  ``bits`` field products per scaling, whatever deg a."""
        if c == 1:
            return a
        ones = self._ones
        if a.bit_length() > ones.bit_length():
            chunks = a.bit_length() // self.bits + 1
            ones = self._ones = ((1 << (chunks * self.bits)) - 1) // self._mask
        mul = self.level.mul
        r = 0
        for k in range(self.bits):
            r ^= ((a >> k) & ones) * mul(c, 1 << k)
        return r

    def mul(self, a, d):
        if a.bit_length() < d.bit_length():
            a, d = d, a
        b, m = self.bits, self._mask
        r = s = 0
        while d:
            if d & m:
                r ^= self.scale(d & m, a) << s
            d >>= b
            s += b
        return r

    def square(self, a):
        mul, b, m = self.level.mul, self.bits, self._mask
        r = s = 0
        while a:
            c = a & m
            if c:
                r |= mul(c, c) << s
            a >>= b
            s += 2 * b
        return r

    def divmod(self, a, d):
        """(q, r) with a = q d + r and deg r < deg d."""
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        return self._reduce(a, d, self.level.inv(self.lead(d)), {})

    def mod_by(self, d):
        """a -> a mod d, one reducer per divisor: the multiples of d it
        has made serve every later reduction by it."""
        lead_inv, multiples = self.level.inv(self.lead(d)), {}
        return lambda a: self._reduce(a, d, lead_inv, multiples)[1]

    def _reduce(self, a, d, lead_inv, multiples):
        # multiples maps a top chunk t to (c, c d), c = t / lead(d), so
        # that a ^ (c d << s) has no chunk at t's place
        b = self.bits
        top = (d.bit_length() - 1) // b * b
        q = 0
        s = (a.bit_length() - 1) // b * b - top
        while s >= 0:
            t = a >> (top + s)
            pair = multiples.get(t)
            if pair is None:
                c = t if lead_inv == 1 else self.level.mul(t, lead_inv)
                pair = multiples[t] = (c, self.scale(c, d))
            q |= pair[0] << s
            a ^= pair[1] << s
            s = (a.bit_length() - 1) // b * b - top
        return q, a

    def gcd(self, a, d):
        inv = self.level.inv
        while d:
            a, d = d, self._reduce(a, d, inv(self.lead(d)), {})[1]
        return self.scale(inv(self.lead(a)), a) if a else a


def _gf2x_mod_by(d):
    return lambda a: gf2x_divmod(a, d)[1]


# -- polynomials -------------------------------------------------------


def poly_trim(p):
    p = tuple(p)
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def poly_deg(p):
    return len(p) - 1


def poly_add(field, p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = field.add(out[i], c)
    return poly_trim(out)


def poly_scale(field, c, p):
    if field.is_zero(c):
        return ()
    return poly_trim(tuple(field.mul(c, x) for x in p))


def poly_mul(field, p, q):
    if isinstance(field, Level):
        R = field.poly_ring()
        return R.write(R.mul(R.read(p), R.read(q)))
    if not p or not q:
        return ()
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if field.is_zero(a):
            continue
        for j, b in enumerate(q):
            if not field.is_zero(b):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return poly_trim(out)


def poly_pow(field, p, n):
    r = (field.one,)
    b = p
    while n:
        if n & 1:
            r = poly_mul(field, r, b)
        b = poly_mul(field, b, b)
        n >>= 1
    return r


def poly_divmod(field, p, q):
    if isinstance(field, Level):
        R = field.poly_ring()
        quot, rem = R.divmod(R.read(p), R.read(q))
        return R.write(quot), R.write(rem)
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    mul, add, is_zero = field.mul, field.add, field.is_zero
    r = list(poly_trim(p))
    dq = poly_deg(q)
    lead_inv = field.inv(q[-1])
    # the leading term cancels by construction; zero terms change nothing
    low = [(i, qc) for i, qc in enumerate(q[:-1]) if not is_zero(qc)]
    quot = [field.zero] * max(0, len(r) - dq)
    while len(r) > dq:
        k = len(r) - 1 - dq
        c = mul(r.pop(), lead_inv)
        quot[k] = c
        for i, qc in low:
            r[k + i] = add(r[k + i], mul(c, qc))
        while r and is_zero(r[-1]):
            r.pop()
    return poly_trim(quot), poly_trim(r)


def poly_mod(field, p, q):
    return poly_divmod(field, p, q)[1]


def poly_monic(field, p):
    p = poly_trim(p)
    if not p or p[-1] == field.one:
        return p
    return poly_scale(field, field.inv(p[-1]), p)


def poly_gcd(field, p, q):
    if isinstance(field, Level):
        R = field.poly_ring()
        return R.write(R.gcd(R.read(p), R.read(q)))
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_mod(field, a, b)
    return poly_monic(field, a)


def poly_eval(field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_factor_witness(field, p):
    """A nontrivial monic factorization (g, h) of p, or None if p is
    irreducible.

    The first nontrivial g_k of :func:`_distinct_degree_scan` holds the
    factors of the least degree k, and g is the one among them with the
    least coefficient tuple (c_0, ..., c_(k-1)): the divisor that trial
    division over the monic polynomials of degree k, in that order, meets
    first.  No field element is enumerated, so levels of any size are
    accepted.  The scan and the split run in the field's ring
    (:class:`PolyRing` over a level)."""
    ring = field.poly_ring()
    p = ring.read(poly_monic(field, p))
    found = _distinct_degree_scan(field, ring, p)
    if found is None:
        return None
    g = min(_equal_degree_factors(field, ring, found[1], found[0]), key=ring.write)
    return ring.write(g), ring.write(ring.divmod(p, g)[0])


def _distinct_degree_scan(field, ring, p):
    """(k, g_k) for the first nontrivial g_k, or None if the monic p (in
    ring form) is irreducible.

    Ben-Or's form of Rabin's test: for k = 1, 2, ..., deg(p)/2, h_k =
    x^(q^k) mod p and g_k = gcd(h_k - x, p) is the product of the
    distinct monic irreducible factors of p whose degree divides k."""
    n = ring.deg(p)
    if n < 2:  # no k to scan, and no reducer for p = 0
        return None
    x, square, mod_p = ring.x, ring.square, ring.mod_by(p)
    h = x
    for k in range(1, n // 2 + 1):
        for _ in range(field.bits):  # h^q, q = 2^bits
            h = mod_p(square(h))
        g = ring.gcd(p, ring.add(h, x))
        if g != ring.one:
            return k, g
    return None


def _equal_degree_factors(field, ring, g, k):
    """The monic irreducible factors of g, a product of distinct monic
    irreducibles of degree k (char-2 equal-degree splitting).

    Modulo each factor f, T(a) = sum_(i < k*bits) a^(2^i) is the
    absolute trace of a in F[x]/(f) = GF(2^(k*bits)), a constant 0 or 1,
    so gcd(T(a), piece) splits a piece by that value.  a runs over c*x^j
    for c in the GF(2)-basis 1 << i of the field and 1 <= j < deg(g).
    With the constants, whose trace is the same modulo every factor,
    these span F[x]/(g) over GF(2), and the trace form of each factor is
    nondegenerate, so every pair of factors is parted by some a.  No
    random draw is made."""
    deg = ring.deg
    pieces = [g]
    for j in range(1, deg(g)):
        for i in range(field.bits):
            if all(deg(f) == k for f in pieces):
                return pieces
            a = ring.read((field.zero,) * j + (1 << i,))
            pieces = [s for f in pieces for s in _trace_split(field, ring, f, a, k)]
    assert all(deg(f) == k for f in pieces)
    return pieces


def _trace_split(field, ring, f, a, k):
    """f split by the value of T(a) modulo its factors: one or two pieces."""
    deg = ring.deg
    if deg(f) == k:
        return [f]
    mod_f = ring.mod_by(f)
    y = t = mod_f(a)
    for _ in range(k * field.bits - 1):
        y = mod_f(ring.square(y))
        t = ring.add(t, y)
    s = ring.gcd(f, t)
    if 0 < deg(s) < deg(f):
        return [s, ring.divmod(f, s)[0]]
    return [f]


def poly_is_irreducible(field, p):
    """The distinct-degree scan alone: no witness is split out."""
    if poly_deg(p) < 1:
        return False
    ring = field.poly_ring()
    return _distinct_degree_scan(field, ring, ring.read(poly_monic(field, p))) is None


def poly_factorize(field, p):
    """Full monic factorization as a list of (irreducible, multiplicity)
    pairs, by recursive splitting at the factor witness."""
    p = poly_monic(field, p)
    if poly_deg(p) < 1:
        return []
    witness = poly_factor_witness(field, p)
    if witness is None:
        return [(p, 1)]
    g, h = witness
    combined = {}
    for fac, mult in poly_factorize(field, g) + poly_factorize(field, h):
        combined[fac] = combined.get(fac, 0) + mult
    return sorted(combined.items())


def linear_factor_roots(field, p):
    """All roots in the coefficient field, with multiplicity and in
    ascending order, read off the linear factors x + c of the full
    factorization (the root is c in characteristic two).  No field
    element is enumerated."""
    roots = []
    for fac, mult in poly_factorize(field, p):
        if poly_deg(fac) == 1:
            roots.extend([fac[0]] * mult)
    return roots


def monic_divisors(field, p):
    """All monic divisors of p, including 1 and p itself."""
    factors = poly_factorize(field, p)
    divisors = [(field.one,)]
    for fac, mult in factors:
        new = []
        for d in divisors:
            cur = d
            for _ in range(mult + 1):
                new.append(cur)
                cur = poly_mul(field, cur, fac)
        divisors = new
    # deduplicate (repeated factors produce repeats)
    seen = []
    for d in divisors:
        if d not in seen:
            seen.append(d)
    return seen


def find_irreducible(field, degree, rng):
    """Random monic irreducible polynomial of the given degree."""
    if degree < 1:
        raise FieldError(f"no irreducible polynomial of degree {degree}: degree must be >= 1")
    while True:
        coeffs = tuple(field.random_element(rng) for _ in range(degree)) + (field.one,)
        if poly_is_irreducible(field, coeffs):
            return poly_trim(coeffs)


def poly_sqrt(field, p):
    """The square root of a polynomial that is an exact square."""
    p = poly_trim(p)
    if not p:
        return ()
    if any(c and i % 2 for i, c in enumerate(p)):
        raise NotAPower("odd-degree coefficient present, not a square")
    return poly_trim(tuple(field.sqrt(c) for c in p[::2]))


def poly_nth_root(field, p, n):
    """The unique monic q with q**n == p, for monic p.

    Write n = 2**s * u with u odd.  The 2-power part is undone by
    coefficient-wise Frobenius inverses on the x**(2**s)-supported
    polynomial; the odd part by top-down coefficient recursion, which is
    solvable because u is odd (so u equals 1 in the field).
    Raises :class:`NotAPower` when either structural stage fails.
    """
    p = poly_trim(p)
    if n <= 0:
        raise ValueError("n must be positive")
    if not p or p[-1] != field.one:
        raise NotAPower("input must be monic")
    if (len(p) - 1) % n:
        raise NotAPower("degree not divisible by n")
    if n == 1:
        return p
    s = 0
    u = n
    while u % 2 == 0:
        s += 1
        u //= 2
    r = p
    for _ in range(s):
        r = poly_sqrt(field, r)
    if u == 1:
        return r
    d = poly_deg(r) // u
    q = [field.zero] * d + [field.one]
    for j in range(1, d + 1):
        cur = poly_pow(field, tuple(q), u)
        diff = poly_add(field, r, cur)
        idx = u * d - j
        q[d - j] = diff[idx] if idx < len(diff) else field.zero
    q = poly_trim(q)
    if poly_pow(field, q, u) != r:
        raise NotAPower("polynomial is not an exact power")
    return q


# -- parsing and rendering ----------------------------------------------

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*)|(\d+)|([\^\*\+\(\)]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise FieldError(f"bad character in expression: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            out.append(("name", m.group(1)))
        elif m.group(2):
            out.append(("int", int(m.group(2))))
        else:
            out.append((m.group(3), None))
    out.append(("end", None))
    return out


def parse_poly(level, text, allow_new=True):
    """Parse an expression over the level's generators.

    At most one identifier may be new; it becomes the polynomial
    variable.  Returns ``(var_name_or_None, coefficient_tuple)`` with
    coefficients as level elements, lowest degree first.
    """
    gens = level.gen_map()
    tokens = _tokenize(text)
    state = {"pos": 0, "var": None}

    def peek():
        return tokens[state["pos"]]

    def advance():
        state["pos"] += 1

    def parse_expr():
        val = parse_term()
        while peek()[0] == "+":
            advance()
            val = poly_add(level, val, parse_term())
        return val

    def parse_term():
        val = parse_factor()
        while peek()[0] == "*":
            advance()
            rhs = parse_factor()
            if poly_deg(val) + poly_deg(rhs) > _MAX_PARSED_DEGREE:
                raise FieldError(
                    f"product of degree {poly_deg(val) + poly_deg(rhs)} "
                    f"above the limit {_MAX_PARSED_DEGREE}"
                )
            val = poly_mul(level, val, rhs)
        return val

    def parse_factor():
        val = parse_atom()
        if peek()[0] == "^":
            advance()
            kind, num = peek()
            if kind != "int":
                raise FieldError("exponent must be an integer literal")
            advance()
            if poly_deg(val) * num > _MAX_PARSED_DEGREE:
                raise FieldError(
                    f"exponent {num} gives degree {poly_deg(val) * num}, "
                    f"above the limit {_MAX_PARSED_DEGREE}"
                )
            val = poly_pow(level, val, num)
        return val

    def parse_atom():
        kind, data = peek()
        if kind == "(":
            advance()
            val = parse_expr()
            if peek()[0] != ")":
                raise FieldError("unbalanced parenthesis")
            advance()
            return val
        if kind == "int":
            advance()
            if data not in (0, 1):
                raise FieldError("integer literals must be 0 or 1 in characteristic two")
            return (data,) if data else ()
        if kind == "name":
            advance()
            if data in gens:
                return (gens[data],)
            if not allow_new:
                raise UnknownGenerator(f"unknown generator {data!r}")
            if state["var"] is None:
                state["var"] = data
            elif state["var"] != data:
                raise FieldError(f"two unknown names {state['var']!r} and {data!r}")
            return (level.zero, level.one)
        raise FieldError("expected a value")

    value = parse_expr()
    if peek()[0] != "end":
        raise FieldError("trailing input in expression")
    return state["var"], poly_trim(value)


def poly_to_str(field, p, var):
    p = poly_trim(p)
    if not p:
        return "0"
    terms = []
    for i in reversed(range(len(p))):
        c = p[i]
        if field.is_zero(c):
            continue
        cs = field.show(c) if hasattr(field, "show") else str(c)
        if i == 0:
            terms.append(cs)
            continue
        head = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            terms.append(head)
        elif "+" in cs:
            terms.append(f"{head}*({cs})")
        else:
            terms.append(f"{head}*{cs}")
    return "+".join(terms)
