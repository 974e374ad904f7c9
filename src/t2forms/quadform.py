"""Quadratic forms in characteristic two.

A form is stored extensionally: the values q(e_i) on the basis plus the
polar matrix b(e_i, e_j) of the associated alternating bilinear form.
The single evaluation rule

    q(sum x_i e_i) = sum x_i**2 q(e_i) + sum_{i<j} x_i x_j b(e_i, e_j)

is the source of truth for everything else.  Block decomposition is a
symplectic reduction; over GF(2) it runs on bit-packed rows so that
forms of dimension around a thousand stay cheap.

Forms are treated as immutable after construction (the only mutation is
an internal decomposition cache), so independent forms can be processed
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dfield

from . import linalg


class FormError(ValueError):
    """Base class for quadratic form errors."""


class DimensionMismatch(FormError):
    pass


class FieldMismatch(FormError):
    pass


class SingularForm(FormError):
    pass


class NotFiniteField(FormError):
    pass


class SearchSpaceTooLarge(FormError):
    pass


class DimensionTooLarge(FormError):
    pass


class QuadraticForm:
    """A quadratic form given by diagonal values and a polar matrix.

    ``diag[i]`` is q(e_i); ``polar`` is symmetric with zero diagonal
    (alternating, as forced in characteristic two).  ``basis`` may carry
    the rows that define the form inside an ambient space, for audit; it
    is kept as given.  A validated form copies ``diag`` and ``polar``;
    with ``validate=False`` the lists are neither checked nor copied, so
    the caller hands over freshly built lists.
    """

    def __init__(self, field, diag, polar, basis=None, validate=True):
        self.field = field
        if validate:
            diag = list(diag)
            polar = [list(r) for r in polar]
            if len(polar) != len(diag) or any(len(r) != len(diag) for r in polar):
                raise DimensionMismatch("polar matrix shape does not match diagonal")
            for i in range(len(diag)):
                if not field.is_zero(polar[i][i]):
                    raise FormError("polar matrix must have zero diagonal")
                for j in range(i):
                    if polar[i][j] != polar[j][i]:
                        raise FormError("polar matrix must be symmetric")
        self.diag = diag
        self.polar = polar
        self.dim = len(diag)
        self.basis = basis
        self._decomp = None

    @classmethod
    def binary(cls, field, a, b):
        """The form a x**2 + x y + b y**2."""
        return cls(field, [a, b], [[field.zero, field.one], [field.one, field.zero]])

    @classmethod
    def hyperbolic(cls, field, planes=1):
        q = cls(field, [], [])
        for _ in range(planes):
            q = direct_sum(q, cls.binary(field, field.zero, field.zero))
        return q

    @classmethod
    def diagonal(cls, field, values):
        """Totally quasilinear form with zero polar part."""
        n = len(values)
        return cls(field, list(values), [[field.zero] * n for _ in range(n)])

    def polar_entry(self, i, j):
        return self.polar[i][j]

    def evaluate(self, v):
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        f = self.field
        support = [i for i, x in enumerate(v) if not f.is_zero(x)]
        acc = f.zero
        for i in support:
            acc = f.add(acc, f.mul(f.mul(v[i], v[i]), self.diag[i]))
        for a in range(len(support)):
            i = support[a]
            row = self.polar[i]
            for b in range(a + 1, len(support)):
                j = support[b]
                if not f.is_zero(row[j]):
                    acc = f.add(acc, f.mul(f.mul(v[i], v[j]), row[j]))
        return acc

    def bilinear(self, u, v):
        """The polar form b(u, v) on coordinate vectors."""
        f = self.field
        acc = f.zero
        for i, x in enumerate(u):
            if f.is_zero(x):
                continue
            row = self.polar[i]
            for j, y in enumerate(v):
                if not f.is_zero(y) and not f.is_zero(row[j]):
                    acc = f.add(acc, f.mul(f.mul(x, y), row[j]))
        return acc

    def restricted(self, rows):
        """The form pulled back to the span of the given row vectors.

        Row supports are collected once, so sparse restriction bases
        (hyperplanes, subspace spans) stay cheap at large dimension.  The
        result keeps ``rows`` itself, not a copy, as its ``basis``.
        """
        f = self.field
        sup = [
            [(k, x) for k, x in enumerate(r) if not f.is_zero(x)] for r in rows
        ]
        B = self.polar
        diag = []
        for s in sup:
            acc = f.zero
            for a in range(len(s)):
                k, x = s[a]
                acc = f.add(acc, f.mul(f.mul(x, x), self.diag[k]))
                rowk = B[k]
                for b in range(a + 1, len(s)):
                    l, y = s[b]
                    if not f.is_zero(rowk[l]):
                        acc = f.add(acc, f.mul(f.mul(x, y), rowk[l]))
            diag.append(acc)
        m = len(rows)
        polar = [[f.zero] * m for _ in range(m)]
        for i in range(m):
            si = sup[i]
            for j in range(i + 1, m):
                acc = f.zero
                for k, x in si:
                    rowk = B[k]
                    for l, y in sup[j]:
                        if not f.is_zero(rowk[l]):
                            acc = f.add(acc, f.mul(f.mul(x, y), rowk[l]))
                if not f.is_zero(acc):
                    polar[i][j] = acc
                    polar[j][i] = acc
        return QuadraticForm(f, diag, polar, basis=rows, validate=False)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            raise FormError("scaling by zero")
        diag = [f.mul(c, d) for d in self.diag]
        polar = [[f.mul(c, x) for x in row] for row in self.polar]
        return QuadraticForm(f, diag, polar, validate=False)

    def __repr__(self):
        return f"QuadraticForm(dim={self.dim} over {self.field!r})"


def direct_sum(q1, q2):
    if q1.field != q2.field:
        raise FieldMismatch("forms live over different fields")
    f = q1.field
    n1, n2 = q1.dim, q2.dim
    diag = list(q1.diag) + list(q2.diag)
    polar = [[f.zero] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            polar[i][j] = q1.polar[i][j]
    for i in range(n2):
        for j in range(n2):
            polar[n1 + i][n1 + j] = q2.polar[i][j]
    return QuadraticForm(f, diag, polar, validate=False)


def radical(q):
    """Basis of the radical of the polar form, as coordinate rows."""
    return linalg.kernel(q.field, q.polar, q.dim)


def is_nonsingular(q):
    return block_decompose(q).radical_dim == 0


@dataclass
class Decomposition:
    """Result of the symplectic reduction of a form.

    ``blocks`` are the binary forms [a_i, b_i] with cross coefficient 1;
    ``pairs`` hold the corresponding basis vectors (rows in the original
    coordinates); the radical rows carry their quasilinear diagonal
    values.
    """

    field: object
    blocks: list
    pairs: list
    radical_rows: list
    radical_diag: list

    @property
    def radical_dim(self):
        return len(self.radical_rows)


def block_decompose(q):
    if q._decomp is None:
        if getattr(q.field, "is_finite", False) and q.field.order == 2:
            q._decomp = _decompose_gf2(q)
        else:
            q._decomp = _decompose_generic(q)
    return q._decomp


def _decompose_generic(q):
    f = q.field
    n = q.dim
    B = [list(r) for r in q.polar]
    d = list(q.diag)
    basis = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    active = list(range(n))
    blocks = []
    pairs = []
    while True:
        pivot = None
        for ai, i in enumerate(active):
            for j in active[ai + 1 :]:
                if not f.is_zero(B[i][j]):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if not pivot:
            break
        i, j = pivot
        p = B[i][j]
        pinv = f.inv(p)
        row_i = B[i]
        row_j = B[j]
        for r in active:
            if r == i or r == j:
                continue
            lam = f.mul(B[r][j], pinv)
            mu = f.mul(B[r][i], pinv)
            if f.is_zero(lam) and f.is_zero(mu):
                continue
            # q(e_r + lam e_i + mu e_j), using entries before the row op
            upd = f.mul(f.mul(lam, lam), d[i])
            upd = f.add(upd, f.mul(f.mul(mu, mu), d[j]))
            upd = f.add(upd, f.mul(lam, B[r][i]))
            upd = f.add(upd, f.mul(mu, B[r][j]))
            upd = f.add(upd, f.mul(f.mul(lam, mu), p))
            d[r] = f.add(d[r], upd)
            Br = B[r]
            br = basis[r]
            bi, bj = basis[i], basis[j]
            for c in range(n):
                acc = Br[c]
                if not f.is_zero(row_i[c]):
                    acc = f.add(acc, f.mul(lam, row_i[c]))
                if not f.is_zero(row_j[c]):
                    acc = f.add(acc, f.mul(mu, row_j[c]))
                Br[c] = acc
                accb = br[c]
                if not f.is_zero(bi[c]):
                    accb = f.add(accb, f.mul(lam, bi[c]))
                if not f.is_zero(bj[c]):
                    accb = f.add(accb, f.mul(mu, bj[c]))
                br[c] = accb
        pinv2 = f.mul(pinv, pinv)
        blocks.append((d[i], f.mul(d[j], pinv2)))
        pairs.append((list(basis[i]), [f.mul(pinv, x) for x in basis[j]]))
        active.remove(i)
        active.remove(j)
    rad_rows = [list(basis[r]) for r in active]
    rad_diag = [d[r] for r in active]
    return Decomposition(f, blocks, pairs, rad_rows, rad_diag)


def _decompose_gf2(q):
    f = q.field
    n = q.dim
    B = [linalg.pack_row(f, row) for row in q.polar]
    d = list(q.diag)
    basis = [1 << i for i in range(n)]
    active_mask = (1 << n) - 1
    order = list(range(n))
    blocks = []
    pairs = []
    while True:
        pivot = None
        for i in order:
            m = B[i] & active_mask & ~(1 << i)
            if m:
                j = (m & -m).bit_length() - 1
                pivot = (i, j)
                break
        if not pivot:
            break
        i, j = pivot
        row_i = B[i]
        row_j = B[j]
        bas_i = basis[i]
        bas_j = basis[j]
        di, dj = d[i], d[j]
        affected = (row_i | row_j) & active_mask & ~(1 << i) & ~(1 << j)
        m = affected
        while m:
            low = m & -m
            r = low.bit_length() - 1
            m ^= low
            mu = (row_i >> r) & 1
            lam = (row_j >> r) & 1
            d[r] ^= (lam & di) ^ (mu & dj) ^ (lam & mu)
            upd = 0
            bupd = 0
            if lam:
                upd ^= row_i
                bupd ^= bas_i
            if mu:
                upd ^= row_j
                bupd ^= bas_j
            B[r] ^= upd
            basis[r] ^= bupd
        blocks.append((di, dj))
        pairs.append((bas_i, bas_j))
        active_mask &= ~((1 << i) | (1 << j))
        order.remove(i)
        order.remove(j)
    rad_rows = []
    rad_diag = []
    for r in order:
        assert B[r] & active_mask == 0
        rad_rows.append(basis[r])
        rad_diag.append(d[r])
    tobits = lambda v: [(v >> k) & 1 for k in range(n)]
    return Decomposition(
        f,
        blocks,
        [(tobits(u), tobits(v)) for u, v in pairs],
        [tobits(u) for u in rad_rows],
        rad_diag,
    )


def _block_symbols(f, dec):
    """The pairs (a_i, a_i b_i) over the decomposition blocks [a_i, b_i],
    swapped to a_i != 0 by [0,b] = [b,0]; hyperbolic blocks [0,0] give
    none."""
    out = []
    for a, b in dec.blocks:
        if f.is_zero(a):
            a, b = b, a
        if not f.is_zero(a):
            out.append((a, f.mul(a, b)))
    return out


def _arf_acc(f, dec):
    acc = f.zero
    for _, ab in _block_symbols(f, dec):
        acc = f.add(acc, ab)
    return acc


def arf_sum(q):
    """Raw Arf representative: sum of a_i b_i over the decomposition
    blocks.  Works over any field; raises on singular forms."""
    dec = block_decompose(q)
    if dec.radical_dim:
        raise SingularForm(f"radical has dimension {dec.radical_dim}")
    return _arf_acc(q.field, dec)


def arf(q):
    """Canonical Arf representative: 0, or the field's canonical
    element of absolute trace one."""
    if not getattr(q.field, "is_finite", False):
        raise NotFiniteField("canonical Arf representative needs a finite field")
    return q.field.wp_class_rep(arf_sum(q))


@dataclass(frozen=True)
class WittClass:
    """Classification record of a form over a finite field."""

    field: object
    dim: int
    arf: object
    radical_dim: int = 0

    @property
    def arf_bit(self):
        return self.field.trace(self.arf)

    def describe(self):
        planes = self.dim // 2
        if self.field.is_zero(self.arf):
            return f"{planes}H"
        return f"[1,{self.field.show(self.arf)}]+{planes - 1}H"


def witt_class(q):
    """Witt classification by (dimension, Arf): over a finite field of
    characteristic two nonsingular forms are classified by these two."""
    if not getattr(q.field, "is_finite", False):
        raise NotFiniteField("Witt classification implemented for finite fields")
    dec = block_decompose(q)
    f = q.field
    return WittClass(f, 2 * len(dec.blocks), f.wp_class_rep(_arf_acc(f, dec)), dec.radical_dim)


def isotropic_split_oracle(q):
    """Independent classification oracle: exhaustively find isotropic
    vectors, split off hyperbolic planes, recurse.  Returns the number
    of planes and the terminal anisotropic form."""
    f = q.field
    if not getattr(f, "is_finite", False) or f.order > 8:
        raise SearchSpaceTooLarge("oracle limited to field order <= 8")
    if q.dim > 6:
        raise SearchSpaceTooLarge("oracle limited to dimension <= 6")
    if linalg.kernel(f, q.polar, q.dim):
        raise SingularForm("oracle expects a nonsingular form")
    planes = 0
    cur = q
    while cur.dim:
        iso = None
        vecs = [[]]
        for _ in range(cur.dim):
            vecs = [v + [x] for v in vecs for x in f.elements()]
        for v in vecs:
            if all(f.is_zero(x) for x in v):
                continue
            if f.is_zero(cur.evaluate(v)):
                iso = v
                break
        if iso is None:
            break
        w = None
        for k in range(cur.dim):
            e = [f.zero] * cur.dim
            e[k] = f.one
            if not f.is_zero(cur.bilinear(iso, e)):
                w = e
                break
        c = f.inv(cur.bilinear(iso, w))
        w = [f.mul(c, x) for x in w]
        qw = cur.evaluate(w)
        if not f.is_zero(qw):
            w = [f.add(wx, f.mul(qw, vx)) for wx, vx in zip(w, iso)]
        assert f.is_zero(cur.evaluate(w))
        rows = [
            [cur.bilinear(iso, _unit(f, cur.dim, k)) for k in range(cur.dim)],
            [cur.bilinear(w, _unit(f, cur.dim, k)) for k in range(cur.dim)],
        ]
        comp = linalg.kernel(f, rows, cur.dim)
        cur = cur.restricted(comp)
        planes += 1
    return planes, cur


def _unit(f, n, k):
    e = [f.zero] * n
    e[k] = f.one
    return e


def oracle_witt_class(q):
    """Witt class derived from :func:`isotropic_split_oracle`."""
    planes, aniso = isotropic_split_oracle(q)
    f = q.field
    if aniso.dim == 0:
        rep = f.zero
    else:
        rep = f.wp_class_rep(arf_sum(aniso))
    return WittClass(f, 2 * planes + aniso.dim, rep, 0), planes


def random_nonsingular_form(field, dim, rng):
    """Random even-dimensional nonsingular form, by rejection."""
    assert dim % 2 == 0
    f = field
    while True:
        diag = [f.random_element(rng) for _ in range(dim)]
        polar = [[f.zero] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                v = f.random_element(rng)
                polar[i][j] = v
                polar[j][i] = v
        q = QuadraticForm(f, diag, polar, validate=False)
        if not linalg.kernel(f, polar, dim):
            return q


# -- Clifford algebra ----------------------------------------------------


class CliffordWords:
    """Multiplication of Clifford monomials e_S in characteristic two.

    Monomials are bitmasks over the form's basis, standing for the
    ascending ordered product of generators; the rewriting rules are
    e_i e_i = q(e_i) and e_j e_i = e_i e_j + b(i, j) for i < j.
    """

    def __init__(self, form):
        self.form = form
        self.field = form.field
        self._cache = {}

    def mul_word_gen(self, mask, j):
        """Product e_mask * e_j as a {mask: coefficient} dict."""
        key = (mask, j)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        f = self.field
        if mask == 0:
            out = {1 << j: f.one}
        else:
            s = mask.bit_length() - 1
            rest = mask ^ (1 << s)
            if s < j:
                out = {mask | (1 << j): f.one}
            elif s == j:
                qs = self.form.diag[s]
                out = {} if f.is_zero(qs) else {rest: qs}
            else:
                out = {}
                for m, c in self.mul_word_gen(rest, j).items():
                    out[m | (1 << s)] = c
                bsj = self.form.polar[s][j]
                if not f.is_zero(bsj):
                    prev = out.get(rest, f.zero)
                    v = f.add(prev, bsj)
                    if f.is_zero(v):
                        out.pop(rest, None)
                    else:
                        out[rest] = v
        self._cache[key] = out
        return out

    def mul_words(self, m1, m2):
        f = self.field
        cur = {m1: f.one}
        rem = m2
        while rem:
            low = rem & -rem
            j = low.bit_length() - 1
            rem ^= low
            nxt = {}
            for m, c in cur.items():
                for mm, cc in self.mul_word_gen(m, j).items():
                    prev = nxt.get(mm, f.zero)
                    v = f.add(prev, f.mul(c, cc))
                    if f.is_zero(v):
                        nxt.pop(mm, None)
                    else:
                        nxt[mm] = v
            cur = nxt
        return cur


def clifford_algebra(q):
    """The 2**n dimensional Clifford algebra of the form, as a structure
    constant algebra with basis indexed by generator subsets."""
    from . import csa

    if q.dim > 10:
        raise DimensionTooLarge("Clifford construction capped at 10 generators")
    f = q.field
    words = CliffordWords(q)
    dim = 1 << q.dim

    def product(i, j):
        return tuple(words.mul_words(i, j).items())

    degree = None
    even = q.dim % 2 == 0
    if even and q.dim and not linalg.kernel(f, q.polar, q.dim):
        degree = 1 << (q.dim // 2)
    one = [f.zero] * dim
    one[0] = f.one
    return csa.Algebra(
        f,
        dim,
        product,
        one,
        label=f"Clifford(dim {q.dim})",
        degree=degree,
        is_csa=degree is not None,
    )


def arf_via_even_clifford_center(q):
    """Arf class read off the even Clifford algebra: its center is the
    quadratic etale algebra F[z]/(z**2+z+c) and c represents the class.

    Independent oracle for :func:`arf`: no block decomposition is used,
    only the commutant linear system inside the even part.
    """
    f = q.field
    n = q.dim
    if n % 2 or n == 0:
        raise FormError("even Clifford center oracle needs even dimension")
    if n > 8:
        raise DimensionTooLarge("even Clifford center oracle capped at dimension 8")
    if linalg.kernel(f, q.polar, n):
        raise SingularForm("form must be nonsingular")
    words = CliffordWords(q)
    masks = [m for m in range(1 << n) if bin(m).count("1") % 2 == 0]
    index = {m: i for i, m in enumerate(masks)}
    ncols = len(masks)
    bits = f.bits
    ech = linalg.PackedEchelon(f, ncols)
    target = ncols - 2
    done = False
    for i in range(n):
        if done:
            break
        for j in range(i + 1, n):
            g = (1 << i) | (1 << j)
            rows = {}
            for col, m in enumerate(masks):
                prod = dict(words.mul_words(g, m))
                for mm, cc in words.mul_words(m, g).items():
                    prev = prod.get(mm, f.zero)
                    v = f.add(prev, cc)
                    if f.is_zero(v):
                        prod.pop(mm, None)
                    else:
                        prod[mm] = v
                for mm, cc in prod.items():
                    rows.setdefault(index[mm], 0)
                    rows[index[mm]] |= cc << (col * bits)
            for row in rows.values():
                if row and ech.insert(row) and ech.rank == target:
                    done = True
                    break
            if done:
                break
    if ech.rank != target:
        raise FormError("even Clifford center larger than expected")
    kern = ech.kernel()
    zt = None
    for v in kern:
        coords = linalg.unpack_row(f, v, ncols)
        if any(not f.is_zero(c) for c in coords[1:]):
            zt = coords
            break
    assert zt is not None
    # square z-tilde once
    sq = {}
    support = [(masks[k], zt[k]) for k in range(ncols) if not f.is_zero(zt[k])]
    for m1, c1 in support:
        for m2, c2 in support:
            coef = f.mul(c1, c2)
            for mm, cc in words.mul_words(m1, m2).items():
                prev = sq.get(mm, f.zero)
                v = f.add(prev, f.mul(coef, cc))
                if f.is_zero(v):
                    sq.pop(mm, None)
                else:
                    sq[mm] = v
    for beta in range(1, f.order):
        b2 = f.mul(beta, beta)
        ok = True
        for k in range(1, ncols):
            m = masks[k]
            val = f.add(f.mul(b2, sq.get(m, f.zero)), f.mul(beta, zt[k]))
            if not f.is_zero(val):
                ok = False
                break
        if ok:
            c = f.add(f.mul(b2, sq.get(0, f.zero)), f.mul(beta, zt[0]))
            return f.wp_class_rep(c)
    raise FormError("no Artin-Schreier normalization found in the center")


# -- Brauer classes ------------------------------------------------------

_split_cache = {}


def quaternion_is_split(field, a, b):
    """Whether the quaternion algebra with e**2=a, f**2+f=b, ef+fe=e is
    split: b in {x**2+x}, or a a norm from the Artin-Schreier extension.
    Over finite fields norms are surjective, so this always holds; both
    branches are computed anyway."""
    if field.is_zero(a):
        raise FormError("first quaternion symbol entry must be nonzero")
    if field.wp_member(b):
        return True
    key = (field, b)
    ext = _split_cache.get(key)
    if ext is None:
        from . import fields as _fields

        ext = field.extend((b, field.one, field.one), _fields.fresh_gen_name(field))
        _split_cache[key] = ext
    if ext.order > 1 << 12:
        raise SearchSpaceTooLarge("norm search limited to small fields")
    e = field.order + 1  # norm map is y -> y**(1+|F|)
    for y in range(1, ext.order):
        if ext.pow(y, e) == a:
            return True
    return False


@dataclass(frozen=True)
class BrauerClass:
    """A multiset of quaternion symbols with the split ones deleted."""

    field: object
    symbols: tuple
    label: str = _dfield(default="", compare=False)

    @classmethod
    def from_symbols(cls, field, pairs, label=""):
        kept = tuple(sorted(p for p in pairs if not quaternion_is_split(field, *p)))
        return cls(field, kept, label)

    @classmethod
    def trivial(cls, field, label=""):
        return cls(field, (), label)

    @property
    def is_trivial(self):
        return not self.symbols


def clifford_symbols(q):
    """Unreduced quaternion symbols (a_i, a_i b_i] from the block
    decomposition; hyperbolic blocks contribute none."""
    dec = block_decompose(q)
    if dec.radical_dim:
        raise SingularForm("Clifford invariant needs a nonsingular form")
    return _block_symbols(q.field, dec)


def clifford_invariant(q):
    return BrauerClass.from_symbols(q.field, clifford_symbols(q))
