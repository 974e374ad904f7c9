"""Quadratic forms in characteristic two.

A form is stored extensionally: the values q(e_i) on the basis plus the
polar matrix b(e_i, e_j) of the associated alternating bilinear form.
The single evaluation rule

    q(sum x_i e_i) = sum x_i**2 q(e_i) + sum_{i<j} x_i x_j b(e_i, e_j)

is the source of truth for everything else.

The polar matrix is held as rows of the field's row ring
(``linalg.row_ring``): packed ints over a finite level, one int per row
with ``field.bits`` bits per entry, so row operations are integer xors
plus the level's bit-plane scaling for scalars other than one; lists of
field elements over any other field, such as ``rational.FunctionField``.
Restriction to a sparse basis and the symplectic block reduction are
each written once against the ring and run on every field.  The
reduction carries no basis: the invariants (Witt class, Arf, Clifford
symbols, radical dimension) need only its blocks and the radical's
diagonal.  Over a finite level the radical is a ``linalg.packed_kernel``,
a route independent of the reduction.  ``QuadraticForm.polar`` is a
list view, unpacked only when read.

Forms are treated as immutable after construction (the only mutation
is an internal cache, the decomposition), so independent forms can be
processed concurrently.
"""

from __future__ import annotations

from . import linalg
from .records import Frozen


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


class QuadraticForm:
    """A quadratic form given by diagonal values and a polar matrix.

    ``diag[i]`` is q(e_i); the polar matrix is symmetric with zero
    diagonal (alternating, as forced in characteristic two).  ``rows``
    holds it as rows of ``ring``, the field's ``linalg.row_ring``.  The
    constructor takes list rows, checks them and copies them into the
    ring; :meth:`from_rows` takes ring rows as they are.  A form keeps
    no basis of an ambient space it was restricted from.
    """

    def __init__(self, field, diag, polar):
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
        ring = linalg.row_ring(field)
        self._init(ring, diag, [ring.read(r) for r in polar])

    @classmethod
    def from_rows(cls, field, diag, rows):
        """A form from polar rows of the field's row ring, taken over
        without checks or copies."""
        q = cls.__new__(cls)
        q._init(linalg.row_ring(field), diag, rows)
        return q

    def _init(self, ring, diag, rows):
        self.field = ring.field
        self.ring = ring
        self.diag = diag
        self.rows = rows
        self.dim = len(diag)
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
        return self.ring.entry(self.rows[i], j)

    def polar_row(self, i):
        """Row i of the polar matrix as a new list."""
        return self.ring.unpack(self.rows[i], self.dim)

    @property
    def polar(self):
        """The polar matrix as new lists; changing them leaves the form
        as it is."""
        return [self.polar_row(i) for i in range(self.dim)]

    def evaluate(self, v):
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        f = self.field
        support = [i for i, x in enumerate(v) if not f.is_zero(x)]
        acc = f.zero
        for a, i in enumerate(support):
            acc = f.add(acc, f.mul(f.mul(v[i], v[i]), self.diag[i]))
            for j in support[a + 1 :]:
                bij = self.polar_entry(i, j)
                if not f.is_zero(bij):
                    acc = f.add(acc, f.mul(f.mul(v[i], v[j]), bij))
        return acc

    def bilinear(self, u, v):
        """The polar form b(u, v) on coordinate vectors."""
        f = self.field
        acc = f.zero
        for i, x in enumerate(u):
            if f.is_zero(x):
                continue
            for j, y in enumerate(v):
                if not f.is_zero(y):
                    bij = self.polar_entry(i, j)
                    if not f.is_zero(bij):
                        acc = f.add(acc, f.mul(f.mul(x, y), bij))
        return acc

    def restricted(self, rows):
        """The form pulled back to the span of the given row vectors, R B
        R^T for the matrix R of those rows.

        Rows are coordinate lists, rows of the form's ring or tuples of
        (column, value) pairs.  Row a is (r_a B) R^T: the polar rows along
        r_a's support, combined, then mapped by R^T (``times_transpose``).
        A unit row ((k, 1),) contributes polar row k and q(e_k) as they
        are.
        """
        f, R, B, d = self.field, self.ring, self.rows, self.diag
        add, mul, entry, axpy, one = R.add, f.mul, R.entry, R.axpy, f.one
        sup = [r if isinstance(r, tuple) else R.items(R.read(r)) for r in rows]
        zero_row = R.sparse((), self.dim)
        diag = []
        images = []
        for s in sup:
            if len(s) == 1 and s[0][1] == one:
                k = s[0][0]
                diag.append(d[k])
                images.append(B[k])
                continue
            v = zero_row
            acc = f.zero
            for a, (k, x) in enumerate(s):
                rowk = B[k]
                v = axpy(v, x, rowk)
                acc = add(acc, mul(mul(x, x), d[k]))
                for l, y in s[a + 1 :]:
                    e = entry(rowk, l)
                    if e:
                        acc = add(acc, mul(mul(x, y), e))
            diag.append(acc)
            images.append(v)
        polar = R.times_transpose(images, sup, self.dim)
        return QuadraticForm.from_rows(f, diag, polar)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            raise FormError("scaling by zero")
        diag = [f.mul(c, d) for d in self.diag]
        return QuadraticForm.from_rows(f, diag, [self.ring.scale(r, c) for r in self.rows])

    def __repr__(self):
        return f"QuadraticForm(dim={self.dim} over {self.field!r})"


def direct_sum(q1, q2):
    if q1.field != q2.field:
        raise FieldMismatch("forms live over different fields")
    R, n1, n = q1.ring, q1.dim, q1.dim + q2.dim
    rows = R.place(q1.rows, 0, n) + R.place(q2.rows, n1, n)
    return QuadraticForm.from_rows(q1.field, list(q1.diag) + list(q2.diag), rows)


def radical(q):
    """Basis of the radical of the polar form, as coordinate rows: a
    kernel by ``linalg.packed_kernel``, a route independent of the
    symplectic reduction.  Finite levels only; over any other field the
    radical's dimension and diagonal are read off
    :func:`block_decompose`."""
    if not getattr(q.field, "is_finite", False):
        raise NotFiniteField("radical rows computed over finite fields only")
    return linalg.packed_kernel(q.field, q.rows, q.dim)


class Decomposition:
    """Result of the symplectic reduction of a form.

    ``blocks`` are the binary forms [a_i, b_i] with cross coefficient 1,
    and ``radical_diag`` holds the quasilinear diagonal values of the
    radical; these are all the invariants read, so the reduction that
    finds them carries no basis.  ``symbols`` are the quaternion symbols
    (a_i, a_i b_i] of the blocks, computed once.
    """

    def __init__(self, ring, rows, diag):
        self.field = ring.field
        self.blocks, self.radical_diag = _reduce(ring, rows, diag)
        self._symbols = None

    @property
    def radical_dim(self):
        return len(self.radical_diag)

    @property
    def symbols(self):
        """The pairs (a_i, a_i b_i) over the blocks [a_i, b_i], swapped to
        a_i != 0 by [0,b] = [b,0]; hyperbolic blocks [0,0] give none.  A
        tuple, shared by every caller."""
        if self._symbols is None:
            f, out = self.field, []
            for a, b in self.blocks:
                if f.is_zero(a):
                    a, b = b, a
                if not f.is_zero(a):
                    out.append((a, f.mul(a, b)))
            self._symbols = tuple(out)
        return self._symbols


def block_decompose(q):
    """The symplectic reduction of ``q``, cached on the form.

    Pivot order: the first unpaired index whose polar row is nonzero,
    paired with that row's lowest nonzero column.  Every other basis
    vector e_r with b(e_r, e_i) or b(e_r, e_j) nonzero becomes
    e_r + lam e_i + mu e_j, orthogonal to the pivot pair, so every
    unpaired row is zero at the paired columns and holds the current
    polar values on the unpaired ones.  A zero row stays zero, and is
    radical: the pivot scan moves forward only.  Only the polar rows
    and the diagonal are updated; the basis vectors are not tracked.
    """
    if q._decomp is None:
        q._decomp = Decomposition(q.ring, q.rows, q.diag)
    return q._decomp


def _reduce(R, rows, diag):
    """The reduction of :func:`block_decompose` on copies of the polar
    rows and diagonal, in ring ``R``.  Returns the blocks and the final
    diagonal values of the radical indices.  Scalars equal to one cost
    no multiply."""
    f = R.field
    one, mul, add, axpy = f.one, f.mul, R.add, R.axpy
    B = list(rows)
    d = list(diag)
    n = len(d)
    paired = [False] * n
    blocks = []
    for i in range(n):
        j = None if paired[i] else R.first(B[i])
        if j is None:
            continue
        paired[i] = paired[j] = True
        row_i, row_j = B[i], B[j]
        di, dj = d[i], d[j]
        p = R.entry(row_i, j)
        unit = p == one
        pinv = one if unit else f.inv(p)
        for r, lam, mu in R.pivot_entries(i, j, row_i, row_j):
            # lam = b(e_r, e_j) / p, mu = b(e_r, e_i) / p
            if not unit:
                lam, mu = mul(lam, pinv), mul(mu, pinv)
            # q(e_r + lam e_i + mu e_j) = q(e_r) + lam^2 d_i + mu^2 d_j + lam mu p
            dr, row = d[r], B[r]
            if lam:
                row = axpy(row, lam, row_i)
                dr = add(dr, di if lam == one else mul(mul(lam, lam), di))
            if mu:
                row = axpy(row, mu, row_j)
                dr = add(dr, dj if mu == one else mul(mul(mu, mu), dj))
                if lam:
                    lmp = lam if mu == one else mul(lam, mu)
                    dr = add(dr, lmp if unit else mul(lmp, p))
            d[r], B[r] = dr, row
        blocks.append((di, dj if unit else mul(dj, mul(pinv, pinv))))
    rad = [r for r in range(n) if not paired[r]]
    assert all(R.first(B[r]) is None for r in rad)
    return blocks, [d[r] for r in rad]


def _arf_acc(f, dec):
    acc = f.zero
    for _, ab in dec.symbols:
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


class WittClass(Frozen):
    """Classification record of a form over a finite field."""

    __slots__ = ("field", "dim", "arf", "radical_dim")

    def __init__(self, field, dim, arf, radical_dim=0):
        self._set("field", field)
        self._set("dim", dim)
        self._set("arf", arf)
        self._set("radical_dim", radical_dim)

    @property
    def arf_bit(self):
        return self.field.trace(self.arf)


def witt_class(q):
    """Witt classification by (dimension, Arf): over a finite field of
    characteristic two nonsingular forms are classified by these two."""
    if not getattr(q.field, "is_finite", False):
        raise NotFiniteField("Witt classification implemented for finite fields")
    dec = block_decompose(q)
    f = q.field
    return WittClass(f, 2 * len(dec.blocks), f.wp_class_rep(_arf_acc(f, dec)), dec.radical_dim)


# -- Brauer classes ------------------------------------------------------

def quaternion_is_split(field, a, b):
    """Whether the quaternion algebra with e**2=a, f**2+f=b, ef+fe=e is
    split.  Over a finite level it always is: the norm map of the
    Artin-Schreier extension is surjective (Wedderburn).  Other fields
    raise :class:`NotFiniteField`."""
    if field.is_zero(a):
        raise FormError("first quaternion symbol entry must be nonzero")
    if not getattr(field, "is_finite", False):
        raise NotFiniteField("quaternion splitting decided over finite fields only")
    return True


_split_cache = {}  # nothing fills it; perfbench/workloads.cold_cache_problems reads it


class BrauerClass(Frozen):
    """A multiset of quaternion symbols with the split ones deleted;
    ``label`` names the class for a reader and takes no part in equality
    or hashing."""

    __slots__ = ("field", "symbols", "label")
    _compare = ("field", "symbols")

    def __init__(self, field, symbols, label=""):
        self._set("field", field)
        self._set("symbols", symbols)
        self._set("label", label)

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
    decomposition, as a new list; hyperbolic blocks contribute none."""
    dec = block_decompose(q)
    if dec.radical_dim:
        raise SingularForm("Clifford invariant needs a nonsingular form")
    return list(dec.symbols)


def clifford_invariant(q):
    return BrauerClass.from_symbols(q.field, clifford_symbols(q))
