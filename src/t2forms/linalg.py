"""Exact linear algebra for characteristic two.

Every elimination runs on packed rows over a finite level: a row is a
single int holding ``field.bits`` bits per entry, so row addition is
integer xor.  A packed row has the layout of a polynomial of the
level's ``fields.PolyRing``, so a scalar multiple of a row is the
ring's ``scale``: one field product per bit plane, whatever the row's
length, and no table.  GF(2) is the 1-bit case: its packed rows are
plain bit vectors and scaling is never needed.  :func:`linear_table` is
the one builder of GF(2)-linear lookup tables, for the field levels and
:func:`linear_map`.

:class:`PackedEchelon` is the one elimination engine:
:class:`GF2Solver` (and :func:`solve_gf2` through it) and
:func:`packed_kernel` run on it.  A GF(2)-linear system written as
the packed image of each unknown bit is turned into solver rows by
:func:`rows_from_images`.

The rows of a quadratic form are rows of a row ring,
:func:`row_ring`, picked from the field: :class:`PackedRows` over a
finite level, :class:`ListRows` (lists of field elements, duck-typed
over the field object) over any other field, such as GF(2^k)(t).  Both
offer the same operations, so the symplectic reduction and the
restriction of a form are written once.  List rows also hold the small
dense matrices of :func:`charpoly`.
"""

from __future__ import annotations

import functools
import operator


# -- packed rows over a finite level -------------------------------------


def linear_table(images):
    """The lookup table of the GF(2)-linear map sending bit i of its
    argument to ``images[i]``: entry v is the xor of the images of the
    bits of v, and each image doubles the table."""
    tbl = [0]
    for img in images:
        tbl += [v ^ img for v in tbl]
    return tbl


def linear_map(images):
    """The GF(2)-linear map sending bit i to ``images[i]``, as one
    :func:`linear_table` per 8-bit chunk of its argument; a partial of a
    module function, so whatever holds it stays picklable."""
    tables = [linear_table(images[k : k + 8]) for k in range(0, len(images), 8)]
    return functools.partial(_apply_chunks, tables)


def _apply_chunks(tables, v):
    out = 0
    for tbl in tables:
        out, v = out ^ tbl[v & 255], v >> 8
    return out


def scale_row(field, row, c):
    """c times each entry of the packed ``row``: the bit-plane ``scale``
    of the level's polynomial ring, which reads the same layout."""
    return row if c == 1 or not row else field.poly_ring().scale(c, row)


def pack_row(field, entries):
    bits = field.bits
    row = 0
    for i, e in enumerate(entries):
        if e:
            row |= e << (i * bits)
    return row


def unpack_row(field, row, ncols):
    bits = field.bits
    emask = (1 << bits) - 1
    return [(row >> (i * bits)) & emask for i in range(ncols)]


# -- row rings -----------------------------------------------------------


def row_ring(field):
    """The rows of a matrix over ``field`` as one table of operations:
    :class:`PackedRows` over a finite level, :class:`ListRows` over any
    other field.  Both give the same results on the same entries."""
    return PackedRows(field) if getattr(field, "is_finite", False) else ListRows(field)


class PackedRows:
    """Packed rows over a finite level: a row is one int, and entries
    other than one are scaled by the level's polynomial ring
    (:func:`scale_row`).  ``add`` is the scalar add, integer xor."""

    def __init__(self, field):
        self.field, self.one, self.bits = field, field.one, field.bits
        self.emask = (1 << field.bits) - 1
        self.add = operator.xor
        self._scale = field.poly_ring().scale

    def entry(self, row, j):
        return (row >> (j * self.bits)) & self.emask

    def read(self, entries):
        """A row from a coordinate sequence, or a row already packed."""
        return entries if isinstance(entries, int) else pack_row(self.field, entries)

    def unpack(self, row, n):
        return unpack_row(self.field, row, n)

    def items(self, row):
        """The nonzero entries as (column, value) pairs, lowest column
        first; the cost is per nonzero entry."""
        bits, emask = self.bits, self.emask
        out = []
        while row:
            shift = (((row & -row).bit_length() - 1) // bits) * bits
            e = (row >> shift) & emask
            out.append((shift // bits, e))
            row ^= e << shift
        return out

    def sparse(self, items, n):
        """The row with the given (column, value) entries, columns distinct."""
        bits, row = self.bits, 0
        for c, x in items:
            row |= x << (c * bits)
        return row

    def place(self, rows, at, n):
        """The rows of length ``n`` holding the given rows' entries from
        column ``at`` on."""
        shift = at * self.bits
        return [r << shift for r in rows] if shift else list(rows)

    def kron(self, ra, rb, nb):
        """The Kronecker product of the rows ``ra`` and ``rb`` (``nb`` columns):
        row (i, j) is the sum over the nonzero entries (c, v) of ra[i] of
        v rb[j] shifted to column c nb; v = 1 scales nothing."""
        scale, one, step, out = self._scale, self.one, nb * self.bits, []
        for a in ra:
            rows = [0] * len(rb)
            for c, v in self.items(a):
                part = rb if v == one else [scale(v, b) if b else 0 for b in rb]
                rows = [r | (b << (c * step)) for r, b in zip(rows, part)]
            out += rows
        return out

    def scale(self, row, c):
        return scale_row(self.field, row, c)

    def axpy(self, dst, c, src):
        """dst + c src."""
        return dst ^ (src if c == self.one else scale_row(self.field, src, c))

    def first(self, row):
        """The lowest column where ``row`` is nonzero, or None."""
        return ((row & -row).bit_length() - 1) // self.bits if row else None

    def pivot_entries(self, i, j, row_i, row_j):
        """(r, row_j[r], row_i[r]) for every column r other than i and j
        where row_i or row_j is nonzero, lowest r first."""
        bits, emask = self.bits, self.emask
        out = []
        m = (row_i | row_j) & ~((emask << (i * bits)) | (emask << (j * bits)))
        while m:
            shift = (((m & -m).bit_length() - 1) // bits) * bits
            m &= ~(emask << shift)
            out.append((shift // bits, (row_j >> shift) & emask, (row_i >> shift) & emask))
        return out

    def times_transpose(self, rows, sup, ncols):
        """v R^T for each row v of length ``ncols``, where row b of R has
        the nonzero entries ``sup[b]``.

        Columns of R that hold the next unit vector in order map as slices
        of the packed row; only the other nonzero columns are scaled and
        added.  On the trace-zero hyperplane e_k + l_k e_k0, v R^T is thus
        v with its entry at k0 times (l_k) added and column k0 dropped: a
        few xors."""
        scale, one, bits, emask = self._scale, self.one, self.bits, self.emask
        cols = [0] * ncols
        for a, s in enumerate(sup):
            for k, x in s:
                cols[k] |= x << (a * bits)
        runs = []  # [first column, end column, first target] of each slice
        extra = []
        b = 0
        for k, col in enumerate(cols):
            if col == 1 << (b * bits):
                if runs and runs[-1][1] == k:
                    runs[-1][1] = k + 1
                else:
                    runs.append([k, k + 1, b])
                b += 1
            elif col:
                extra.append((k * bits, col))
        slices = [(k0 * bits, (1 << ((k1 - k0) * bits)) - 1, t * bits) for k0, k1, t in runs]
        out = []
        for v in rows:
            w = 0
            for shift, mask, target in slices:
                w |= ((v >> shift) & mask) << target
            for shift, col in extra:
                e = (v >> shift) & emask
                if e:
                    w ^= col if e == one else scale(e, col)
            out.append(w)
        return out


class ListRows:
    """Rows as lists of field elements, duck-typed over the field; an
    entry is zero when it tests false.  ``add`` is the field's add.  No
    operation changes a row it is given."""

    def __init__(self, field):
        self.field, self.add = field, field.add

    def entry(self, row, j):
        return row[j]

    def read(self, entries):
        return list(entries)

    def unpack(self, row, n):
        return list(row)

    def items(self, row):
        return [(c, x) for c, x in enumerate(row) if x]

    def sparse(self, items, n):
        row = [self.field.zero] * n
        for c, x in items:
            row[c] = x
        return row

    def place(self, rows, at, n):
        zero = self.field.zero
        return [[zero] * at + list(r) + [zero] * (n - at - len(r)) for r in rows]

    def kron(self, ra, rb, nb):
        mul, zero = self.field.mul, self.field.zero
        return [[mul(x, y) if x and y else zero for x in a for y in b] for a in ra for b in rb]

    def scale(self, row, c):
        return [self.field.mul(c, x) for x in row]

    def axpy(self, dst, c, src):
        add, mul = self.add, self.field.mul
        return [add(x, mul(c, y)) if y else x for x, y in zip(dst, src)] if c else dst

    def first(self, row):
        return next((c for c, x in enumerate(row) if x), None)

    def pivot_entries(self, i, j, row_i, row_j):
        pairs = enumerate(zip(row_i, row_j))
        return [(r, y, x) for r, (x, y) in pairs if (x or y) and r != i and r != j]

    def times_transpose(self, rows, sup, ncols):
        add, mul, zero = self.add, self.field.mul, self.field.zero
        out = []
        for v in rows:
            w = []
            for s in sup:
                acc = zero
                for k, x in s:
                    if v[k]:
                        acc = add(acc, mul(x, v[k]))
                w.append(acc)
            out.append(w)
        return out


class PackedEchelon:
    """Incrementally maintained reduced echelon form of packed rows.

    Supports early stopping: callers can stop inserting once ``rank``
    reaches a known bound, and then read off the kernel.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = {}  # pivot column -> normalized reduced row
        self._scale = field.poly_ring().scale

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Fully reduce a row against the stored pivot rows.

        Pivot rows are zero at every other pivot column, so one pass
        over the pivots suffices.  Entries equal to one need no scaling,
        which covers every entry over GF(2).
        """
        bits = self.field.bits
        emask = (1 << bits) - 1
        one, scale = self.field.one, self._scale
        for p, prow in self.rows.items():
            e = (row >> (p * bits)) & emask
            if e:
                row ^= prow if e == one else scale(e, prow)
        return row

    def insert(self, row):
        """Insert one packed row; returns True when the rank grew."""
        field = self.field
        row = self.reduce(row)
        if not row:
            return False
        bits = field.bits
        emask = (1 << bits) - 1
        one, scale = field.one, self._scale
        c = ((row & -row).bit_length() - 1) // bits
        shift = c * bits
        e = (row >> shift) & emask
        if e != one:
            row = scale(field.inv(e), row)
        rows = self.rows
        for p, prow in rows.items():
            pe = (prow >> shift) & emask
            if pe:
                rows[p] = prow ^ (row if pe == one else scale(pe, row))
        rows[c] = row
        return True

    def kernel(self):
        """Basis of the null space of the inserted rows, packed."""
        field = self.field
        bits = field.bits
        emask = (1 << bits) - 1
        pivset = set(self.rows)
        basis = []
        for free in range(self.ncols):
            if free in pivset:
                continue
            v = field.one << (free * bits)
            for p, prow in self.rows.items():
                e = (prow >> (free * bits)) & emask
                if e:
                    v |= e << (p * bits)
            basis.append(v)
        return basis


class GF2Solver:
    """The GF(2) system rows * x = rhs, eliminated once for any number of
    right hand sides.  ``rows`` are bit vectors over ``ncols`` unknowns.

    Row i rides along with the unit vector 1 << (ncols + i) above its
    columns, so every reduced row also records the set of equations it
    sums (the row transform).  A pivot row's set, applied to rhs, gives
    that pivot's unknown; a row that reduces to zero on the columns gives
    a set that must sum rhs to zero.
    """

    def __init__(self, rows, ncols):
        from .fields import GF2

        ech = PackedEchelon(GF2, ncols)
        cols = (1 << ncols) - 1
        self.checks = []
        for i, row in enumerate(rows):
            row = ech.reduce(row | (1 << (ncols + i)))
            if row & cols:
                ech.insert(row)
            else:
                self.checks.append(row >> ncols)
        self.pivots = [(p, prow >> ncols) for p, prow in ech.rows.items()]

    def solve(self, rhs):
        """One solution x (as an int) for the right hand side packed with
        bit r for equation r, or None.  The free unknowns are zero."""
        for d in self.checks:
            if (d & rhs).bit_count() & 1:
                return None
        x = 0
        for p, t in self.pivots:
            x |= ((t & rhs).bit_count() & 1) << p
        return x


def rows_from_images(images, nrows):
    """The rows, as bit vectors over the unknowns, of the GF(2) system
    whose unknown i maps to the bit vector ``images[i]`` (bit r for
    equation r, r < ``nrows``): the transpose of the column images."""
    rows = [0] * nrows
    for i, img in enumerate(images):
        bit = 1 << i
        while img:
            low = img & -img
            rows[low.bit_length() - 1] |= bit
            img ^= low
    return rows


def solve_gf2(rows, ncols, rhs):
    """One solution x (as an int) of the GF(2) system rows * x = rhs, or
    None; see :class:`GF2Solver`."""
    return GF2Solver(rows, ncols).solve(rhs)


# -- kernels -------------------------------------------------------------


def packed_kernel(field, rows, ncols):
    """Kernel basis, as coordinate lists, of v -> rows * v for packed
    rows over a finite level."""
    ech = PackedEchelon(field, ncols)
    for r in rows:
        ech.insert(r)
    return [unpack_row(field, v, ncols) for v in ech.kernel()]


# -- dense matrices ------------------------------------------------------


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def charpoly(field, A):
    """Monic characteristic polynomial of a square matrix, low degree
    first, by Hessenberg reduction and the Hessenberg recurrence."""
    n = len(A)
    if n == 0:
        return (field.one,)
    H = [list(r) for r in A]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if not field.is_zero(H[i][j]):
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = field.inv(H[j + 1][j])
        for i in range(j + 2, n):
            if field.is_zero(H[i][j]):
                continue
            f = field.mul(H[i][j], inv)
            Hi, Hp = H[i], H[j + 1]
            for c in range(n):
                if not field.is_zero(Hp[c]):
                    Hi[c] = field.add(Hi[c], field.mul(f, Hp[c]))
            for r in range(n):
                if not field.is_zero(H[r][i]):
                    H[r][j + 1] = field.add(H[r][j + 1], field.mul(f, H[r][i]))
    # p_k = (x + h_kk) p_{k-1} + sum_i h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}
    polys = [(field.one,)]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        pk = [field.zero] + list(prev)  # x * p_{k-1}
        d = H[k - 1][k - 1]
        if not field.is_zero(d):
            for i, c in enumerate(prev):
                pk[i] = field.add(pk[i], field.mul(d, c))
        prod = field.one
        for i in range(k - 1, 0, -1):
            prod = field.mul(prod, H[i][i - 1])
            if field.is_zero(prod):
                break
            coef = field.mul(H[i - 1][k - 1], prod)
            if not field.is_zero(coef):
                for t, c in enumerate(polys[i - 1]):
                    pk[t] = field.add(pk[t], field.mul(coef, c))
        polys.append(tuple(pk))
    return polys[n]
