"""Helpers that only the tests use: dense matrix products, random
nonsingular quadratic forms, and reference implementations of the field
multiply, the exp/log tables, the GF(2) linear solve, the kernel of
list rows (through the packed engine and by Gauss-Jordan), the
Artin-Schreier solve, the semilinear solve over k[t] by transposed
equation rows, the polynomial root search of a cubic over k(t) by
fraction arithmetic, the crossed-product structure table,
the coefficient-tuple polynomial ring (the oracle of the packed
``fields.PolyRing``) with GF(2) and any finite level seen through it,
the splitting representations of the constructed algebras (over the
Artin-Schreier extension a quaternion algebra may need, built once per
level and b) and the Kronecker one of a tensor product, the Witt class by
isotropic splitting, quaternion splitting by norm search and the
symplectic reduction on dense list rows;
a finite level seen as a field that is not finite, so that forms
over it take the list-row ring;
and the independent oracles the pipeline is checked against: polynomial
roots by enumeration, the isotropic splitting behind that Witt class,
the Clifford algebra and Arf through the even Clifford center, element
arithmetic of an algebra through its structure constants, traces of
single elements from the definition, dense splitting matrices, the polar
rows Trd(e_i e_j) by joining splitting-representation images, the t1, t2
and Trd(e_i e_j) of a commutative algebra read off its left regular
matrices and structure constants, and the
dense associativity, identity and center checks of
:func:`sanity_check_csa`."""

import functools
import itertools
import operator
import weakref
from typing import NamedTuple

from t2forms import csa, linalg
from t2forms.csa import AlgebraError, t1_vector
from t2forms.fields import (
    GF2, FieldError, fresh_gen_name, monic_divisors, poly_add, poly_deg, poly_divmod, poly_eval,
    poly_gcd, poly_mul, poly_scale, poly_trim,
)
from t2forms.quadform import (
    FormError, QuadraticForm, SingularForm, WittClass, arf_sum, block_decompose, radical,
)


class SearchSpaceTooLarge(FormError):
    """An exhaustive oracle refused a field or form too large to search."""


class DimensionTooLarge(FormError):
    """A Clifford oracle refused a form of too many generators."""


def mat_mul(field, A, B):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if field.is_zero(a):
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if not field.is_zero(b):
                    Oi[j] = field.add(Oi[j], field.mul(a, b))
    return out


def mat_vec(field, A, v):
    out = []
    for row in A:
        acc = field.zero
        for a, x in zip(row, v):
            if not field.is_zero(a) and not field.is_zero(x):
                acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


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
        q = QuadraticForm(f, diag, polar)
        if not kernel(f, polar, dim):
            return q


def mul_by_coefficients(level, x, y):
    """x * y in a level by its coordinates over the parent: schoolbook
    product, then reduction of the top coefficients by the defining
    polynomial, with the parent's products taken the same way down to
    GF(2).  No multiply of the level or of its ancestors is called."""
    par = level.parent
    if par is None:
        return x & y
    d = level.rel_degree
    xs = level.coeffs(x)
    ys = level.coeffs(y)
    prod = [0] * (2 * d - 1)
    for i, xc in enumerate(xs):
        if xc:
            for j, yc in enumerate(ys):
                if yc:
                    prod[i + j] ^= mul_by_coefficients(par, xc, yc)
    # reduce with gen**d = sum(poly[i] * gen**i), i < d
    low = level.poly[:-1]
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i, pc in enumerate(low):
                if pc:
                    prod[k - d + i] ^= mul_by_coefficients(par, c, pc)
    return level.from_coeffs(prod[:d])


def pow_by_coefficients(level, x, e):
    """x**e by square and multiply on :func:`mul_by_coefficients`."""
    r = 1
    while e:
        if e & 1:
            r = mul_by_coefficients(level, r, x)
        x = mul_by_coefficients(level, x, x)
        e >>= 1
    return r


def crossed_product_table(E, F, phi):
    """The full structure table of the crossed product of E/F with
    cocycle table phi, every entry built up front:
    (u_i e_s)(u_j e_t) = u_(i+j) phi(i,j) sigma^j(e_s) e_t."""
    n = E.degree_over(F)
    basis = E.basis_over(F)
    sig = [[E.relative_frobenius(F, e, j) for e in basis] for j in range(n)]
    table = {}
    for i in range(n):
        for s in range(n):
            for j in range(n):
                for t in range(n):
                    w = E.mul(E.mul(phi[i][j], sig[j][s]), basis[t])
                    coords = E.coords_over(F, w)
                    table[(i * n + s, j * n + t)] = tuple(
                        (((i + j) % n) * n + r, c) for r, c in enumerate(coords) if c
                    )
    return table


class SplittingRep(NamedTuple):
    """Sparse matrix images of the algebra basis over a splitting field
    (for commutative algebras: the left regular representation over the
    algebra's own field)."""

    level: object
    size: int
    images: list  # {(row, col): value} per basis vector


_AS_EXTENSIONS = {}


def artin_schreier_extension(level, b):
    """The level over ``level`` with generator y, y^2 + y = b, built once
    per (level, b).  The caller has found that ``artin_schreier_solve(b)``
    is None, so the quadratic has no root there and is irreducible."""
    ext = _AS_EXTENSIONS.get((level, b))
    if ext is None:
        ext = level.extend((b, 1, 1), fresh_gen_name(level), _irreducible=True)
        _AS_EXTENSIONS[(level, b)] = ext
    return ext


_REPS = weakref.WeakKeyDictionary()


def splitting_rep(A):
    """The splitting representation of a constructed algebra, built once
    per algebra (or attached by :func:`with_kronecker_rep`), or None for a
    tensor product or raw structure constants:
    - Mat(n): E_rc acts as the unit matrix at (r, c);
    - Quat(a, b): 2x2 over F, or over F(y), y^2 + y = b, when b is not in
      wp(F), with f = diag(y, y + 1) and e = [[0, 1], [a, 0]];
    - a crossed product: the regular G x G matrices over E, u_i e_s mapping
      column t to row t + i with weight Phi(i,t) sigma^t(e_s);
    - F[x]/(f) and E/F (degree None): the left regular matrices, read off
      the table."""
    if A not in _REPS:
        _REPS[A] = _build_splitting_rep(A)
    return _REPS[A]


def _build_splitting_rep(A):
    f = A.field
    one = f.one
    if A.factors is not None:
        return None
    if A.crossed_data is not None:
        E, n, phi, sig = (A.crossed_data[k] for k in ("E", "n", "phi", "sig"))
        images = [
            {((i + t) % n, t): E.mul(phi[i][t], sig[t][s]) for t in range(n)}
            for i in range(n)
            for s in range(n)
        ]
        return SplittingRep(E, n, images)
    if A.degree is None:
        images = [
            {(k, j): c for j in range(A.dim) for k, c in A.product(i, j)} for i in range(A.dim)
        ]
        return SplittingRep(f, A.dim, images)
    if A.label.startswith("Mat("):
        n = A.degree
        return SplittingRep(f, n, [{divmod(k, n): one} for k in range(n * n)])
    if A.label.startswith("Quat("):
        a = dict(A.product(1, 1))[0]
        b = dict(A.product(2, 2)).get(0, f.zero)
        lam = f.artin_schreier_solve(b)
        lvl = f
        if lam is None:
            lvl = artin_schreier_extension(f, b)
            lam = lvl.gen
        lam1 = lvl.add(lam, lvl.one)
        images = [
            {(0, 0): one, (1, 1): one},
            {(0, 1): one, (1, 0): a},
            {(0, 0): lam, (1, 1): lam1},
            {(0, 1): lam1, (1, 0): lvl.mul(a, lam)},
        ]
        return SplittingRep(lvl, 2, images)
    return None


def sparse_trace(field, entries):
    acc = field.zero
    for (r, c), v in entries.items():
        if r == c:
            acc = field.add(acc, v)
    return acc


def sparse_second_coefficient(field, entries):
    """Sum of the principal 2x2 minors of a {(row, col): value} matrix,
    the second elementary symmetric function of the eigenvalues (signs
    are immaterial here)."""
    acc = field.zero
    running = field.zero
    for (r, c), v in sorted(entries.items()):
        if r == c and not field.is_zero(v):
            acc = field.add(acc, field.mul(v, running))
            running = field.add(running, v)
    for (r, c), v in entries.items():
        if r < c:
            w = entries.get((c, r))
            if w is not None and not field.is_zero(w):
                acc = field.add(acc, field.mul(v, w))
    return acc


def table_diagonals(A):
    """t1 and t2 of every basis vector e_i from its left regular matrix,
    whose column j is the table entry e_i e_j: the oracle for the closed
    forms of a commutative quotient and an extension algebra, which are
    their own left regular representations."""
    f = A.field
    mats = [{(k, j): c for j in range(A.dim) for k, c in A.product(i, j)} for i in range(A.dim)]
    return [sparse_trace(f, m) for m in mats], [sparse_second_coefficient(f, m) for m in mats]


def table_trace_products(A):
    """Trd(e_i e_j) for every basis pair by the structure constants: the
    sum over e_i e_j = sum v_k e_k of v_k t1(e_k), with t1 from
    :func:`table_diagonals`, as rows of the field's ``linalg.row_ring``."""
    f = A.field
    t1 = table_diagonals(A)[0]
    rows = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = f.zero
            for k, v in A.product(i, j):
                acc = f.add(acc, f.mul(v, t1[k]))
            row.append(acc)
        rows.append(row)
    R = linalg.row_ring(f)
    return [R.read(row) for row in rows]


def rep_diagonals(A, rep):
    """t1 and t2 of every basis image of ``rep``, brought down to the
    algebra's field when the representation lives over a proper extension
    of it: the oracle for the closed forms behind ``csa.t1_vector`` and
    ``csa.t2_diagonal``."""
    lvl = rep.level
    out = []
    for coefficient, what in (
        (sparse_trace, "reduced trace"),
        (sparse_second_coefficient, "second trace coefficient"),
    ):
        vals = [coefficient(lvl, img) for img in rep.images]
        if lvl != A.field and any(v >= A.field.order for v in vals):
            raise AlgebraError(f"{what} does not lie in the base field")
        out.append(vals)
    return tuple(out)


def kronecker_rep(A):
    """The splitting representation of A, where a tensor product's is
    the Kronecker product of its factors' (recursively) over the larger
    of the two factor levels; None when a factor has none or the two
    levels do not nest."""
    if A.factors is None:
        return splitting_rep(A)
    ra, rb = (kronecker_rep(X) for X in A.factors)
    if ra is None or rb is None:
        return None
    if ra.level == rb.level or ra.level.is_extension_of(rb.level):
        lvl = ra.level
    elif rb.level.is_extension_of(ra.level):
        lvl = rb.level
    else:
        return None
    m = rb.size
    images = [
        {
            (r1 * m + r2, c1 * m + c2): lvl.mul(v1, v2)
            for (r1, c1), v1 in ia.items()
            for (r2, c2), v2 in ib.items()
        }
        for ia in ra.images
        for ib in rb.images
    ]
    return SplittingRep(lvl, ra.size * m, images)


def with_kronecker_rep(T):
    """T without its factors, its t1 and t2 read off :func:`kronecker_rep`
    (``diagonals``); None when there is none."""
    rep = kronecker_rep(T)
    if rep is None:
        return None
    oracle = csa.Algebra(
        T.field, T.dim, T.product, T.one, label=T.label, degree=T.degree,
        diagonals=lambda: rep_diagonals(T, rep), _identity_known=True,
    )
    _REPS[oracle] = rep
    return oracle


def solve_by_augmented_column(rows, ncols, rhs):
    """One solution of the GF(2) system rows * x = rhs, or None, by one
    elimination with the right hand side as column ``ncols``: the system
    is inconsistent exactly when a pivot lands on that column, and the
    free unknowns are zero."""
    ech = linalg.PackedEchelon(GF2, ncols + 1)
    for i, row in enumerate(rows):
        ech.insert(row | (((rhs >> i) & 1) << ncols))
    if ncols in ech.rows:
        return None
    x = 0
    for p, prow in ech.rows.items():
        x |= ((prow >> ncols) & 1) << p
    return x


def kernel(field, rows, ncols):
    """Kernel basis of the linear map v -> rows * v, rows as lists over
    a finite level, through the packed engine."""
    return linalg.packed_kernel(field, [linalg.pack_row(field, r) for r in rows], ncols)


def kernel_generic(field, rows, ncols):
    """Kernel basis of v -> rows * v by Gauss-Jordan elimination on list
    rows, duck-typed over the field: one basis vector per free column,
    read off the reduced echelon form."""
    work = [list(r) for r in rows if any(not field.is_zero(x) for x in r)]
    red, pivots = [], []
    for c in range(ncols):
        sel = next((i for i, r in enumerate(work) if not field.is_zero(r[c])), None)
        if sel is None:
            continue
        piv = work.pop(sel)
        inv = field.inv(piv[c])
        piv = [field.mul(inv, x) for x in piv]
        for r in red + work:
            f = r[c]
            if not field.is_zero(f):
                for k in range(ncols):
                    r[k] = field.add(r[k], field.mul(f, piv[k]))
        work = [r for r in work if any(not field.is_zero(x) for x in r)]
        red.append(piv)
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, p in zip(red, pivots):
            v[p] = row[free]
        basis.append(v)
    return basis


def oracle_witt_class(q):
    """Witt class and plane count derived from
    :func:`isotropic_split_oracle`."""
    planes, aniso = isotropic_split_oracle(q)
    f = q.field
    rep = f.zero if aniso.dim == 0 else f.wp_class_rep(arf_sum(aniso))
    return WittClass(f, 2 * planes + aniso.dim, rep, 0), planes


def quaternion_split_by_norm_search(field, a, b):
    """Whether [a, b) is split, by search: b in {x**2 + x}, or a a norm
    from the Artin-Schreier extension of b, found by enumerating it.  The
    oracle for ``quadform.quaternion_is_split`` on levels whose extension
    has at most 2^12 elements."""
    if field.wp_member(b):
        return True
    ext = field.extend((b, field.one, field.one), fresh_gen_name(field))
    if ext.order > 1 << 12:
        raise SearchSpaceTooLarge("norm search limited to small fields")
    e = field.order + 1  # the norm map is y -> y**(1+|F|)
    return any(ext.pow(y, e) == a for y in range(1, ext.order))


def artin_schreier_by_fresh_matrix(level, c):
    """A solution of x**2 + x = c, or None, from a squaring matrix built
    anew for this one call: M z = c with M[r][i] = bit r of e_i^2 + e_i."""
    mat = [0] * level.bits
    for i in range(level.bits):
        e = 1 << i
        col = level.square(e) ^ e
        for r in range(level.bits):
            if (col >> r) & 1:
                mat[r] |= 1 << i
    return solve_by_augmented_column(mat, level.bits, c)


def semilinear_solve_by_rows(k, r, target, bound):
    """``rational.semilinear_solve`` by the transposed route: the packed
    image of each unknown bit, transposed into one equation row per image
    bit (``linalg.rows_from_images``) and solved by ``linalg.solve_gf2``.
    Unknowns run by (degree, bit) and the free ones are zero."""
    nbits = k.bits
    deg = max(2 * bound, bound + poly_deg(r), poly_deg(target))
    units = [(k.square(1 << b), linalg.pack_row(k, poly_scale(k, 1 << b, r))) for b in range(nbits)]
    images = [
        (s2 << (2 * j * nbits)) ^ (sr << (j * nbits)) for j in range(bound + 1) for s2, sr in units
    ]
    rows = linalg.rows_from_images(images, (deg + 1) * nbits)
    sol = linalg.solve_gf2(rows, len(images), linalg.pack_row(k, target))
    return None if sol is None else linalg.unpack_row(k, sol, bound + 1)


def cubic_root_by_horner(ff, low_coeffs):
    """The polynomial root of x^3 + c2 x^2 + c1 x + c0 over k(t) that
    ``theorems.galois_obstruction`` reports, by fraction arithmetic: the
    candidates 0, then c d for each monic divisor d of c0 and each scalar
    c = 1, ..., |k| - 1, each made a fraction and evaluated by Horner's
    rule in ``ff``.  ``low_coeffs`` are (c0, c1, c2) as fractions with
    denominator 1."""
    k = ff.coeff
    if ff.is_zero(low_coeffs[0]):
        return ff.zero
    cands = [()]
    for d in monic_divisors(k, low_coeffs[0].num):
        cands += [poly_scale(k, c, d) for c in range(1, k.order)]
    f = tuple(low_coeffs) + (ff.one,)
    for cand in cands:
        r = ff.make(cand)
        if ff.is_zero(poly_eval(ff, f, r)):
            return r
    return None


def _poly_square(field, h):
    """h^2: the squared coefficients go to the even positions."""
    sq = [field.zero] * (2 * len(h) - 1)
    sq[::2] = [field.square(c) for c in h]
    return tuple(sq)


class TupleRing:
    """The polynomials over a field as trimmed coefficient tuples, the
    ring table of ``fields.PolyRing`` on the tuple loops of the
    ``fields.poly_`` helpers, bound to the field.  Over a field that is
    not a ``fields.Level`` those helpers never pack, so this is the
    oracle of the packed ring."""

    def __init__(self, field):
        bind = functools.partial
        self.read, self.write = poly_trim, tuple
        self.one, self.x = (field.one,), (field.zero, field.one)
        self.deg, self.add = poly_deg, bind(poly_add, field)
        self.mul, self.square = bind(poly_mul, field), bind(_poly_square, field)
        self.divmod, self.gcd = bind(poly_divmod, field), bind(poly_gcd, field)
        self.lead, self.scale = operator.itemgetter(-1), bind(poly_scale, field)

    def mod_by(self, d):
        return lambda a: self.divmod(a, d)[1]


class TupleLevel:
    """A finite level seen as a duck-typed field that is not a
    ``fields.Level``: its elements and arithmetic are the level's, but
    the polynomial helpers take their tuple loops over it and its
    ``poly_ring`` is a :class:`TupleRing`, so the factor witness,
    ``find_irreducible`` and ``rational.FunctionField`` over it are the
    oracles of the packed route the level takes."""

    def __init__(self, level):
        self.level = level

    def __getattr__(self, name):
        return getattr(self.level, name)

    def poly_ring(self):
        return TupleRing(self)


class TupleGF2:
    """GF(2) as a duck-typed field that is not ``fields.GF2``: the
    polynomial helpers, the factor witness and ``rational.FunctionField``
    take their coefficient-tuple route over it, so it is the oracle for
    the int route they take over GF2."""

    is_finite = True
    zero, one = 0, 1
    bits, order = 1, 2

    def add(self, x, y):
        return x ^ y

    sub = add

    def mul(self, x, y):
        return x & y

    def square(self, x):
        return x

    sqrt = square

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return 1

    def is_zero(self, x):
        return x == 0

    def random_element(self, rng):
        return rng.randrange(self.order)

    def show(self, x):
        return str(x)

    def poly_ring(self):
        return TupleRing(self)


TUPLE_GF2 = TupleGF2()


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def tables_by_power_test(level):
    """(exp, log) of a table-backed level the way they were first built:
    the generator is the least candidate g >= 2 with g^(n/p) != 1 for
    every prime p dividing n = order - 1, and the exp table is walked by
    :func:`mul_by_coefficients`, which shares no code with the level's
    multiply."""
    n = level.order - 1
    if n == 1:
        return [1], [0, 0]
    primes = _prime_factors(n)
    g = None
    for cand in range(2, level.order):
        if all(pow_by_coefficients(level, cand, n // p) != 1 for p in primes):
            g = cand
            break
    assert g is not None
    exp = [1] * n
    cur = 1
    for i in range(1, n):
        cur = mul_by_coefficients(level, cur, g)
        exp[i] = cur
    log = [0] * level.order
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


class ListRowLevel:
    """A finite level seen as a field that is not finite: every
    attribute but ``is_finite`` is the level's, so forms over it hold
    list rows (``linalg.ListRows``) of the level's elements.  It is the
    oracle for the packed rows that forms over the level itself hold."""

    is_finite = False

    def __init__(self, level):
        self.level = level

    def __getattr__(self, name):
        return getattr(self.level, name)


def as_list_rows(q):
    """The form q over :class:`ListRowLevel` of its level."""
    return QuadraticForm(ListRowLevel(q.field), q.diag, q.polar)


class ReferenceDecomposition(NamedTuple):
    """What :func:`reference_decompose` finds: the blocks and radical
    diagonal under the attribute names of ``quadform.Decomposition``, and
    the change of basis that realizes them, which ``quadform`` does not
    track: the pairs (u, v) with q(u) = a, q(v) = b and b(u, v) = 1 for
    each block [a, b], and the radical rows."""

    blocks: list
    pairs: list
    radical_rows: list
    radical_diag: list

    @property
    def radical_dim(self):
        return len(self.radical_rows)


def reference_decompose(q):
    """The symplectic reduction entry by entry on dense list rows,
    duck-typed over the field, carrying its basis: the reference for
    ``quadform.block_decompose``."""
    f = q.field
    n = q.dim
    B = [q.polar_row(i) for i in range(n)]
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
    return ReferenceDecomposition(blocks, pairs, rad_rows, rad_diag)


# -- polynomial roots by enumeration -------------------------------------


def poly_roots(field, p):
    """All roots in the coefficient field, with multiplicity.

    Exhaustive evaluation; the field must be small enough to enumerate.
    """
    p = poly_trim(p)
    if not p:
        raise FieldError("zero polynomial has every element as a root")
    roots = []
    for x in field.elements():
        if field.is_zero(poly_eval(field, p, x)):
            q = p
            while True:
                quot, rem = poly_divmod(field, q, (x, field.one))
                if rem:
                    break
                roots.append(x)
                q = quot
    return roots


# -- quadratic-form oracles ----------------------------------------------


def is_nonsingular(q):
    return block_decompose(q).radical_dim == 0


def isotropic_split_oracle(q):
    """Independent classification oracle: exhaustively find isotropic
    vectors, split off hyperbolic planes, recurse.  Returns the number
    of planes and the terminal anisotropic form."""
    f = q.field
    if not getattr(f, "is_finite", False) or f.order > 8:
        raise SearchSpaceTooLarge("oracle limited to field order <= 8")
    if q.dim > 6:
        raise SearchSpaceTooLarge("oracle limited to dimension <= 6")
    if radical(q):
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
        comp = kernel(f, rows, cur.dim)
        cur = cur.restricted(comp)
        planes += 1
    return planes, cur


def _unit(f, n, k):
    e = [f.zero] * n
    e[k] = f.one
    return e


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
                bsj = self.form.polar_entry(s, j)
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
    if q.dim > 10:
        raise DimensionTooLarge("Clifford construction capped at 10 generators")
    f = q.field
    words = CliffordWords(q)
    dim = 1 << q.dim

    def product(i, j):
        return tuple(words.mul_words(i, j).items())

    degree = None
    even = q.dim % 2 == 0
    if even and q.dim and is_nonsingular(q):
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
    if radical(q):
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


# -- algebra oracles: traces from the definition, the dense CSA checks ---


def splitting_matrix(A, x):
    """The image of x under the algebra's splitting representation, as a
    dense matrix over the representation field."""
    rep = splitting_rep(A)
    if rep is None:
        raise AlgebraError("algebra carries no splitting representation")
    lvl = rep.level
    mat = [[lvl.zero] * rep.size for _ in range(rep.size)]
    for k, xk in enumerate(x):
        if xk:
            for (r, c), v in rep.images[k].items():
                mat[r][c] = lvl.add(mat[r][c], lvl.mul(xk, v))
    return mat


def element_from(A, pairs):
    """The coordinate vector of sum c e_k over the pairs (k, c)."""
    v = [A.field.zero] * A.dim
    for k, c in pairs:
        v[k] = A.field.add(v[k], c)
    return v


def element_mul(A, x, y):
    """x y for coordinate vectors of A, through its structure constants."""
    f = A.field
    out = [f.zero] * A.dim
    for i, xi in enumerate(x):
        if f.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if f.is_zero(yj):
                continue
            c = f.mul(xi, yj)
            for k, v in A.product(i, j):
                out[k] = f.add(out[k], f.mul(c, v))
    return out


def element_add(A, x, y):
    return [A.field.add(a, b) for a, b in zip(x, y)]


def scalar_mul(A, c, x):
    return [A.field.mul(c, v) for v in x]


def random_element(A, rng):
    return [A.field.random_element(rng) for _ in range(A.dim)]


def from_coords_over(level, sub, coords):
    """The element of ``level`` with the given coordinates in its product
    basis over ``sub``: the inverse of ``Level.coords_over``."""
    level.degree_over(sub)  # FieldError unless sub is a sublevel
    v = 0
    for i, c in enumerate(coords):
        v |= c << (sub.bits * i)
    return v


def rep_trace_products(A):
    """Trd(e_i e_j) for every basis pair from the splitting
    representation, as rows of the field's ``linalg.row_ring``: the
    oracle for ``csa._trace_products``, which reads no representation.
    Trd(e_i e_j) = tr(rho_i rho_j) is the sum over positions (r, c) of
    rho_i[r, c] rho_j[c, r], found through an index from each position to
    the images with an entry there."""
    f = A.field
    rep = splitting_rep(A)
    lvl = rep.level
    out = [{} for _ in range(A.dim)]
    at = {}
    for j, img in enumerate(rep.images):
        for pos, w in img.items():
            at.setdefault(pos, []).append((j, w))
    for i, img in enumerate(rep.images):
        row = out[i]
        for (r, c), v in img.items():
            for j, w in at.get((c, r), ()):
                if j >= i:
                    row[j] = lvl.add(row.get(j, lvl.zero), lvl.mul(v, w))
        for j, v in row.items():
            if j > i:
                out[j][i] = v
    if lvl != f and any(v >= f.order for row in out for v in row.values()):
        raise AlgebraError("reduced trace of a basis product does not lie in the base field")
    R = linalg.row_ring(f)
    return [R.sparse(row.items(), A.dim) for row in out]


def t1_of(A, x):
    f = A.field
    t1 = t1_vector(A)
    acc = f.zero
    for k, xk in enumerate(x):
        if not f.is_zero(xk) and not f.is_zero(t1[k]):
            acc = f.add(acc, f.mul(xk, t1[k]))
    return acc


def b_t2(A, x, y):
    """Polar form of the second trace coefficient, computed from traces:
    b(x, y) = t1(x y) + t1(x) t1(y)."""
    f = A.field
    return f.add(t1_of(A, element_mul(A, x, y)), f.mul(t1_of(A, x), t1_of(A, y)))


def _first_nonassociative_triple(A, triples):
    """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    or None."""
    for i, j, k in triples:
        lhs = element_mul(A, element_from(A, A.product(i, j)), A.basis_vector(k))
        rhs = element_mul(A, A.basis_vector(i), element_from(A, A.product(j, k)))
        if lhs != rhs:
            return (i, j, k)
    return None


def _center_rank(A):
    """Rank of the stacked commutation constraints; the center is its
    kernel.  The constructors certify their centers without it; it stays
    as the oracle behind :func:`sanity_check_csa`."""
    f = A.field
    m = A.dim
    ech = linalg.PackedEchelon(f, m)
    bits = f.bits
    for i in range(m):
        rows = {}
        for j in range(m):
            shift = j * bits
            for pairs in (A.product(i, j), A.product(j, i)):
                for k, v in pairs:
                    rows[k] = rows.get(k, 0) ^ (v << shift)
        for row in rows.values():
            if row:
                ech.insert(row)
    return ech


def sanity_check_csa(A, sample_triples=None, rng=None):
    """Report-valued checker: associativity, identity laws, perfect
    square dimension, trivial center.  Returns a dict with pass/fail and
    witnesses rather than raising."""
    report = {"passed": True, "failures": [], "dim": A.dim}
    root = int(round(A.dim**0.5))
    if root * root != A.dim:
        report["passed"] = False
        report["failures"].append(("dimension", f"{A.dim} is not a perfect square"))
    k = A._identity_failure()
    if k is not None:
        report["passed"] = False
        report["failures"].append(("identity", k))
    if sample_triples is None and A.dim <= 32:
        triples = itertools.product(range(A.dim), repeat=3)
    else:
        import random as _random

        rng = rng or _random.Random(0)
        count = sample_triples or 200
        triples = (
            (rng.randrange(A.dim), rng.randrange(A.dim), rng.randrange(A.dim))
            for _ in range(count)
        )
    bad = _first_nonassociative_triple(A, triples)
    if bad is not None:
        report["passed"] = False
        report["failures"].append(("associativity", bad))
    ech = _center_rank(A)
    center_dim = A.dim - ech.rank
    report["center_dim"] = center_dim
    if center_dim != 1:
        report["passed"] = False
        report["failures"].append(("center", f"dimension {center_dim}"))
    return report
