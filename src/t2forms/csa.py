"""Central simple algebras as structure constant algebras.

An :class:`Algebra` stores its multiplication sparsely: ``product(i, j)``
returns the expansion of e_i e_j as ``((k, value), ...)`` pairs.  Large
algebras (tensor products, Clifford algebras) keep the product lazy so
that nothing quadratic in the dimension is ever materialized besides
the forms themselves.

Constructed algebras carry a splitting representation: matrix algebras
act on columns, quaternions get an explicit 2x2 representation over the
Artin-Schreier extension of their second slot, cyclic crossed products
get the regular G x G matrix over E, and tensor products combine factor
representations as Kronecker products.  Commutative algebras (F[x]/(f)
and tower extensions E/F) carry their left regular representation, so
their trace form, the Revoy form, comes out of the same pipeline.  The representation makes trace
forms of large algebras cheap; the independent route through the left
regular representation and the polynomial n-th root stays available as
:func:`reduced_charpoly` and the two are cross-checked in the tests.

Algebras are immutable after construction apart from internal trace
caches; verification work on independent algebras can run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import fields, linalg
from .quadform import QuadraticForm


class AlgebraError(ValueError):
    """Base class for algebra construction errors."""


class CocycleInvalid(AlgebraError):
    pass


class DegreeOne(AlgebraError):
    pass


class NotCSA(AlgebraError):
    pass


class SplittingRep:
    """Sparse matrix images of the algebra basis over a splitting field
    (for commutative algebras: the left regular representation over the
    algebra's own field)."""

    def __init__(self, level, size, images):
        self.level = level
        self.size = size
        self.images = images  # list of {(row, col): value} dicts

    def image(self, coords):
        lvl = self.level
        out = {}
        for k, x in enumerate(coords):
            if not x:
                continue
            for pos, v in self.images[k].items():
                w = lvl.add(out.get(pos, 0), lvl.mul(x, v))
                if w:
                    out[pos] = w
                else:
                    out.pop(pos, None)
        return out

    def dense(self, coords):
        img = self.image(coords)
        n = self.size
        mat = [[self.level.zero] * n for _ in range(n)]
        for (r, c), v in img.items():
            mat[r][c] = v
        return mat


class Algebra:
    """Finite dimensional associative algebra over a field level.

    ``product`` is a callable ``(i, j) -> ((k, value), ...)`` giving the
    structure constants sparsely.  ``one`` is the coordinate vector of
    the identity.  ``degree`` is set for algebras known to be central
    simple of that degree.
    """

    def __init__(self, field, dim, product, one, label="", degree=None, is_csa=False, rep=None):
        self.field = field
        self.dim = dim
        self.product = product
        self.one = list(one)
        self.label = label
        self.degree = degree
        self.is_csa = is_csa
        self.rep = rep
        self._t1 = None
        self._t2diag = None
        self._check_identity()

    def _check_identity(self):
        f = self.field
        support = [(i, x) for i, x in enumerate(self.one) if not f.is_zero(x)]
        for k in range(self.dim):
            for left in (True, False):
                acc = {}
                for i, x in support:
                    pairs = self.product(i, k) if left else self.product(k, i)
                    for kk, v in pairs:
                        w = f.add(acc.get(kk, f.zero), f.mul(x, v))
                        if f.is_zero(w):
                            acc.pop(kk, None)
                        else:
                            acc[kk] = w
                if acc != {k: f.one}:
                    raise AlgebraError(f"identity law fails on basis vector {k}")

    def basis_vector(self, k):
        v = [self.field.zero] * self.dim
        v[k] = self.field.one
        return v

    def mul(self, x, y):
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if f.is_zero(yj):
                    continue
                c = f.mul(xi, yj)
                for k, v in self.product(i, j):
                    out[k] = f.add(out[k], f.mul(c, v))
        return out

    def add(self, x, y):
        return [self.field.add(a, b) for a, b in zip(x, y)]

    def scalar_mul(self, c, x):
        return [self.field.mul(c, v) for v in x]

    def random_element(self, rng):
        return [self.field.random_element(rng) for _ in range(self.dim)]

    def element_from(self, pairs):
        v = [self.field.zero] * self.dim
        for k, c in pairs:
            v[k] = self.field.add(v[k], c)
        return v

    def __repr__(self):
        return f"Algebra({self.label or 'unnamed'}, dim={self.dim} over {self.field!r})"


@dataclass(frozen=True)
class ReducedCharPoly:
    """Coefficients of the degree-n reduced polynomial of an element.

    ``poly`` is monic, lowest degree first; ``t(i)`` is the coefficient
    of x**(n-i), so t(1) is the reduced trace and t(n) the reduced norm
    (signs are immaterial in characteristic two).
    """

    degree: int
    poly: tuple

    def t(self, i):
        if not 1 <= i <= self.degree:
            raise IndexError("coefficient index out of range")
        return self.poly[self.degree - i]

    @property
    def t1(self):
        return self.t(1)

    @property
    def t2(self):
        return self.t(2) if self.degree >= 2 else 0

    @property
    def nrd(self):
        return self.t(self.degree)


# -- constructors --------------------------------------------------------


def matrix_algebra(field, n):
    """M_n over the field: basis E_(r,c) in row-major order."""
    if n < 1:
        raise AlgebraError("matrix size must be positive")
    one = [field.zero] * (n * n)
    for i in range(n):
        one[i * n + i] = field.one
    fone = field.one

    def product(i, j):
        a, b = divmod(i, n)
        c, d = divmod(j, n)
        if b != c:
            return ()
        return ((a * n + d, fone),)

    images = [{(divmod(k, n)): fone} for k in range(n * n)]
    rep = SplittingRep(field, n, images)
    return Algebra(field, n * n, product, one, label=f"Mat({n})", degree=n, is_csa=True, rep=rep)


def quaternion_algebra(field, a, b):
    """Basis 1, e, f, ef with e**2=a, f**2+f=b, ef+fe=e (a nonzero)."""
    if field.is_zero(a):
        raise AlgebraError("quaternion algebra needs a nonzero first slot")
    f_ = field
    one = f_.one
    ab = f_.mul(a, b)
    table = {
        (1, 1): ((0, a),),
        (1, 2): ((3, one),),
        (1, 3): ((2, a),),
        (2, 1): ((1, one), (3, one)),
        (2, 2): ((0, b), (2, one)),
        (2, 3): ((1, b),),
        (3, 1): ((0, a), (2, a)),
        (3, 2): ((1, b), (3, one)),
        (3, 3): ((0, ab),),
    }

    def product(i, j):
        if i == 0:
            return ((j, one),)
        if j == 0:
            return ((i, one),)
        return table[(i, j)]

    lam = field.artin_schreier_solve(b)
    if lam is not None:
        rep_field = field
    else:
        rep_field = field.extend((b, one, one), fields.fresh_gen_name(field))
        lam = rep_field.gen
    lam1 = rep_field.add(lam, rep_field.one)
    images = [
        {(0, 0): one, (1, 1): one},
        {(0, 1): one, (1, 0): a},
        {(0, 0): lam, (1, 1): lam1},
        {(0, 1): lam1, (1, 0): rep_field.mul(a, lam)},
    ]
    rep = SplittingRep(rep_field, 2, images)
    alg = Algebra(
        field, 4, product, [one, 0, 0, 0],
        label=f"Quat({field.show(a)},{field.show(b)})", degree=2, is_csa=True, rep=rep,
    )
    bad = _first_nonassociative_triple(alg, itertools.product(range(4), repeat=3))
    if bad is not None:
        raise AlgebraError("associativity fails on basis triple ({},{},{})".format(*bad))
    _assert_center_trivial(alg)
    return alg


def tensor_product(A, B):
    """A tensor B with basis e_i tensor f_j in row-major order."""
    if A.field != B.field:
        raise AlgebraError("tensor factors live over different fields")
    f = A.field
    dim = A.dim * B.dim
    nB = B.dim
    prodA, prodB = A.product, B.product

    def product(i, j):
        i1, i2 = divmod(i, nB)
        j1, j2 = divmod(j, nB)
        pa = prodA(i1, j1)
        if not pa:
            return ()
        pb = prodB(i2, j2)
        if not pb:
            return ()
        out = []
        for k1, v1 in pa:
            for k2, v2 in pb:
                out.append((k1 * nB + k2, f.mul(v1, v2)))
        return tuple(out)

    one = [f.zero] * dim
    for k1, x in enumerate(A.one):
        if f.is_zero(x):
            continue
        for k2, y in enumerate(B.one):
            if not f.is_zero(y):
                one[k1 * nB + k2] = f.mul(x, y)
    degree = A.degree * B.degree if (A.degree and B.degree) else None
    rep = _kronecker_rep(A.rep, B.rep)
    return Algebra(
        f, dim, product, one,
        label=f"Tensor({A.label},{B.label})",
        degree=degree, is_csa=A.is_csa and B.is_csa, rep=rep,
    )


def _kronecker_rep(ra, rb):
    if ra is None or rb is None:
        return None
    if ra.level == rb.level:
        lvl = ra.level
    elif ra.level.is_extension_of(rb.level):
        lvl = ra.level
    elif rb.level.is_extension_of(ra.level):
        lvl = rb.level
    else:
        return None
    return _kron_build(lvl, ra, rb)


def _kron_build(lvl, ra, rb):
    n = ra.size * rb.size
    images = []
    for ia in range(len(ra.images)):
        for ib in range(len(rb.images)):
            img = {}
            for (r1, c1), v1 in ra.images[ia].items():
                for (r2, c2), v2 in rb.images[ib].items():
                    img[(r1 * rb.size + r2, c1 * rb.size + c2)] = lvl.mul(v1, v2)
            images.append(img)
    return SplittingRep(lvl, n, images)


def _commutative_algebra(field, d, coords, label):
    """Commutative algebra with basis e_0 = 1, ..., e_(d-1), where
    ``coords(i, j)`` gives the coordinates of e_i e_j.  Its left regular
    representation is its splitting representation: image k is the
    matrix of multiplication by e_k."""
    table = {}
    images = [{} for _ in range(d)]
    for i in range(d):
        for j in range(d):
            pairs = tuple((k, c) for k, c in enumerate(coords(i, j)) if not field.is_zero(c))
            table[(i, j)] = pairs
            for k, c in pairs:
                images[i][(k, j)] = c

    def product(i, j):
        return table[(i, j)]

    one = [field.zero] * d
    one[0] = field.one
    return Algebra(field, d, product, one, label=label, rep=SplittingRep(field, d, images))


def commutative_quotient(field, fpoly, label=None):
    """F[x]/(f) as an algebra with basis 1, x, ..., x^(deg-1).

    ``f`` need not be irreducible; the quotient is then merely etale (or
    worse), which is exactly what the reducible-extension audit needs.
    """
    fpoly = fields.poly_monic(field, fpoly)
    d = fields.poly_deg(fpoly)
    if d < 1:
        raise AlgebraError("defining polynomial must have positive degree")
    pows = []
    cur = (field.one,)
    for _ in range(2 * d - 1):
        pows.append(cur)
        cur = fields.poly_mod(field, fields.poly_mul(field, cur, (field.zero, field.one)), fpoly)
    return _commutative_algebra(field, d, lambda i, j: pows[i + j], label or "quotient")


def extension_algebra(E, F):
    """The tower extension E/F as an F-algebra on the product basis of
    E over F (whose first vector is 1)."""
    basis = E.basis_over(F)
    return _commutative_algebra(
        F, len(basis), lambda i, j: E.coords_over(F, E.mul(basis[i], basis[j])), f"{E!r}/{F!r}"
    )


# -- cyclic crossed products ---------------------------------------------


def cyclic_cocycle(E, F, gamma):
    """The cocycle of the cyclic algebra (E/F, Frobenius, gamma):
    1 below the wrap-around, gamma on it.  ``gamma`` must be a nonzero
    element of the base field F, otherwise the Galois twist breaks the
    cocycle condition."""
    n = E.degree_over(F)
    if E.is_zero(gamma):
        raise CocycleInvalid("cocycle values must be nonzero")
    if gamma >= F.order:
        raise CocycleInvalid("the wrap-around value must lie in the base field")
    return [[E.one if i + j < n else gamma for j in range(n)] for i in range(n)]


def crossed_product(E, F, cocycle="trivial", label=None):
    """Crossed product of the Galois extension E/F with the given
    normalized cocycle table over the Frobenius-power group order.

    Basis: u_i e_t with u_i standing for sigma^i, sigma the Frobenius of
    E/F, and e_t the product basis of E over F; the multiplication is
    (u_i c)(u_j d) = u_(i+j) Phi(i,j) sigma^j(c) d.  The table is rejected
    unless Phi(i+j,k) sigma^k(Phi(i,j)) = Phi(i,j+k) Phi(j,k) for all
    group triples (i,j,k), which is equivalent to associativity on all
    basis triples.
    """
    if not E.is_extension_of(F):
        raise AlgebraError("need a tower extension E/F")
    n = E.degree_over(F)
    if n < 2:
        raise AlgebraError("extension must be proper")
    if cocycle == "trivial":
        phi = [[E.one] * n for _ in range(n)]
    else:
        phi = [list(r) for r in cocycle]
        if len(phi) != n or any(len(r) != n for r in phi):
            raise CocycleInvalid(f"cocycle table must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if E.is_zero(phi[i][j]):
                raise CocycleInvalid("cocycle values must be nonzero")
            if (i == 0 or j == 0) and phi[i][j] != E.one:
                raise CocycleInvalid("cocycle must be normalized on the identity")
    basis_E = E.basis_over(F)
    sig = [[E.relative_frobenius(F, e, j) for e in basis_E] for j in range(n)]

    # the cocycle identity; associativity on the basis triples
    # (u_i e_s, u_j e_t, u_k e_r) is this identity times sig^(j+k)(e_s) sig^k(e_t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = E.mul(phi[(i + j) % n][k], E.relative_frobenius(F, phi[i][j], k))
                if lhs != E.mul(phi[i][(j + k) % n], phi[j][k]):
                    raise CocycleInvalid(f"associativity fails on group triple ({i},{j},{k})")

    dim = n * n
    table = {}
    for i in range(n):
        for s in range(n):
            for j in range(n):
                for t in range(n):
                    w = E.mul(E.mul(phi[i][j], sig[j][s]), basis_E[t])
                    coords = E.coords_over(F, w)
                    entry = tuple(
                        (((i + j) % n) * n + r, c) for r, c in enumerate(coords) if c
                    )
                    table[(i * n + s, j * n + t)] = entry

    def product(i, j):
        return table[(i, j)]

    one = [F.zero] * dim
    one[0] = F.one  # u_id * 1
    images = []
    for i in range(n):
        for s in range(n):
            img = {}
            for t in range(n):
                img[((i + t) % n, t)] = E.mul(phi[i][t], sig[t][s])
            images.append(img)
    rep = SplittingRep(E, n, images)
    alg = Algebra(
        F, dim, product, one,
        label=label or f"Crossed({E!r}/{F!r})", degree=n, is_csa=True, rep=rep,
    )
    _assert_center_trivial(alg)
    alg.crossed_data = {"E": E, "F": F, "n": n, "phi": phi, "basis_E": basis_E}
    return alg


def splitting_matrix(A, x):
    """The image of x under the algebra's splitting representation, as a
    dense matrix over the representation field."""
    if A.rep is None:
        raise AlgebraError("algebra carries no splitting representation")
    return A.rep.dense(x)


# -- trace forms ---------------------------------------------------------


def left_regular_matrix(A, x):
    """Matrix of y -> x y on the algebra basis (column-action)."""
    f = A.field
    m = A.dim
    mat = [[f.zero] * m for _ in range(m)]
    for j in range(m):
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            for k, v in A.product(i, j):
                mat[k][j] = f.add(mat[k][j], f.mul(xi, v))
    return mat


def reduced_charpoly(A, x):
    """Reduced characteristic polynomial through the left regular
    representation: its charpoly is the n-th power of the reduced one."""
    n = A.degree
    if n is None or n * n != A.dim:
        raise fields.NotAPower("algebra is not marked as a central simple algebra")
    cp = linalg.charpoly(A.field, left_regular_matrix(A, x))
    root = fields.poly_nth_root(A.field, cp, n)
    return ReducedCharPoly(n, root)


def _rep_values(A, coefficient, what):
    """A characteristic coefficient of every basis image of the splitting
    representation, brought down to the algebra's field when the
    representation lives over a proper extension of it."""
    lvl = A.rep.level
    vals = [coefficient(lvl, img) for img in A.rep.images]
    if lvl != A.field and any(v >= A.field.order for v in vals):
        raise AlgebraError(f"{what} does not lie in the base field")
    return vals


def t1_vector(A):
    """Values of the reduced trace on the basis."""
    if A._t1 is None:
        if A.rep is not None:
            A._t1 = _rep_values(A, linalg.sparse_trace, "reduced trace")
        else:
            A._t1 = [reduced_charpoly(A, A.basis_vector(k)).t1 for k in range(A.dim)]
    return A._t1


def t2_diagonal(A):
    """Values of the second reduced coefficient on the basis."""
    if A._t2diag is None:
        if A.rep is not None:
            A._t2diag = _rep_values(
                A, linalg.sparse_second_coefficient, "second trace coefficient"
            )
        else:
            A._t2diag = [reduced_charpoly(A, A.basis_vector(k)).t2 for k in range(A.dim)]
    return A._t2diag


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
    return f.add(t1_of(A, A.mul(x, y)), f.mul(t1_of(A, x), t1_of(A, y)))


def t2_form(A):
    """The quadratic form x -> t2(x) on the whole algebra, materialized
    as basis values plus the polar matrix from the trace identity."""
    f = A.field
    m = A.dim
    diag = list(t2_diagonal(A))
    t1 = t1_vector(A)
    polar = [[f.zero] * m for _ in range(m)]
    prod = A.product
    gf2 = getattr(f, "is_finite", False) and f.order == 2
    if gf2:
        for i in range(m):
            ti = t1[i]
            row = polar[i]
            for j in range(i + 1, m):
                acc = ti & t1[j]
                for k, v in prod(i, j):
                    acc ^= v & t1[k]
                if acc:
                    row[j] = acc
                    polar[j][i] = acc
    else:
        fadd, fmul, fzero = f.add, f.mul, f.is_zero
        for i in range(m):
            ti = t1[i]
            row = polar[i]
            for j in range(i + 1, m):
                acc = fmul(ti, t1[j])
                for k, v in prod(i, j):
                    tk = t1[k]
                    if not fzero(v) and not fzero(tk):
                        acc = fadd(acc, fmul(v, tk))
                if not fzero(acc):
                    row[j] = acc
                    polar[j][i] = acc
    return QuadraticForm(f, diag, polar, validate=False)


def trace_zero_subspace(A):
    """Kernel of the reduced trace functional, as a list of sparse basis
    rows: e_k + (t1(e_k) / t1(e_k0)) e_k0 for every k other than the
    first index k0 where the trace is nonzero."""
    f = A.field
    t1 = t1_vector(A)
    k0 = next((k for k, v in enumerate(t1) if not f.is_zero(v)), None)
    if k0 is None:
        raise AlgebraError("reduced trace vanishes identically")
    inv = f.inv(t1[k0])
    rows = []
    for k in range(A.dim):
        if k == k0:
            continue
        row = [f.zero] * A.dim
        row[k] = f.one
        lam = f.mul(t1[k], inv)
        if not f.is_zero(lam):
            row[k0] = lam
        rows.append(row)
    return rows


def second_trace_form(A):
    """The reduced second trace form: t2 on the whole algebra for even
    degree, restricted to the trace-zero hyperplane for odd degree."""
    if A.degree is None:
        raise NotCSA("second trace form needs a central simple algebra")
    if A.degree == 1:
        raise DegreeOne("the degree-one algebra is excluded")
    q = t2_form(A)
    if A.degree % 2 == 0:
        return q
    return q.restricted(trace_zero_subspace(A))


def b_subspace_form(A):
    """t2 restricted to span{u_rho e : rho**2 = id, rho != id} of a
    crossed product; the zero-dimensional form when the degree is odd."""
    data = getattr(A, "crossed_data", None)
    if data is None:
        raise AlgebraError("not a crossed product")
    n = data["n"]
    q = t2_form(A)
    if n % 2:
        return QuadraticForm(A.field, [], [])
    i = n // 2
    rows = []
    for t in range(n):
        row = [A.field.zero] * A.dim
        row[i * n + t] = A.field.one
        rows.append(row)
    return q.restricted(rows)


# -- sanity checking -------------------------------------------------------


def _first_nonassociative_triple(A, triples):
    """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    or None."""
    for i, j, k in triples:
        lhs = A.mul(A.element_from(A.product(i, j)), A.basis_vector(k))
        rhs = A.mul(A.basis_vector(i), A.element_from(A.product(j, k)))
        if lhs != rhs:
            return (i, j, k)
    return None


def _center_rank(A, stop_at=None):
    """Rank of the stacked commutation constraints; the center is its
    kernel.  Stops early once the rank bound is reached."""
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
        if stop_at is not None and ech.rank >= stop_at:
            break
    return ech


def _assert_center_trivial(A):
    ech = _center_rank(A, stop_at=A.dim - 1)
    if ech.rank != A.dim - 1:
        raise NotCSA(f"center has dimension {A.dim - ech.rank}, expected 1")


def sanity_check_csa(A, sample_triples=None, rng=None):
    """Report-valued checker: associativity, identity laws, perfect
    square dimension, trivial center.  Returns a dict with pass/fail and
    witnesses rather than raising."""
    report = {"passed": True, "failures": [], "dim": A.dim}
    root = int(round(A.dim**0.5))
    if root * root != A.dim:
        report["passed"] = False
        report["failures"].append(("dimension", f"{A.dim} is not a perfect square"))
    for k in range(A.dim):
        e = A.basis_vector(k)
        if A.mul(A.one, e) != e or A.mul(e, A.one) != e:
            report["passed"] = False
            report["failures"].append(("identity", k))
            break
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
