"""Central simple algebras as structure constant algebras.

An :class:`Algebra` stores its multiplication sparsely: ``product(i, j)``
returns the expansion of e_i e_j as ``((k, value), ...)`` pairs.  Large
algebras (tensor products, Clifford algebras) keep the product lazy so
that nothing quadratic in the dimension is ever materialized besides
the forms themselves; a crossed product memoizes each entry of its
structure table on first use, and F[x]/(f) each power x^k it reads.

Each constructor proves the values t1 and t2 of its basis vectors, the
reduced trace and the second coefficient of the reduced characteristic
polynomial, and passes them as ``diagonals``:

- M_n: t1(E_ab) = [a = b] and t2 = 0, since E_aa is a rank-one
  idempotent (eigenvalues 1, 0, ..., 0) and E_ab, a != b, is nilpotent.
- [a, b): t1 = (0, 0, 1, 0) and t2 = (1, a, b, ab) on 1, e, f, ef.  For
  degree two t2 is the reduced norm, and x**2 + t1(x) x + t2(x) = 0
  reads off e**2 = a, f**2 + f = b and (ef)**2 = ab.
- Crossed products: over E, u_i e_s acts as the weighted permutation
  t -> t + i of weight Phi(i,t) sigma^t(e_s) on column t.  So u_0 e_s is
  diag(sigma^t(e_s)), with t1 = Tr_E/F(e_s) and t2 = e2(sigma^t(e_s));
  u_h e_s, n = 2h, is a product of n/2 transpositions with t2 =
  sum over t < h of the weights on t and t + h; every other i permutes
  in cycles of length at least 3, which give no x^(L-1) or x^(L-2) term.
- F[x]/(f): multiplication by x has characteristic polynomial f, so
  x^i has eigenvalues r^i over the roots r of f, with multiplicity, and
  t1(x^i) = p_i, the power sum, which Newton's identities give from the
  coefficients of f (:func:`_power_sums`).  t2(x^i) is e2 of the left
  regular matrix of x^i, whose column j is x^(i+j) mod f: in
  characteristic two e2 is not a polynomial in the power sums.
- E/F: multiplication by e_s has the conjugates sigma^t(e_s) as
  eigenvalues, sigma the Frobenius of E/F, so t1 = Tr_E/F(e_s) and
  t2 = e2(sigma^t(e_s)), as on the u_0 block of a crossed product.
  The trace form of these two, the Revoy form, comes out of the same
  pipeline.

A tensor product multiplies its factors' values instead.  The polar rows
Trd(e_i e_j) take closed forms (:func:`_trace_products`): unit rows for
matrices, the f coefficient of e_i e_j for quaternions, the trace of E/F
for crossed products and extension algebras, the power sums p_(i+j) for
F[x]/(f), and the factors' Kronecker product for tensors; structure
constants times t1 serve a raw :class:`Algebra` only.
Splitting representations are the tests' oracle for all of these, the
left regular matrices and structure constants of the table for F[x]/(f)
and E/F, and
:func:`reduced_charpoly`, through the left regular representation and
the n-th root, is the independent route for t1 and t2 and the one a raw
:class:`Algebra` takes.

The identity law, 1 e_k = e_k = e_k 1, is certified where an algebra is
built.  Raw structure constants passed to :class:`Algebra` are input
from outside, and the constructor checks the law on every basis vector.
Each constructor below proves it instead: sum E_ii is an identity for
the E_rc product, the identity's rows of a quaternion or commutative
table are literal unit rows, a crossed product's follow from its
normalized cocycle (:func:`crossed_product`), and a tensor product's
identity 1_A (x) 1_B is one because both factors' identities are and
the product is bilinear.

Algebras do not change after construction, apart from internal trace
caches and the crossed-product table memo, whose entries are fixed
values; rebinding an attribute of a finished algebra breaks that
contract.  Verification work on independent algebras can run
concurrently.
"""

from __future__ import annotations

from . import fields, linalg
from .quadform import QuadraticForm
from .records import Frozen


class AlgebraError(ValueError):
    """Base class for algebra construction errors."""


class CocycleInvalid(AlgebraError):
    pass


class DegreeOne(AlgebraError):
    pass


class NotCSA(AlgebraError):
    pass


class Algebra:
    """Finite dimensional associative algebra over a field level.

    ``product`` is a callable ``(i, j) -> ((k, value), ...)`` giving the
    structure constants sparsely.  ``one`` is the coordinate vector of
    the identity, kept as a tuple.  ``degree`` is set for algebras known
    to be central simple of that degree.  ``factors`` is the pair (A, B)
    of a tensor product A (x) B, ``crossed_data`` the extension, cocycle
    and twisted basis of a crossed product.  ``diagonals`` is a callable
    giving the pair (t1 values, t2 values) of the basis, and ``trace_rows``
    one giving the rows Trd(e_i e_j), each by a closed form the
    constructor proves; without them the values come from the factors of
    a tensor product, or else from :func:`reduced_charpoly`.  A constructor that proves the identity law passes ``_identity_known``;
    otherwise it is checked here.
    """

    def __init__(
        self, field, dim, product, one, label="", degree=None,
        *, factors=None, crossed_data=None, diagonals=None, trace_rows=None,
        _identity_known=False,
    ):
        self.field = field
        self.dim = dim
        self.product = product
        self.one = tuple(one)
        self.label = label
        self.degree = degree
        self.factors = factors
        self.crossed_data = crossed_data
        self.diagonals = diagonals
        self.trace_rows = trace_rows
        self._t1 = None
        self._t2diag = None
        if not _identity_known:
            k = self._identity_failure()
            if k is not None:
                raise AlgebraError(f"identity law fails on basis vector {k}")

    def _identity_failure(self):
        """The first basis index k with 1 e_k != e_k or e_k 1 != e_k, or
        None when ``one`` is a two-sided identity."""
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
                    return k
        return None

    def basis_vector(self, k):
        v = [self.field.zero] * self.dim
        v[k] = self.field.one
        return v

    def __repr__(self):
        return f"Algebra({self.label or 'unnamed'}, dim={self.dim} over {self.field!r})"


class ReducedCharPoly(Frozen):
    """Coefficients of the degree-n reduced polynomial of an element.

    ``poly`` is monic, lowest degree first; ``t(i)`` is the coefficient
    of x**(n-i), so t(1) is the reduced trace and t(n) the reduced norm
    (signs are immaterial in characteristic two).
    """

    __slots__ = ("degree", "poly")

    def __init__(self, degree, poly):
        self._set("degree", degree)
        self._set("poly", poly)

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

    def trace_rows():
        # Trd(E_ab E_cd) = [b = c][a = d]: row (a, b) is the unit at (b, a)
        R = linalg.row_ring(field)
        return [R.sparse(((b * n + a, fone),), n * n) for a in range(n) for b in range(n)]

    def diagonals():
        # E_aa is a rank-one idempotent and E_ab, a != b, nilpotent: t1 is
        # 1 exactly on the identity's support, and t2 vanishes
        return list(one), [field.zero] * (n * n)

    # sum E_ii is an identity for the E_rc product over any field
    return Algebra(
        field, n * n, product, one, label=f"Mat({n})", degree=n,
        diagonals=diagonals, trace_rows=trace_rows, _identity_known=True,
    )


def quaternion_algebra(field, a, b):
    """Basis 1, e, f, ef with e**2=a, f**2+f=b, ef+fe=e (a nonzero).

    [a, b) is central simple for every b once a != 0, and the table is
    associative by construction, so nothing is checked but a != 0.
    Associativity: K = F[f]/(f**2+f+b) = F(wp^-1 b) is etale over F with
    the automorphism sigma(f) = f + 1, and ef + fe = e says e f e^-1 =
    f + 1 = sigma(f).  So the table is that of the cyclic algebra
    (K/F, sigma, a) = K + Ke with e k = sigma(k) e and e**2 = a, a
    crossed product whose cocycle takes the values 1 and a in F.  For the
    center: ef + fe = e and f(ef) + (ef)f = ef make ad f kill 1 and f
    and fix e and ef, so x commuting with f lies in F + F f; then
    ef + fe = e forces its f coefficient to 0.
    """
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

    zero = f_.zero

    def diagonals():
        # x**2 + t1(x) x + t2(x): (x + 1)**2 for 1, and for e, f and ef, which
        # are not central, the minimal polynomial: e**2 = a, f**2 + f = b,
        # (ef)**2 = ab
        return [zero, zero, one, zero], [one, a, b, ab]

    def trace_rows():
        # Trd(e_i e_j) is the f coefficient of e_i e_j, as t1 = (0, 0, 1, 0):
        # 1 e_j = e_j; e 1 = e, e e = a, e f = ef, e ef = a f; f 1 = f,
        # f e = e + ef, f f = b + f, f ef = b e; ef 1 = ef, ef e = a + a f,
        # ef f = b e + ef, ef ef = ab
        R = linalg.row_ring(field)
        return [R.read(r) for r in (
            (zero, zero, one, zero), (zero, zero, zero, a),
            (one, zero, one, zero), (zero, a, zero, zero),
        )]

    # the identity is e_0, and product(0, j) = e_j, product(i, 0) = e_i
    # are literal rows of the table
    return Algebra(
        field, 4, product, (one, zero, zero, zero),
        label=f"Quat({field.show(a)},{field.show(b)})", degree=2,
        diagonals=diagonals, trace_rows=trace_rows, _identity_known=True,
    )


def tensor_product(A, B):
    """A tensor B with basis e_i tensor f_j in row-major order."""
    if A.field != B.field:
        raise AlgebraError("tensor factors live over different fields")
    f, nB = A.field, B.dim
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
        return tuple([(k1 * nB + k2, f.mul(v1, v2)) for k1, v1 in pa for k2, v2 in pb])

    one = [f.mul(x, y) if x and y else f.zero for x in A.one for y in B.one]
    degree = A.degree * B.degree if (A.degree and B.degree) else None
    # (1_A (x) 1_B)(e_i (x) f_j) = (1_A e_i) (x) (1_B f_j) = e_i (x) f_j by
    # bilinearity, and on the other side alike: both factor laws held when
    # the factors were built
    return Algebra(
        f, A.dim * nB, product, one,
        label=f"Tensor({A.label},{B.label})",
        degree=degree,
        factors=(A, B),
        _identity_known=True,
    )


def commutative_quotient(field, fpoly, label=None):
    """F[x]/(f) as an algebra with basis 1, x, ..., x^(deg-1).

    ``f`` need not be irreducible; the quotient is then merely etale (or
    worse), which is exactly what the reducible-extension audit needs.
    The values come from the power sums p_k of the roots of f (see
    :func:`_power_sums`): t1(x^i) = p_i and Trd(x^i x^j) = p_(i+j), as
    multiplication by x has characteristic polynomial f.  t2(x^i) is e2 of
    the left regular matrix M_i of x^i, whose column j is x^(i+j) mod f.
    """
    fpoly = fields.poly_monic(field, fpoly)
    d = fields.poly_deg(fpoly)
    if d < 1:
        raise AlgebraError("defining polynomial must have positive degree")
    zero, add, mul, is_zero = field.zero, field.add, field.mul, field.is_zero
    low = fpoly[:d]
    # pows[m] holds the d coordinates of x^m mod f: a multiply by x shifts
    # them up, and the top one comes back as top * (f - x^d)
    cur = [field.one] + [zero] * (d - 1)
    pows = [cur]
    for _ in range(2 * d - 2):
        top = cur[-1]
        cur = [zero] + cur[:-1]
        if not is_zero(top):
            cur = [v if is_zero(c) else add(v, mul(top, c)) for v, c in zip(cur, low)]
        pows.append(cur)
    p = _power_sums(field, low, 2 * d - 1)

    def diagonals():
        # M_i[k][j] = coord_k(x^(i+j)); e2(M_i) is the sum over k < j of
        # M_kk M_jj + M_kj M_jk, the diagonal part by a running sum
        t2 = []
        for i in range(d):
            acc = run = zero
            for j in range(d):
                col = pows[i + j]
                for k in range(j):
                    v = col[k]
                    if not is_zero(v):
                        w = pows[i + k][j]
                        if not is_zero(w):
                            acc = add(acc, mul(v, w))
                v = col[j]
                if not is_zero(v):
                    if not is_zero(run):
                        acc = add(acc, mul(run, v))
                    run = add(run, v)
            t2.append(acc)
        return p[:d], t2

    def trace_rows():
        R = linalg.row_ring(field)
        return [R.read(p[i:i + d]) for i in range(d)]

    # e_i e_j = x^(i+j): one sparse column per power, built on first use
    cols = [None] * (2 * d - 1)

    def product(i, j):
        col = cols[i + j]
        if col is None:
            col = cols[i + j] = tuple((k, c) for k, c in enumerate(pows[i + j]) if not is_zero(c))
        return col

    one = [zero] * d
    one[0] = field.one
    # e_0 e_j = x^j is its own unit column for j < d, which f does not reduce
    return Algebra(
        field, d, product, one, label=label or "quotient",
        diagonals=diagonals, trace_rows=trace_rows, _identity_known=True,
    )


def _power_sums(field, low, m):
    """p_0, ..., p_(m-1), the power sums of the roots of the monic
    f = x^d + c_(d-1) x^(d-1) + ... + c_0 with ``low`` = (c_0, ..., c_(d-1)),
    by Newton's identities.  In characteristic two e_k = c_(d-k), and
    p_k = e_1 p_(k-1) + ... + e_(k-1) p_1 + k e_k for k <= d, where k e_k
    is e_k for odd k and 0 for even k, and p_k = e_1 p_(k-1) + ... +
    e_d p_(k-d) for k > d; p_0 = d mod 2."""
    d, zero, add, mul, is_zero = len(low), field.zero, field.add, field.mul, field.is_zero
    p = [field.one if d % 2 else zero]
    for k in range(1, m):
        acc = low[d - k] if k <= d and k % 2 else zero
        for i in range(1, min(k - 1, d) + 1):
            c, q = low[d - i], p[k - i]
            if not is_zero(c) and not is_zero(q):
                acc = add(acc, mul(c, q))
        p.append(acc)
    return p


def extension_algebra(E, F):
    """The tower extension E/F as an F-algebra on the product basis e_s
    of E over F (whose first vector is 1): the u_0 block of the crossed
    product of E/F.  Multiplication by e_s has the conjugates
    sigma^t(e_s) as eigenvalues, so t1 = Tr_E/F(e_s) and t2 = e2 of the
    conjugates (:func:`_conjugate_sums`), and Trd(e_s e_t) = Tr_E/F(e_s e_t)."""
    sig = _twisted_basis(E, F)
    n = len(sig)
    phi = [[E.one] * n] * n  # the trivial cocycle; block 0 reads Phi(0, 0)
    basis = sig[0]

    def product(i, j):
        w = E.mul(basis[i], basis[j])
        return tuple((k, c) for k, c in enumerate(E.coords_over(F, w)) if c)

    one = [F.zero] * n
    one[0] = F.one
    # basis[0] = 1, so e_0 e_j = basis[j], whose coordinates are e_j
    return Algebra(
        F, n, product, one, label=f"{E!r}/{F!r}",
        diagonals=lambda: _conjugate_sums(E, sig),
        trace_rows=lambda: _crossed_trace_rows(E, F, phi, sig, block=0),
        _identity_known=True,
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

    The center is F by construction, so no commutator scan runs.  If
    x = sum u_i c_i commutes with a primitive element theta of E/F, then
    theta u_i = u_i sigma^i(theta) gives c_i (sigma^i(theta) + theta) = 0,
    so c_i = 0 for every i != 0 once sigma^i is not the identity; and
    c_0 commutes with u_1, so sigma(c_0) = c_0 and c_0 lies in F.  The
    one hypothesis this uses that nothing else checks, sigma^j != id on E
    for 0 < j < n, is read off the twisted basis; the tests keep the
    dense scan as the oracle (``sanity_check_csa`` in ``tests/support.py``).

    The identity law holds by construction too, so the constructor's
    basis-vector check does not run.  The identity is u_0 e_0 with
    e_0 = 1, the first vector of the product basis, and the table has
    been checked to be normalized, Phi(0, j) = Phi(i, 0) = 1.  Then
    (u_0 1)(u_j d) = u_j Phi(0, j) sigma^j(1) d = u_j d and
    (u_i c)(u_0 1) = u_i Phi(i, 0) sigma^0(c) 1 = u_i c.
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
    sig = _twisted_basis(E, F)
    basis_E = sig[0]
    # the center argument needs sigma of order n; sigma^j is F-linear, so
    # its images of the basis decide whether it is the identity
    for j in range(1, n):
        if sig[j] == sig[0]:
            raise NotCSA(f"sigma^{j} is the identity on E; the center is larger than F")

    # the cocycle identity; associativity on the basis triples
    # (u_i e_s, u_j e_t, u_k e_r) is this identity times sig^(j+k)(e_s) sig^k(e_t);
    # y runs through sigma^k(Phi(i,j)), one step of sigma per k
    if cocycle != "trivial":  # all ones: sigma(1) = 1 makes both sides 1
        for i in range(n):
            for j in range(n):
                y = phi[i][j]
                for k in range(n):
                    if k:
                        y = E.relative_frobenius(F, y)
                    lhs = E.mul(phi[(i + j) % n][k], y)
                    if lhs != E.mul(phi[i][(j + k) % n], phi[j][k]):
                        raise CocycleInvalid(f"associativity fails on group triple ({i},{j},{k})")

    dim = n * n
    # each entry is computed on first use: the identity check reads a
    # small part of the n^4 table and the trace forms none of it
    table = {}

    def product(a, b):
        entry = table.get((a, b))
        if entry is None:
            i, s = divmod(a, n)
            j, t = divmod(b, n)
            w = E.mul(E.mul(phi[i][j], sig[j][s]), basis_E[t])
            base = ((i + j) % n) * n
            entry = tuple((base + r, c) for r, c in enumerate(E.coords_over(F, w)) if c)
            table[(a, b)] = entry
        return entry

    one = [F.zero] * dim
    one[0] = F.one  # u_id * 1
    return Algebra(
        F, dim, product, one,
        label=label or f"Crossed({E!r}/{F!r})", degree=n,
        crossed_data={"E": E, "F": F, "n": n, "phi": phi, "basis_E": basis_E, "sig": sig},
        diagonals=lambda: _crossed_diagonals(E, F, phi, sig),
        trace_rows=lambda: _crossed_trace_rows(E, F, phi, sig),
        _identity_known=True,
    )


def _twisted_basis(E, F):
    """sig[t][s] = sigma^t(e_s) for the product basis e_s of E over F and
    t < n = [E:F], sigma the Frobenius of E/F: one step of sigma per entry."""
    sig = [E.basis_over(F)]
    for _ in range(1, E.degree_over(F)):
        sig.append([E.relative_frobenius(F, e) for e in sig[-1]])
    return sig


def _conjugate_sums(E, sig):
    """For each s, the sum and the second elementary symmetric function
    of the conjugates sigma^t(e_s), t < n: Tr_E/F(e_s) and e2 by a running
    sum, acc += run * w before run += w."""
    t1, t2 = [], []
    for s in range(len(sig)):
        acc = run = 0
        for row in sig:
            if run:
                acc ^= E.mul(run, row[s])
            run ^= row[s]
        t1.append(run)
        t2.append(acc)
    return t1, t2


def _crossed_diagonals(E, F, phi, sig):
    """t1 and t2 of the basis u_i e_s of a crossed product.  Over E,
    u_i e_s maps column t to row t + i with weight w_t = Phi(i,t) sigma^t(e_s).
    For i = 0 that is diag(w_t), w_t = sigma^t(e_s) as Phi is normalized:
    t1 = Tr_E/F(e_s) and t2 = e2(w) (:func:`_conjugate_sums`).  For i = n/2 = h the
    permutation is the n/2 transpositions (t, t + h), and t2 is the sum over
    t < h of w_t w_(t+h), the principal 2x2 minors.  Every other i has no
    diagonal entry and no 2-cycle, so t1 = t2 = 0.  The values lie in F
    for a valid cocycle; an AlgebraError says otherwise."""
    n, one = len(phi), E.one
    t1, t2 = [0] * (n * n), [0] * (n * n)
    t1[:n], t2[:n] = _conjugate_sums(E, sig)
    if n % 2 == 0:
        h = n // 2
        pair = [E.mul(phi[h][t], phi[h][t + h]) for t in range(h)]
        for s in range(n):
            acc = 0
            for t, c in enumerate(pair):
                w = E.mul(sig[t][s], sig[t + h][s])
                acc ^= w if c == one else E.mul(c, w)
            t2[h * n + s] = acc
    if any(v >= F.order for v in t1):
        raise AlgebraError("reduced trace does not lie in the base field")
    if any(v >= F.order for v in t2):
        raise AlgebraError("second trace coefficient does not lie in the base field")
    return t1, t2


def _crossed_trace_rows(E, F, phi, sig, block=None):
    """The packed polar rows of a crossed product (see :func:`_trace_products`).
    c -> (Tr_E/F(c e_t))_t is GF(2)-linear: one ``linalg.linear_map`` from
    the bits of E to a packed row over F, applied to Phi(i,-i)
    sigma^(-i)(e_s) and shifted to block -i for row (i, s).  With ``block``
    only the n rows (block, s) are built, unshifted: their columns are
    those of block -block."""
    n, fb = len(phi), F.bits
    if fb == 1:
        trace = E.trace
    else:  # Tr_E/F(x) is the sum of the sigma^m(x), m < n
        tr = []
        for k in range(E.bits):
            acc = y = 1 << k
            for _ in range(n - 1):
                y = E.relative_frobenius(F, y)
                acc ^= y
            tr.append(acc)
        trace = linalg.linear_map(tr)
    row_of = linalg.linear_map([
        sum(trace(E.mul(1 << k, e)) << (t * fb) for t, e in enumerate(sig[0]))
        for k in range(E.bits)
    ])
    one, rows = E.one, []
    for i in range(n) if block is None else (block,):
        j = -i % n
        c, shift = phi[i][j], (j * n * fb if block is None else 0)
        rows += [row_of(x if c == one else E.mul(c, x)) << shift for x in sig[j]]
    return rows


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


def _times(f, x, ys):
    """x y for every y in ys, with no multiply where x or y is 0 or 1, as
    every trace value of a matrix factor is."""
    if f.is_zero(x):
        return [f.zero] * len(ys)
    one = f.one
    if x == one:
        return list(ys)
    return [x if y == one else y if f.is_zero(y) else f.mul(x, y) for y in ys]


def t1_vector(A):
    """Values of the reduced trace on the basis: on a tensor product,
    t1(a (x) b) = t1(a) t1(b); else the constructor's ``diagonals``; else,
    for raw structure constants, the reduced characteristic polynomial."""
    if A._t1 is None:
        if A.factors is not None:
            f = A.field
            ta, tb = (t1_vector(X) for X in A.factors)
            A._t1 = [v for x in ta for v in _times(f, x, tb)]
        elif A.diagonals is not None:
            A._t1, A._t2diag = A.diagonals()
        else:
            A._t1 = [reduced_charpoly(A, A.basis_vector(k)).t1 for k in range(A.dim)]
    return A._t1


def t2_diagonal(A):
    """Values of the second reduced coefficient on the basis.  On a
    tensor product, t2(a (x) b) = t1(a)^2 t2(b) + t2(a) t1(b)^2: e2 of the
    products alpha_i beta_j of the eigenvalues is e1(alpha)^2 e2(beta) +
    e2(alpha) e1(beta)^2 - 2 e2(alpha) e2(beta).  Other algebras take the
    same sources as :func:`t1_vector`."""
    if A._t2diag is None:
        if A.factors is not None:
            f, one = A.field, A.field.one
            X, Y = A.factors
            sx, sy = (
                [v if v == one or f.is_zero(v) else f.mul(v, v) for v in t1_vector(Z)]
                for Z in (X, Y)
            )
            ty = t2_diagonal(Y)
            out = []
            for s, u in zip(sx, t2_diagonal(X)):
                if f.is_zero(u):
                    out += _times(f, s, ty)
                else:
                    out += map(f.add, _times(f, s, ty), _times(f, u, sy))
            A._t2diag = out
        elif A.diagonals is not None:
            A._t1, A._t2diag = A.diagonals()
        else:
            A._t2diag = [reduced_charpoly(A, A.basis_vector(k)).t2 for k in range(A.dim)]
    return A._t2diag


def _trace_products(A):
    """Trd(e_i e_j) for every basis pair, as one row of the field's
    ``linalg.row_ring`` per i (symmetric in i and j), from the closed
    form a constructor passes as ``trace_rows``, else by the routes below.

    Matrix algebras: Trd(E_ab E_cd) = [b = c][a = d], so row (a, b) is the
    unit at column (b, a).  Crossed products:
    Trd(u_i e_s u_j e_t) = [i + j = 0 mod n] Tr_E/F(Phi(i,j) sigma^j(e_s) e_t),
    as (u_i c)(u_j d) = u_(i+j) Phi(i,j) sigma^j(c) d, and over E the image
    of u_k x has no diagonal entry for k != 0 and is diag(sigma^t(x)) for k = 0.
    Tensor products: Trd((a (x) b)(a' (x) b')) = Trd(a a') Trd(b b'), the
    Kronecker product of the factors' rows.  Quaternion algebras, F[x]/(f)
    and extension algebras pass their rows too, so the rest serves raw
    :class:`Algebra` structure constants only: the sum over
    e_i e_j = sum v_k e_k of v_k t1(e_k), exact in the base field, with
    Trd(e_i^2) = t1(e_i)^2 on the diagonal.
    """
    if A.trace_rows is not None:
        return A.trace_rows()
    f = A.field
    R = linalg.row_ring(f)
    if A.factors is not None:
        ra, rb = (_trace_products(X) for X in A.factors)
        return R.kron(ra, rb, A.factors[1].dim)
    t1 = t1_vector(A)
    out = [{} for _ in range(A.dim)]
    for i in range(A.dim):
        if not f.is_zero(t1[i]):
            out[i][i] = f.mul(t1[i], t1[i])
        for j in range(i + 1, A.dim):
            acc = f.zero
            for k, v in A.product(i, j):
                if not f.is_zero(t1[k]):
                    acc = f.add(acc, f.mul(v, t1[k]))
            if not f.is_zero(acc):
                out[i][j] = out[j][i] = acc
    return [R.sparse(row.items(), A.dim) for row in out]


def t2_form(A):
    """The quadratic form x -> t2(x) on the whole algebra: the basis
    values t2(e_i) and the polar rows b(e_i, e_j) = Trd(e_i e_j) +
    t1(e_i) t1(e_j), rows of the field's ``linalg.row_ring``.  On the
    diagonal the two terms cancel, as b(e_i, e_i) must."""
    f = A.field
    R = linalg.row_ring(f)
    t1 = t1_vector(A)
    T = R.read(t1)
    rows = [R.axpy(row, ti, T) if ti else row for ti, row in zip(t1, _trace_products(A))]
    return QuadraticForm.from_rows(f, list(t2_diagonal(A)), rows)


def trace_zero_subspace(A):
    """Kernel of the reduced trace functional, as a list of sparse basis
    rows, tuples of (column, value) pairs: e_k + (t1(e_k) / t1(e_k0)) e_k0
    for every k other than the first index k0 where the trace is nonzero,
    the pair at k0 left out where it is zero.  ``QuadraticForm.restricted``
    reads them as they are."""
    f = A.field
    t1 = t1_vector(A)
    k0 = next((k for k, v in enumerate(t1) if not f.is_zero(v)), None)
    if k0 is None:
        raise AlgebraError("reduced trace vanishes identically")
    inv = f.inv(t1[k0])
    one, mul = f.one, f.mul
    return [((k0, mul(t, inv)), (k, one)) if t else ((k, one),) for k, t in enumerate(t1) if k != k0]


def t2_form_of_degree(A, n):
    """t2 on the whole algebra for even n, restricted to the trace-zero
    hyperplane for odd n: the second trace form of a central simple
    algebra of degree n, or the Revoy form of a commutative algebra of
    dimension n."""
    q = t2_form(A)
    if n % 2 == 0:
        return q
    return q.restricted(trace_zero_subspace(A))


def second_trace_form(A):
    """The reduced second trace form: t2 on the whole algebra for even
    degree, restricted to the trace-zero hyperplane for odd degree."""
    if A.degree is None:
        raise NotCSA("second trace form needs a central simple algebra")
    if A.degree == 1:
        raise DegreeOne("the degree-one algebra is excluded")
    return t2_form_of_degree(A, A.degree)


def b_subspace_form(A):
    """t2 restricted to span{u_rho e : rho**2 = id, rho != id} of a
    crossed product; the zero-dimensional form when the degree is odd.
    For n = 2h that is the block u_h e_t, built on its own: its values are
    a slice of :func:`t2_diagonal`, and as t1 vanishes on it its polar
    rows are the trace rows of block h, whose support is block h again."""
    data = A.crossed_data
    if data is None:
        raise AlgebraError("not a crossed product")
    n = data["n"]
    if n % 2:
        return QuadraticForm(A.field, [], [])
    h = n // 2
    rows = _crossed_trace_rows(data["E"], data["F"], data["phi"], data["sig"], block=h)
    return QuadraticForm.from_rows(A.field, t2_diagonal(A)[h * n:(h + 1) * n], rows)
