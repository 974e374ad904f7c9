import functools
import itertools
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from t2forms import csa, fields, linalg, quadform as qf, rational
from t2forms.fields import GF2, NotAPower

from support import (
    _center_rank, _first_nonassociative_triple, b_t2, crossed_product_table, element_add,
    element_mul, kronecker_rep, mat_mul, random_element, rep_diagonals, rep_trace_products,
    sanity_check_csa, scalar_mul, splitting_matrix, splitting_rep, t1_of, table_diagonals,
    table_trace_products, with_kronecker_rep,
)


def test_matrix_algebra_basics(gf4):
    M1 = csa.matrix_algebra(GF2, 1)
    assert M1.dim == 1 and M1.one == (1,)
    M2 = csa.matrix_algebra(GF2, 2)
    rep = sanity_check_csa(M2)
    assert rep["passed"] and rep["center_dim"] == 1
    M3 = csa.matrix_algebra(GF2, 3)
    assert csa.reduced_charpoly(M3, M3.one).t2 == 1


def test_left_regular_examples():
    M2 = csa.matrix_algebra(GF2, 2)
    assert csa.left_regular_matrix(M2, M2.one) == linalg.identity(GF2, 4)
    L = csa.left_regular_matrix(M2, M2.basis_vector(0))
    assert linalg.charpoly(GF2, L) == (0, 0, 1, 0, 1)  # x^4 + x^2
    Q = csa.quaternion_algebra(GF2, 1, 1)
    Le = csa.left_regular_matrix(Q, Q.basis_vector(1))
    assert mat_mul(GF2, Le, Le) == linalg.identity(GF2, 4)  # e^2 = 1


def test_matrix_algebra_m4_sanity():
    rep = sanity_check_csa(csa.matrix_algebra(GF2, 4), sample_triples=500)
    assert rep["passed"] and rep["center_dim"] == 1


def test_quaternion_trace_vector(gf4):
    # the reduced trace of 1, e, f, ef is 0, 0, 1, 0: the trace-zero
    # space is spanned by 1, e, ef
    Q = csa.quaternion_algebra(gf4, gf4.gen, gf4.gen ^ 1)
    assert csa.t1_vector(Q) == [0, 0, 1, 0]
    rows = [[dict(r).get(c, 0) for c in range(Q.dim)] for r in csa.trace_zero_subspace(Q)]
    assert len(rows) == 3
    for row in rows:
        assert row[2] == 0  # no f component needed


def test_reduced_charpoly_examples(gf4):
    M2 = csa.matrix_algebra(GF2, 2)
    r = csa.reduced_charpoly(M2, [0, 1, 1, 0])
    assert r.poly == (1, 0, 1) and r.t1 == 0 and r.t2 == 1 and r.nrd == 1
    for n in (2, 3, 4, 5):
        Mn = csa.matrix_algebra(GF2, n)
        rI = csa.reduced_charpoly(Mn, Mn.one)
        binom = (n * (n - 1) // 2) % 2
        assert rI.t1 == n % 2
        assert rI.t2 == binom


def test_reduced_charpoly_rejects_non_csa(gf4):
    etale = csa.commutative_quotient(gf4, (gf4.gen, 1, 0, 1))
    with pytest.raises(NotAPower):
        csa.reduced_charpoly(etale, etale.basis_vector(1))


@functools.cache
def _gf2_13():
    return GF2.extend("a^13+a^4+a^3+a+1")


def _draw_scalar(data, F, nonzero=False):
    """An element of a finite level, or of GF(2^k)(t) a fraction whose
    numerator and denominator have degree at most 1."""
    if F.is_finite:
        return data.draw(st.integers(1 if nonzero else 0, F.order - 1))
    k = F.coeff
    el = st.integers(0, k.order - 1)
    num = data.draw(st.lists(el, min_size=2, max_size=2))
    if nonzero and not any(num):
        num[0] = k.one
    return F.make(num, [data.draw(el), data.draw(st.integers(1, k.order - 1))])


def _draw_quotient_poly(data, F):
    """f of degree 1 to 9 over F, drawn as it comes (any coefficients
    below a nonzero lead, so non-monic input too), as a product of two
    such factors, or with repeated roots: x^3 or (x + 1)^2 (x + t), with
    t the generator of a finite F or the variable of GF(2^k)(t)."""
    kind = data.draw(st.sampled_from(["any", "product", "repeated"]))
    if kind == "repeated":
        one, zero = F.one, F.zero
        if data.draw(st.booleans()):
            return (zero, zero, zero, one)
        t = F.gen if F.is_finite else F.t
        return fields.poly_mul(F, (one, zero, one), (t, one))
    if kind == "product":
        d = data.draw(st.integers(1, 4))
        g, h = ([_draw_scalar(data, F) for _ in range(e)] + [_draw_scalar(data, F, True)]
                for e in (d, data.draw(st.integers(1, 9 - d))))
        return fields.poly_mul(F, g, h)
    d = data.draw(st.integers(1, 9))
    return [_draw_scalar(data, F) for _ in range(d)] + [_draw_scalar(data, F, True)]


@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_commutative_quotient_power_sums_match_table_oracle(gf4, gf8, data):
    # t1, t2 and every polar row of F[x]/(f) by power sums equal the values
    # read off the left regular matrices and the structure constants; and
    # p_k = Trd(x^i x^j), i + j = k, is the trace of the left regular
    # matrix of x^k for every k < 2d - 1
    F = data.draw(st.sampled_from(["GF(2)", "GF(4)", "GF(8)", "GF(2^13)", "GF(2)(t)", "GF(4)(t)"]))
    F = {
        "GF(2)": GF2, "GF(4)": gf4, "GF(8)": gf8, "GF(2^13)": _gf2_13(),
        "GF(2)(t)": rational.FunctionField(GF2), "GF(4)(t)": rational.FunctionField(gf4),
    }[F]
    A = csa.commutative_quotient(F, _draw_quotient_poly(data, F))
    d, t1, t2 = A.dim, csa.t1_vector(A), csa.t2_diagonal(A)
    R, rows = linalg.row_ring(F), csa._trace_products(A)
    assert (t1, t2) == table_diagonals(A), A
    assert rows == table_trace_products(A), A
    q = csa.t2_form(A)
    for i in range(d):
        for j in range(d):
            b = F.add(F.mul(t1[i], t1[j]), R.entry(rows[i], j))
            assert q.polar_entry(i, j) == b, (A, i, j)
    for k in range(2 * d - 1):
        i = min(k, d - 1)
        y = A.product(i, k - i)  # x^k
        # column c of the left regular matrix of x^k is x^k e_c
        trace = F.zero
        for c in range(d):
            for m, v in y:
                for r, w in A.product(m, c):
                    if r == c:
                        trace = F.add(trace, F.mul(v, w))
        assert R.entry(rows[i], k - i) == trace, (A, k)


def test_extension_algebra_conjugate_sums_match_table_oracle(gf4, gf8, gf64_tower):
    # t1 = Tr_E/F(e_s), t2 = e2 of the conjugates and the rows Tr_E/F(e_s e_t)
    # equal the values read off E/F's own multiplication table
    gf16 = gf4.extend("b^2+b+a")
    gf64 = GF2.extend("d^6+d+1")
    for E, F in ((gf4, GF2), (gf8, GF2), (gf16, gf4), (gf64_tower, gf4), (gf64, GF2)):
        A = csa.extension_algebra(E, F)
        assert (csa.t1_vector(A), csa.t2_diagonal(A)) == table_diagonals(A), A
        assert csa._trace_products(A) == table_trace_products(A), A


def _algebra_tree(A):
    yield A
    for X in A.factors or ():
        yield from _algebra_tree(X)


def test_constructors_never_read_their_table(gf4, gf8, gf64_tower, monkeypatch):
    # every constructor's t1, t2 and polar rows are closed forms: with the
    # product of an algebra and of all its factors raising, the trace forms
    # of each kind, and of tensors of them, still come out
    M, T = csa.matrix_algebra, csa.tensor_product
    a = gf4.gen
    FF = rational.FunctionField(GF2)
    gf16 = gf4.extend("b^2+b+a")

    def cases():
        Q = csa.quaternion_algebra(gf4, a, a)
        C = csa.crossed_product(gf64_tower, gf4, csa.cyclic_cocycle(gf64_tower, gf4, a))
        Z = csa.commutative_quotient(gf8, (1, 1, 0, 1, 1))
        X = csa.extension_algebra(gf16, gf4)
        return [
            M(gf4, 3), M(FF, 2), Q, csa.quaternion_algebra(FF, FF.t, FF.one), C,
            csa.crossed_product(gf8, GF2), csa.crossed_product(gf16, gf4), Z,
            csa.commutative_quotient(FF, (FF.t, FF.one, FF.zero, FF.one)), X,
            csa.extension_algebra(gf64_tower, GF2), T(Q, M(gf4, 2)), T(C, Q), T(X, Q),
            T(Z, Z), T(csa.commutative_quotient(gf4, (a, 1, 1)), X),
        ]

    def boom(i, j):
        raise AssertionError(f"read the table at ({i}, {j})")

    for A in cases():
        for Y in _algebra_tree(A):
            monkeypatch.setattr(Y, "product", boom)
        csa.t2_form(A)
        if A.degree is None:
            csa.t2_form_of_degree(A, A.dim)
        else:
            csa.second_trace_form(A)
        if A.crossed_data is not None:
            csa.b_subspace_form(A)
    # and the tables are still there for the tests: x^4 = x^3 + x + 1, so
    # x^2 x^3 = x^5 = x^3 + x^2 + 1
    assert cases()[7].product(2, 3) == ((0, 1), (2, 1), (3, 1))


def test_quaternion_examples(gf4):
    Q10 = csa.quaternion_algebra(GF2, 1, 0)
    assert sanity_check_csa(Q10)["passed"]
    Q11 = csa.quaternion_algebra(GF2, 1, 1)
    r = csa.reduced_charpoly(Q11, Q11.basis_vector(2))
    assert (r.t1, r.t2) == (1, 1)
    a = gf4.gen
    Qaa = csa.quaternion_algebra(gf4, a, a)
    ef = Qaa.basis_vector(3)
    assert element_mul(Qaa, ef, ef) == scalar_mul(Qaa, gf4.mul(a, a), Qaa.one)
    with pytest.raises(csa.AlgebraError):
        csa.quaternion_algebra(GF2, 0, 1)


def test_quaternion_splitting_rep(gf4, gf8):
    rng = random.Random(30)
    for fld in (GF2, gf4, gf8):
        for _ in range(8):
            a = fld.random_nonzero(rng)
            b = fld.random_element(rng)
            Q = csa.quaternion_algebra(fld, a, b)
            R = splitting_rep(Q).level
            for _ in range(5):
                x = random_element(Q, rng)
                y = random_element(Q, rng)
                px = splitting_matrix(Q, x)
                py = splitting_matrix(Q, y)
                assert mat_mul(R, px, py) == splitting_matrix(Q, element_mul(Q, x, y))


def test_tensor_examples(gf4):
    M2 = csa.matrix_algebra(GF2, 2)
    T = csa.tensor_product(M2, M2)
    assert T.dim == 16 and T.degree == 4
    rep = sanity_check_csa(T, sample_triples=300)
    assert rep["passed"], rep
    M1 = csa.matrix_algebra(GF2, 1)
    A = csa.tensor_product(M2, M1)
    assert A.dim == 4
    assert qf.witt_class(csa.second_trace_form(A)) == qf.witt_class(csa.second_trace_form(M2))
    with pytest.raises(csa.AlgebraError):
        csa.tensor_product(M2, csa.matrix_algebra(gf4, 2))
    # a tensor carries its factors, not a splitting representation
    assert T.factors[0] is M2 and T.factors[1] is M2
    with pytest.raises(csa.AlgebraError, match="no splitting representation"):
        splitting_matrix(T, T.one)


def test_t2_form_polar_examples():
    M2 = csa.matrix_algebra(GF2, 2)
    e11, e12, e21, e22 = (M2.basis_vector(k) for k in range(4))
    assert b_t2(M2, e11, e22) == 1
    assert b_t2(M2, e12, e21) == 1
    assert b_t2(M2, e11, e12) == 0
    q = csa.t2_form(M2)
    assert q.polar_entry(0, 3) == 1 and q.polar_entry(1, 2) == 1


def test_t2_polar_never_by_polarization_cross_check(gf4):
    # the stored polar must agree with polarization differences of the
    # stored quadratic values, and with the trace identity route
    rng = random.Random(31)
    algebras = [
        csa.matrix_algebra(GF2, 2),
        csa.matrix_algebra(gf4, 3),
        csa.quaternion_algebra(GF2, 1, 1),
        csa.quaternion_algebra(gf4, gf4.gen, gf4.gen),
    ]
    for A in algebras:
        fld = A.field
        q = csa.t2_form(A)
        for _ in range(500):
            x = random_element(A, rng)
            y = random_element(A, rng)
            by_polarization = fld.add(
                fld.add(q.evaluate(element_add(A, x, y)), q.evaluate(x)), q.evaluate(y)
            )
            assert by_polarization == b_t2(A, x, y)
            assert by_polarization == q.bilinear(x, y)


def test_t2_matches_reduced_charpoly_route(gf4, gf8, gf64_tower):
    rng = random.Random(32)
    cyclic = csa.cyclic_cocycle(gf64_tower, gf4, gf4.gen)
    algebras = [
        csa.matrix_algebra(GF2, 2),
        csa.matrix_algebra(GF2, 3),
        csa.quaternion_algebra(gf4, 1, gf4.gen),
        csa.tensor_product(csa.matrix_algebra(GF2, 2), csa.matrix_algebra(GF2, 2)),
        csa.tensor_product(csa.matrix_algebra(GF2, 2), csa.crossed_product(gf4, GF2)),
        csa.tensor_product(
            csa.tensor_product(csa.quaternion_algebra(GF2, 1, 1), csa.matrix_algebra(GF2, 1)),
            csa.crossed_product(gf8, GF2),
        ),
        csa.tensor_product(
            csa.matrix_algebra(gf4, 1),
            csa.tensor_product(
                csa.quaternion_algebra(gf4, gf4.gen, 1), csa.crossed_product(gf64_tower, gf4, cyclic)
            ),
        ),
        _rep_less_tensor(gf4),
        _quat_cubic_tensor(gf4, gf64_tower),
    ]
    for A in algebras:
        q = csa.t2_form(A)
        t1 = csa.t1_vector(A)
        for _ in range(25):
            x = random_element(A, rng)
            r = csa.reduced_charpoly(A, x)
            assert r.t2 == q.evaluate(x)
            assert r.t1 == t1_of(A, x)
        for k in range(A.dim):
            rk = csa.reduced_charpoly(A, A.basis_vector(k))
            assert rk.t1 == t1[k]
            assert rk.t2 == q.diag[k]


def test_q1_rank_zero(gf4):
    # t1(x^2) = t1(x)^2, so the square-trace form has zero polar rank
    rng = random.Random(33)
    for A in (csa.matrix_algebra(GF2, 3), csa.quaternion_algebra(gf4, gf4.gen, 1)):
        fld = A.field
        for _ in range(100):
            x = random_element(A, rng)
            sq = element_mul(A, x, x)
            assert t1_of(A, sq) == fld.mul(t1_of(A, x), t1_of(A, x))


def test_trace_zero_subspace(gf4):
    M3 = csa.matrix_algebra(GF2, 3)
    rows = [[dict(r).get(c, 0) for c in range(M3.dim)] for r in csa.trace_zero_subspace(M3)]
    assert len(rows) == 8
    for row in rows:
        assert t1_of(M3, row) == 0
    # scalars are orthogonal to the trace-zero hyperplane
    q = csa.t2_form(M3)
    for row in rows:
        assert q.bilinear(M3.one, row) == 0


def test_second_trace_form_degrees(gf4):
    M2 = csa.matrix_algebra(GF2, 2)
    T2 = csa.second_trace_form(M2)
    assert T2.dim == 4 and qf.witt_class(T2) == qf.WittClass(GF2, 4, 0, 0)
    M3 = csa.matrix_algebra(GF2, 3)
    T3 = csa.second_trace_form(M3)
    assert T3.dim == 8 and qf.witt_class(T3).arf == 1
    # odd degree restricts to the trace-zero hyperplane
    hyper = csa.trace_zero_subspace(M3)
    assert len(hyper) == 8
    for s in hyper:
        assert t1_of(M3, [dict(s).get(c, 0) for c in range(M3.dim)]) == 0
    a = gf4.gen
    Q = csa.quaternion_algebra(gf4, a, a ^ 1)
    TQ = csa.second_trace_form(Q)
    assert TQ.dim == 4
    ref = qf.direct_sum(
        qf.QuadraticForm.binary(gf4, 1, a ^ 1),
        qf.QuadraticForm.binary(gf4, 1, a ^ 1).scale(a),
    )
    assert qf.witt_class(TQ) == qf.witt_class(ref)
    assert qf.witt_class(TQ).arf == 0
    with pytest.raises(csa.DegreeOne):
        csa.second_trace_form(csa.matrix_algebra(GF2, 1))


def test_crossed_product_construction(gf4, gf8):
    A = csa.crossed_product(gf4, GF2)
    assert A.dim == 4 and A.degree == 2
    assert qf.witt_class(csa.second_trace_form(A)).arf == 0
    B = csa.b_subspace_form(A)
    assert B.dim == 2
    A8 = csa.crossed_product(gf8, GF2)
    assert A8.dim == 9
    assert csa.b_subspace_form(A8).dim == 0
    w = qf.witt_class(csa.second_trace_form(A8))
    assert (w.dim, w.arf) == (8, 1)


def test_lazy_crossed_product_entries_equal_eager_table(gf4, gf64_tower):
    cases = [
        (GF2.extend("d^5+d^2+1"), GF2, "trivial"),
        (gf64_tower, gf4, "cyclic"),
        (gf64_tower, GF2, "trivial"),
    ]
    for E, F, style in cases:
        cocycle = "trivial" if style == "trivial" else csa.cyclic_cocycle(E, F, F.gen)
        A = csa.crossed_product(E, F, cocycle)
        eager = crossed_product_table(E, F, A.crossed_data["phi"])
        assert len(eager) == A.dim**2
        for (a, b), entry in eager.items():
            assert A.product(a, b) == entry, (E, F, style, a, b)


def _count_muls_in_trace_products(monkeypatch):
    """Every Level.mul made inside csa._trace_products after this call
    appends its arguments to the returned list."""
    calls, depth = [], [0]
    mul, trace_products = fields.Level.mul, csa._trace_products

    def counting_mul(self, x, y):
        if depth[0]:
            calls.append((x, y))
        return mul(self, x, y)

    def counting_rows(A):
        depth[0] += 1
        try:
            return trace_products(A)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields.Level, "mul", counting_mul)
    monkeypatch.setattr(csa, "_trace_products", counting_rows)
    return calls


def test_crossed_product_builds_only_the_entries_it_reads(monkeypatch):
    # GF(2^11)/GF(2): the identity is certified by the normalized table
    # and no center scan runs, so the constructor reads none of the
    # 11^4 = 14,641 table entries; each entry read takes one coords_over
    E = GF2.extend("d^11+d^2+1")
    entries = []
    coords_over = E.coords_over

    def counting(sub, x):
        entries.append(x)
        return coords_over(sub, x)

    monkeypatch.setattr(E, "coords_over", counting)
    muls = _count_muls_in_trace_products(monkeypatch)
    A = csa.crossed_product(E, GF2)
    assert entries == []
    assert qf.witt_class(csa.second_trace_form(A)).arf == 1
    assert entries == []  # the trace form reads no structure constants
    # the polar rows take the closed form: at most 4 n^2 multiplies in E,
    # where the join over the representation took 7,381
    assert 0 < len(muls) <= 4 * 11**2
    A.product(12, 25)
    A.product(12, 25)
    assert len(entries) == 1  # built on first use, then memoized


def test_matrix_trace_rows_make_no_multiply(gf4, monkeypatch):
    # Trd(E_ab E_cd) = [b = c][a = d]: every row of Mat(9) is one unit
    muls = _count_muls_in_trace_products(monkeypatch)
    for F in (GF2, gf4):
        A = csa.matrix_algebra(F, 9)
        rows = csa._trace_products(A)
        assert muls == []
        assert rows == rep_trace_products(A)


def test_crossed_product_runs_no_center_scan(monkeypatch):
    inserts = []
    insert = linalg.PackedEchelon.insert
    monkeypatch.setattr(
        linalg.PackedEchelon, "insert", lambda self, row: inserts.append(row) or insert(self, row)
    )
    A = csa.crossed_product(GF2.extend("d^11+d^2+1"), GF2)
    assert A.dim == 121
    assert inserts == []


def test_crossed_product_refuses_a_sigma_of_low_order(monkeypatch):
    # sigma^1 = id on E = GF(8): the center argument fails, and the dense
    # scan on the same structure table finds u_1 central besides 1
    E = GF2.extend("d^3+d+1")
    frobenius = E.relative_frobenius

    def fake(sub, x, power=1):
        return x if power % 3 == 1 else frobenius(sub, x, power)

    monkeypatch.setattr(E, "relative_frobenius", fake)
    with pytest.raises(csa.NotCSA, match="sigma\\^1 is the identity"):
        csa.crossed_product(E, GF2)
    table = crossed_product_table(E, GF2, [[E.one] * 3 for _ in range(3)])
    raw = csa.Algebra(GF2, 9, lambda a, b: table[(a, b)], [1] + [0] * 8, label="raw")
    assert raw.dim - _center_rank(raw).rank > 1


def test_quaternion_table_is_associative_over_gf8(gf8):
    # quaternion_algebra checks no triple.  Each coordinate of a triple
    # product has degree <= 2 in a and in b, so an identity between them
    # that holds for the 7 values of a and the 8 of b in GF(8) holds as a
    # polynomial identity, over every field of characteristic two
    triples = list(itertools.product(range(4), repeat=3))
    for a in range(1, 8):
        for b in range(8):
            Q = csa.quaternion_algebra(gf8, a, b)
            assert _first_nonassociative_triple(Q, triples) is None, (a, b)


def test_b_subspace_dim_matches_extension_degree():
    # one involution in the degree-4 cyclic group; the slice has an
    # E-basis of size 4 over the base field
    E16 = GF2.extend("d^4+d+1")
    A = csa.crossed_product(E16, GF2)
    B = csa.b_subspace_form(A)
    assert B.dim == 4


def test_b_subspace_form_equals_the_restricted_t2_form(gf4):
    # the u_(n/2) block built on its own is the whole algebra's t2 form
    # restricted to it; over GF(4) the cyclic cocycle's value is a + 1
    for F, n in itertools.product((GF2, gf4), (2, 4, 6)):
        E = _extension_of_degree(F, n)
        for cocycle in ("trivial", csa.cyclic_cocycle(E, F, F.order - 1)):
            A = csa.crossed_product(E, F, cocycle)
            want = csa.t2_form(A).restricted([((n // 2 * n + t, F.one),) for t in range(n)])
            B = csa.b_subspace_form(A)
            assert (B.dim, B.diag, B.polar) == (n, want.diag, want.polar), (F, n, cocycle)


def test_square_trace_form_has_zero_rank():
    # the form x -> t1(x^2) polarizes to zero, so its radical is the
    # whole space
    M2 = csa.matrix_algebra(GF2, 2)
    diag = [t1_of(M2, element_mul(M2, M2.basis_vector(k), M2.basis_vector(k))) for k in range(4)]
    q1 = qf.QuadraticForm.diagonal(GF2, diag)
    assert len(qf.radical(q1)) == 4
    dec = qf.block_decompose(q1)
    assert dec.radical_dim == 4 and not dec.blocks


def test_crossed_product_relative(gf4, gf64_tower):
    # E = GF(64) over F = GF(4), a relative cubic extension
    A = csa.crossed_product(gf64_tower, gf4)
    assert A.dim == 9 and A.field == gf4
    w = qf.witt_class(csa.second_trace_form(A))
    wm = qf.witt_class(csa.second_trace_form(csa.matrix_algebra(gf4, 3)))
    assert (w.arf, w.radical_dim) == (wm.arf, wm.radical_dim)


def test_crossed_product_multistep_degree_six(gf4, gf64_tower):
    # E = GF(64) reached through GF(4): the Galois group over GF(2) is
    # cyclic of order 6 and the involution slice has dimension 6
    from t2forms import theorems

    A = csa.crossed_product(gf64_tower, GF2)
    assert A.dim == 36 and A.degree == 6
    B = csa.b_subspace_form(A)
    assert B.dim == 6
    qE = theorems.revoy_trace_form_of_extension(gf64_tower, GF2)
    wref = qf.witt_class(qf.direct_sum(qE, B))
    wA = qf.witt_class(csa.second_trace_form(A))
    assert (wA.arf, wA.radical_dim) == (wref.arf, wref.radical_dim)


def test_crossed_product_prop3_identities(gf8, gf4, gf64_tower):
    rng = random.Random(34)
    cases = [
        (gf8, GF2, "trivial"),
        (gf4, GF2, "trivial"),
        (gf64_tower, gf4, "cyclic"),
    ]
    trials = 0
    for E, F, style in cases:
        n = E.degree_over(F)
        cocycle = "trivial" if style == "trivial" else csa.cyclic_cocycle(E, F, F.gen)
        A = csa.crossed_product(E, F, cocycle)
        basis_E = E.basis_over(F)
        q = csa.t2_form(A)
        t1 = csa.t1_vector(A)
        for _ in range(40):
            i = rng.randrange(n)
            j = rng.randrange(n)
            c = E.random_element(rng)
            d = E.random_element(rng)
            xc = [F.zero] * A.dim
            for t, coord in enumerate(E.coords_over(F, c)):
                xc[i * n + t] = coord
            yd = [F.zero] * A.dim
            for t, coord in enumerate(E.coords_over(F, d)):
                yd[j * n + t] = coord
            # reduced trace picks out the identity component's field trace
            expect = 0
            if i == 0:
                tr = c
                acc = c
                for _ in range(n - 1):
                    tr = E.relative_frobenius(F, tr, 1)
                    acc = E.add(acc, tr)
                assert acc < F.order
                expect = acc
            assert t1_of(A, xc) == expect
            if i != 0:
                assert t1_of(A, xc) == 0  # u_sigma c lands in the trace kernel
            if (i + j) % n != 0:
                assert b_t2(A, xc, yd) == 0
            if i != 0:
                # E and the twisted components are orthogonal
                e_elt = [F.zero] * A.dim
                for t, coord in enumerate(E.coords_over(F, d)):
                    e_elt[t] = coord
                assert b_t2(A, e_elt, xc) == 0
            if (2 * i) % n != 0:
                assert q.evaluate(xc) == 0  # t2 vanishes off the involution slice
            trials += 1
    assert trials >= 100


def test_crossed_splitting_rep_agreement(gf4, gf8, gf64_tower):
    rng = random.Random(35)
    cases = [
        (gf4, GF2, 60),
        (gf8, GF2, 40),
        (gf64_tower, gf4, 10),
    ]
    total = 0
    for E, F, trials in cases:
        A = csa.crossed_product(E, F)
        for _ in range(trials):
            x = random_element(A, rng)
            mat = splitting_matrix(A, x)
            cpE = linalg.charpoly(E, mat)
            assert all(c < F.order for c in cpE)  # coefficients land in F
            assert tuple(cpE) == csa.reduced_charpoly(A, x).poly
            total += 1
    assert total >= 100


def test_crossed_rep_diagonal_on_identity_component(gf8):
    A = csa.crossed_product(gf8, GF2)
    c = 5
    x = [0] * 9
    for t, coord in enumerate(gf8.coords_over(GF2, c)):
        x[t] = coord
    mat = splitting_matrix(A, x)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert mat[i][j] == 0
    diag = {mat[i][i] for i in range(3)}
    orbit = {c, gf8.relative_frobenius(GF2, c, 1), gf8.relative_frobenius(GF2, c, 2)}
    assert diag == orbit
    assert splitting_matrix(A, A.one) == linalg.identity(gf8, 3)


def test_cocycle_validation(gf8):
    bad = csa.cyclic_cocycle(gf8, GF2, 1)
    bad[1][2] = gf8.gen  # corrupt one interior entry
    with pytest.raises(csa.CocycleInvalid):
        csa.crossed_product(gf8, GF2, bad)
    with pytest.raises(csa.CocycleInvalid):
        csa.cyclic_cocycle(gf8, GF2, 0)
    with pytest.raises(csa.CocycleInvalid):
        csa.cyclic_cocycle(gf8, GF2, gf8.gen)  # wrap value outside the base field
    notnorm = [[1, 1, 1], [1, 1, 1], [1, gf8.gen, 1]]
    with pytest.raises(csa.CocycleInvalid):
        csa.crossed_product(gf8, GF2, notnorm)


def test_trivial_cocycle_runs_no_identity_check(monkeypatch):
    # the all-ones table satisfies the cocycle identity as sigma(1) = 1,
    # so a trivial product makes no Level.mul outside the Frobenius steps
    # of its sigma table; an explicit table, all ones too, is checked
    E = GF2.extend("a^9+a^4+1")
    n = 9
    muls, frobs, depth = [], [], [0]
    mul, frob = fields.Level.mul, fields.Level.relative_frobenius

    def counting_mul(self, x, y):
        if not depth[0]:
            muls.append((x, y))
        return mul(self, x, y)

    def counting_frob(self, *args):
        frobs.append(args)
        depth[0] += 1
        try:
            return frob(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields.Level, "mul", counting_mul)
    monkeypatch.setattr(fields.Level, "relative_frobenius", counting_frob)
    csa.crossed_product(E, GF2)
    assert muls == [] and len(frobs) == n * (n - 1)
    ones = csa.cyclic_cocycle(E, GF2, 1)
    frobs.clear()
    csa.crossed_product(E, GF2, ones)
    assert len(muls) == 2 * n**3 and len(frobs) == n * (n - 1) + n * n * (n - 1)


def _basis_pair_first_failure(E, F, phi):
    """Independent oracle: the first group triple (i, j, k) on which the
    crossed-product multiplication is not associative on some pair of
    E-basis vectors, or None: the direct n^5 check that the n^3 cocycle
    identity in crossed_product must agree with."""
    n = E.degree_over(F)
    basis_E = E.basis_over(F)
    sig = [[E.relative_frobenius(F, e, j) for e in basis_E] for j in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                pik = phi[(i + j) % n][k]
                pjk = phi[j][k]
                pij_k = phi[i][(j + k) % n]
                for s in range(n):
                    cs = sig[j][s]
                    lhs_core = E.mul(phi[i][j], cs)
                    for t in range(n):
                        lhs = E.mul(pik, E.relative_frobenius(F, E.mul(lhs_core, basis_E[t]), k))
                        rhs = E.mul(
                            E.mul(pij_k, E.relative_frobenius(F, basis_E[s], (j + k) % n)),
                            E.mul(pjk, E.relative_frobenius(F, basis_E[t], k)),
                        )
                        if lhs != rhs:
                            return (i, j, k)
    return None


def _draw_extension(data, gf4, gf8, gf64_tower):
    return data.draw(st.sampled_from([(gf4, GF2), (gf8, GF2), (gf64_tower, gf4)]))


def _draw_coboundary_cocycle(data, E, F):
    """gamma^[i+j >= n] sigma^j(c_i) c_j / c_(i+j) with c_0 = 1: the
    cyclic cocycle of gamma in the basis u_i c_i."""
    n = E.degree_over(F)
    gamma = data.draw(st.integers(1, F.order - 1))
    c = [E.one] + [data.draw(st.integers(1, E.order - 1)) for _ in range(n - 1)]
    return [
        [
            E.mul(
                gamma if i + j >= n else E.one,
                E.mul(E.mul(E.relative_frobenius(F, c[i], j), c[j]), E.inv(c[(i + j) % n])),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_cocycle_identity_matches_basis_pair_oracle(gf4, gf8, gf64_tower, data):
    E, F = _draw_extension(data, gf4, gf8, gf64_tower)
    n = E.degree_over(F)
    if data.draw(st.booleans()):
        phi = [[E.one] * n] + [
            [E.one] + [data.draw(st.integers(1, E.order - 1)) for _ in range(n - 1)]
            for _ in range(n - 1)
        ]
    else:
        # a valid table, possibly with one interior entry changed
        phi = _draw_coboundary_cocycle(data, E, F)
        if data.draw(st.booleans()):
            i = data.draw(st.integers(1, n - 1))
            j = data.draw(st.integers(1, n - 1))
            phi[i][j] = E.mul(phi[i][j], data.draw(st.integers(2, E.order - 1)))
    expected = _basis_pair_first_failure(E, F, phi)
    if expected is None:
        csa.crossed_product(E, F, phi)
    else:
        with pytest.raises(csa.CocycleInvalid) as err:
            csa.crossed_product(E, F, phi)
        assert str(err.value) == "associativity fails on group triple ({},{},{})".format(*expected)


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_coboundary_cocycles_give_csas(gf4, gf8, gf64_tower, data):
    E, F = _draw_extension(data, gf4, gf8, gf64_tower)
    phi = _draw_coboundary_cocycle(data, E, F)
    A = csa.crossed_product(E, F, phi)
    assert sanity_check_csa(A)["passed"]


@pytest.fixture(scope="module")
def center_extensions(gf4, gf8, gf64_tower):
    return [(gf4, GF2), (gf8, GF2), (GF2.extend("d^5+d^2+1"), GF2), (gf64_tower, gf4)]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_certified_crossed_product_center_matches_scan_oracle(center_extensions, data):
    # the constructor no longer scans commutators; the dense scan must
    # still find a one-dimensional center for every cocycle it accepts
    E, F = data.draw(st.sampled_from(center_extensions))
    kind = data.draw(st.sampled_from(["trivial", "cyclic", "coboundary"]))
    if kind == "trivial":
        phi = "trivial"
    elif kind == "cyclic":
        phi = csa.cyclic_cocycle(E, F, data.draw(st.integers(1, F.order - 1)))
    else:
        phi = _draw_coboundary_cocycle(data, E, F)
    A = csa.crossed_product(E, F, phi)
    assert _center_rank(A).rank == A.dim - 1


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_certified_quaternion_algebras_pass_the_sanity_oracle(gf4, gf8, data):
    F = data.draw(st.sampled_from([GF2, gf4, gf8]))
    a = data.draw(st.integers(1, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    rep = sanity_check_csa(csa.quaternion_algebra(F, a, b))
    assert rep["passed"] and rep["center_dim"] == 1, rep


def _assert_identity_certified(A):
    """The identity a constructor certified passes the oracle, and the
    raw check accepts the same structure constants."""
    _identity_oracle(A)
    csa.Algebra(A.field, A.dim, A.product, A.one)


def test_certified_matrix_identity_matches_basis_vector_loop(gf4, gf8, gf64_tower):
    M = csa.matrix_algebra
    for F in (GF2, gf4, rational.FunctionField(GF2)):
        for n in range(1, 9):
            _assert_identity_certified(M(F, n))
    # quaternions, split or not, over every small level
    for F in (GF2, gf4, gf8):
        for a in range(1, F.order):
            for b in range(F.order):
                _assert_identity_certified(csa.quaternion_algebra(F, a, b))
    # and over GF(2)(t), whose zero is a fraction, not the int 0
    FF = rational.FunctionField(GF2)
    for a, b in ((FF.t, FF.one), (FF.one, FF.zero), (FF.t, FF.add(FF.t, FF.one))):
        Q = csa.quaternion_algebra(FF, a, b)
        assert Q.one == (FF.one, FF.zero, FF.zero, FF.zero)
        _assert_identity_certified(Q)
    # F[x]/(f) for f reducible (x^2, x^2+x, x^3+1, (x+a)^2 over GF(4),
    # x^5+x+1 over GF(8)) and irreducible
    a = gf4.gen
    for F, f, irreducible in (
        (GF2, (0, 0, 1), False), (GF2, (0, 1, 1), False), (GF2, (1, 0, 0, 1), False),
        (gf4, (gf4.mul(a, a), 0, 1), False), (gf8, (1, 1, 0, 0, 0, 1), False),
        (GF2, (1, 1), True), (GF2, (1, 1, 0, 1), True), (gf4, (a, 1, 1), True),
        (gf8, (1, 0, 1, 0, 0, 1), True),
    ):
        assert fields.poly_is_irreducible(F, f) == irreducible, (F, f)
        _assert_identity_certified(csa.commutative_quotient(F, f))
    gf16 = gf4.extend("b^2+b+a")
    for E, F in ((gf4, GF2), (gf8, GF2), (gf16, gf4), (gf16, GF2),
                 (gf64_tower, gf4), (gf64_tower, GF2)):
        _assert_identity_certified(csa.extension_algebra(E, F))
    # nested tensors over each kind of factor
    Q = csa.quaternion_algebra(gf4, a, a)
    for T in (
        csa.tensor_product(csa.tensor_product(M(GF2, 2), M(GF2, 3)), M(GF2, 2)),
        csa.tensor_product(M(gf4, 2), csa.tensor_product(Q, M(gf4, 1))),
        csa.tensor_product(Q, csa.tensor_product(csa.crossed_product(gf64_tower, gf4), Q)),
        csa.tensor_product(csa.extension_algebra(gf16, gf4), Q),
    ):
        _assert_identity_certified(T)


def _table_outcomes(E, F, values):
    """How crossed_product answers every n x n table with entries in
    ``values``: "accepted", or the exception type and message."""
    n = E.degree_over(F)
    out = {}
    for entries in itertools.product(values, repeat=n * n):
        phi = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
        try:
            A = csa.crossed_product(E, F, phi)
        except csa.AlgebraError as exc:
            key = f"{type(exc).__name__}: {exc}"
        else:
            # the identity is certified by the normalized table; the
            # basis-vector loop must agree on every table accepted
            assert A._identity_failure() is None, phi
            key = "accepted"
        out[key] = out.get(key, 0) + 1
    return out


def test_crossed_product_rejects_the_same_tables_with_the_same_messages(gf4, gf8):
    # the counts were taken while the constructor still ran the
    # basis-vector identity check after the cocycle checks
    gf16 = gf4.extend("b^2+b+a")
    nonzero = "CocycleInvalid: cocycle values must be nonzero"
    normalized = "CocycleInvalid: cocycle must be normalized on the identity"
    fails = "CocycleInvalid: associativity fails on group triple "
    assert _table_outcomes(gf4, GF2, range(4)) == {
        nonzero: 85, normalized: 168, fails + "(1,1,1)": 2, "accepted": 1,
    }
    assert _table_outcomes(gf8, GF2, (0, 1, gf8.gen)) == {
        nonzero: 9911, normalized: 9756, fails + "(1,1,1)": 10, fails + "(1,1,2)": 4,
        fails + "(1,2,1)": 1, "accepted": 1,
    }
    assert _table_outcomes(gf16, gf4, (0, 1, gf4.gen, gf16.gen)) == {
        nonzero: 85, normalized: 168, fails + "(1,1,1)": 1, "accepted": 2,
    }
    with pytest.raises(csa.CocycleInvalid, match=r"^cocycle table must be 2x2$"):
        csa.crossed_product(gf4, GF2, [[1, 1]])


def test_certified_crossed_product_identity_matches_basis_vector_oracle(gf4, gf8, gf64_tower):
    # u_0 e_0 is the identity because e_0 = 1 and the table is normalized
    rng = random.Random(7)
    gf16 = gf4.extend("b^2+b+a")
    for E, F in ((gf8, GF2), (gf16, gf4), (gf64_tower, gf4)):
        assert E.basis_over(F)[0] == E.one
        n = E.degree_over(F)
        tables = ["trivial"] + [csa.cyclic_cocycle(E, F, g) for g in range(1, F.order)]
        for _ in range(4):
            # the trivial cocycle in the basis u_i c_i, c_0 = 1
            c = [E.one] + [rng.randrange(1, E.order) for _ in range(n - 1)]
            tables.append([
                [E.mul(E.mul(E.relative_frobenius(F, c[i], j), c[j]), E.inv(c[(i + j) % n]))
                 for j in range(n)]
                for i in range(n)
            ])
        for phi in tables:
            _assert_identity_certified(csa.crossed_product(E, F, phi))


def test_crossed_product_frobenius_calls_are_cubic(monkeypatch):
    # the cocycle check takes one Frobenius power per group triple and
    # the twisted basis n^2 more; a check over E-basis pairs takes n^5
    E = GF2.extend("a^5+a^2+1")
    calls = []
    frobenius = fields.Level.relative_frobenius

    def counting(self, *args, **kwargs):
        calls.append(args)
        return frobenius(self, *args, **kwargs)

    monkeypatch.setattr(fields.Level, "relative_frobenius", counting)
    csa.crossed_product(E, GF2)
    assert 0 < len(calls) <= 5**3 + 5**2


def test_crossed_product_squares_only_the_twisted_basis(monkeypatch):
    # the trivial cocycle lies in F, which sigma fixes without squaring;
    # the twisted basis steps sigma^j(e_t) = sigma(sigma^(j-1)(e_t)), one
    # squaring per step: 10 steps for each of the 10 basis vectors outside F
    E = GF2.extend("d^11+d^2+1")
    calls = []
    square = fields.Level.square

    def counting(self, x):
        calls.append(x)
        return square(self, x)

    monkeypatch.setattr(fields.Level, "square", counting)
    csa.crossed_product(E, GF2)
    assert 0 < len(calls) <= 100


def test_crossed_product_coords_over_calls_are_quartic(monkeypatch):
    # one coords_over call per structure-table entry: the level right
    # above the base answers with its own coefficients, without recursing
    # once per coefficient
    E = GF2.extend("a^5+a^2+1")
    calls = []
    coords_over = fields.Level.coords_over

    def counting(self, *args, **kwargs):
        calls.append(args)
        return coords_over(self, *args, **kwargs)

    monkeypatch.setattr(fields.Level, "coords_over", counting)
    A = csa.crossed_product(E, GF2)
    for a in range(A.dim):
        for b in range(A.dim):
            A.product(a, b)
    assert 0 < len(calls) <= 5**4


def _rep_less_tensor(gf4):
    a = gf4.gen
    A = csa.tensor_product(
        csa.quaternion_algebra(gf4, 1, a), csa.quaternion_algebra(gf4, 1, gf4.mul(a, a))
    )
    assert kronecker_rep(A) is None  # the factors split over different extensions
    return A


def _quat_cubic_tensor(gf4, gf64_tower):
    """Quat tensor Crossed(cubic) over GF(4), dim 36: the quaternion
    splits over a quadratic extension of GF(4), the crossed product over
    a cubic one."""
    A = csa.tensor_product(
        csa.quaternion_algebra(gf4, gf4.gen, gf4.gen), csa.crossed_product(gf64_tower, gf4)
    )
    assert kronecker_rep(A) is None
    return A


def _draw_crossed(data, E, F):
    if data.draw(st.booleans()):
        return csa.crossed_product(E, F)
    gamma = data.draw(st.integers(1, F.order - 1))
    return csa.crossed_product(E, F, csa.cyclic_cocycle(E, F, gamma))


def _crossed_extensions(gf4, gf8, gf64_tower):
    return [(gf4, GF2), (gf8, GF2), (GF2.extend("a^4+a+1"), GF2), (gf64_tower, gf4)]


def _draw_factor(data, F, extensions, max_dim):
    """A Mat, Quat or crossed-product algebra over F of dimension at most
    ``max_dim``, the crossed product under a trivial or cyclic cocycle."""
    crossed = [(E, G) for E, G in extensions if G == F and E.degree_over(F) ** 2 <= max_dim]
    kinds = ["matrix"] + (["quaternion"] if max_dim >= 4 else []) + (["crossed"] if crossed else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "matrix":
        return csa.matrix_algebra(F, data.draw(st.integers(1, int(max_dim**0.5))))
    if kind == "quaternion":
        a = data.draw(st.integers(1, F.order - 1))
        return csa.quaternion_algebra(F, a, data.draw(st.integers(0, F.order - 1)))
    E, F = data.draw(st.sampled_from(crossed))
    return _draw_crossed(data, E, F)


def _draw_tensor(data, gf4, gf8, gf64_tower):
    """A tensor product of dimension at most 36: two or three factors
    from :func:`_draw_factor` over GF(2)/GF(4)/GF(8), nested either way;
    Mat(2) tensor Mat(3) over GF(2)(t), whose forms have list rows; or a
    pair whose factors split over unrelated levels."""
    kind = data.draw(st.sampled_from(["pair", "nested", "unrelated-levels", "function-field"]))
    if kind == "unrelated-levels":
        if data.draw(st.booleans()):
            return _rep_less_tensor(gf4)
        return _quat_cubic_tensor(gf4, gf64_tower)
    if kind == "function-field":
        F = rational.FunctionField(GF2)
        return csa.tensor_product(csa.matrix_algebra(F, 2), csa.matrix_algebra(F, 3))
    F = data.draw(st.sampled_from([GF2, gf4, gf8]))
    extensions = _crossed_extensions(gf4, gf8, gf64_tower)
    X = _draw_factor(data, F, extensions, 16)
    Y = _draw_factor(data, F, extensions, 36 // X.dim)
    if kind == "pair":
        return csa.tensor_product(X, Y)
    Z = _draw_factor(data, F, extensions, 36 // (X.dim * Y.dim))
    if data.draw(st.booleans()):
        return csa.tensor_product(csa.tensor_product(X, Y), Z)
    return csa.tensor_product(X, csa.tensor_product(Y, Z))


def _draw_small_algebra(data, gf4, gf8, gf64_tower):
    """An algebra of dimension at most 36: a tensor product from
    :func:`_draw_tensor`, one factor from :func:`_draw_factor` (Mat, Quat
    or a crossed product with trivial or cyclic cocycle), such a factor's
    raw structure constants, or a commutative quotient."""
    kind = data.draw(st.sampled_from(["tensor", "factor", "raw", "quotient"]))
    if kind == "tensor":
        return _draw_tensor(data, gf4, gf8, gf64_tower)
    F = data.draw(st.sampled_from([GF2, gf4, gf8]))
    if kind != "quotient":
        X = _draw_factor(data, F, _crossed_extensions(gf4, gf8, gf64_tower), 16)
        if kind == "factor":
            return X
        # no representation: traces by the reduced characteristic polynomial
        return csa.Algebra(F, X.dim, X.product, X.one, label="raw", degree=X.degree)
    d = data.draw(st.integers(1, 5))
    low = [data.draw(st.integers(0, F.order - 1)) for _ in range(d)]
    return csa.commutative_quotient(F, tuple(low) + (F.one,))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_t2_form_polar_matches_b_t2_on_basis_pairs(gf4, gf8, gf64_tower, data):
    # the polar rows come from the splitting representation, or on a
    # tensor from the factors' trace values; b_t2 multiplies through A.mul
    A = _draw_small_algebra(data, gf4, gf8, gf64_tower)
    q = csa.t2_form(A)
    basis = [A.basis_vector(k) for k in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            assert q.polar_entry(i, j) == b_t2(A, basis[i], basis[j]), (A, i, j)


def _draw_monic(data, F, d):
    return tuple(data.draw(st.integers(0, F.order - 1)) for _ in range(d)) + (F.one,)


def _draw_rep_algebra(data, gf4, gf8, gf64_tower):
    """An algebra that carries a splitting representation: Mat(n), n <= 9,
    over GF(2) or GF(4); a crossed product over GF(2), GF(4) or the
    GF(64) tower under a trivial, cyclic or coboundary cocycle; a
    quaternion algebra [a, b) with b in wp(F) or not, so that its
    representation lives over F or over the Artin-Schreier extension;
    F[x]/(f) for f reducible or irreducible, over a finite level or over
    GF(2)(t); or an extension algebra E/F."""
    kinds = ["matrix", "crossed", "quaternion", "quotient", "extension"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "matrix":
        F = data.draw(st.sampled_from([GF2, gf4]))
        return csa.matrix_algebra(F, data.draw(st.integers(1, 9)))
    if kind == "crossed":
        E, F = data.draw(st.sampled_from([
            (gf4, GF2), (gf8, GF2), (GF2.extend("d^5+d^2+1"), GF2), (gf64_tower, gf4),
            (gf64_tower, GF2),
        ]))
        style = data.draw(st.sampled_from(["trivial", "cyclic", "coboundary"]))
        if style == "trivial":
            return csa.crossed_product(E, F)
        if style == "cyclic":
            return csa.crossed_product(
                E, F, csa.cyclic_cocycle(E, F, data.draw(st.integers(1, F.order - 1)))
            )
        return csa.crossed_product(E, F, _draw_coboundary_cocycle(data, E, F))
    if kind == "extension":
        gf16 = gf4.extend("b^2+b+a")
        E, F = data.draw(st.sampled_from([
            (gf4, GF2), (gf8, GF2), (gf16, gf4), (gf16, GF2), (gf64_tower, gf4), (gf64_tower, GF2),
        ]))
        return csa.extension_algebra(E, F)
    if kind == "quaternion":
        F = data.draw(st.sampled_from([GF2, gf4, gf8]))
        x = data.draw(st.integers(0, F.order - 1))
        b = F.add(F.square(x), x)  # in wp(F)
        if data.draw(st.booleans()):
            b = F.add(b, F.nonresidue())
            assert F.artin_schreier_solve(b) is None
        return csa.quaternion_algebra(F, data.draw(st.integers(1, F.order - 1)), b)
    F = data.draw(st.sampled_from([GF2, gf4, gf8, "GF(2)(t)"]))
    if F == "GF(2)(t)":
        F = rational.FunctionField(GF2)
        t, one, zero = F.t, F.one, F.zero
        # x^2 + x + t and x^2 + t irreducible, (x + t)(x + 1) and x^3 reducible
        f = data.draw(st.sampled_from([
            (t, one, one), (t, zero, one), (t, F.add(t, one), one), (zero, zero, zero, one),
        ]))
    elif data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 99)))
        f = fields.find_irreducible(F, data.draw(st.integers(1, 4)), rng)
    else:
        g = _draw_monic(data, F, data.draw(st.integers(1, 2)))
        f = fields.poly_mul(F, g, _draw_monic(data, F, data.draw(st.integers(1, 3))))
    return csa.commutative_quotient(F, f)


@functools.cache
def _extension_of_degree(base, n):
    return base.extend(fields.find_irreducible(base, n, random.Random(n)), fields.fresh_gen_name(base))


def _draw_closed_form_algebra(data, gf4, gf8):
    """Mat(n), n <= 6, over GF(2) or GF(4); [a, b) over GF(2), GF(4) or
    GF(8) with b of trace 0 or 1, so that its representation lives over F
    or over the Artin-Schreier extension; or a crossed product of degree
    2 to 7 over GF(2) or GF(4) under a trivial or cyclic cocycle.  Returns
    the algebra and the basis indices to hold against the reduced
    characteristic polynomial: all of them, or for a crossed product one
    drawn index of every block u_i, the u_(n/2) block included."""
    kind = data.draw(st.sampled_from(["matrix", "quaternion", "crossed"]))
    if kind == "matrix":
        F = data.draw(st.sampled_from([GF2, gf4]))
        A = csa.matrix_algebra(F, data.draw(st.integers(1, 6)))
        return A, range(A.dim)
    if kind == "quaternion":
        F = data.draw(st.sampled_from([GF2, gf4, gf8]))
        x = data.draw(st.integers(0, F.order - 1))
        b = F.add(F.square(x), x)
        if data.draw(st.booleans()):
            b = F.add(b, F.nonresidue())
        A = csa.quaternion_algebra(F, data.draw(st.integers(1, F.order - 1)), b)
        return A, range(4)
    F = data.draw(st.sampled_from([GF2, gf4]))
    n = data.draw(st.integers(2, 7))
    E = _extension_of_degree(F, n)
    if data.draw(st.booleans()):
        A = csa.crossed_product(E, F)
    else:
        A = csa.crossed_product(E, F, csa.cyclic_cocycle(E, F, data.draw(st.integers(1, F.order - 1))))
    return A, [i * n + data.draw(st.integers(0, n - 1)) for i in range(n)]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_closed_form_diagonals_match_rep_and_charpoly_oracles(gf4, gf8, data):
    # the constructors' t1 and t2 equal the values of the splitting
    # representation's images and the reduced characteristic polynomial
    A, ks = _draw_closed_form_algebra(data, gf4, gf8)
    t1, t2 = csa.t1_vector(A), csa.t2_diagonal(A)
    assert (t1, t2) == rep_diagonals(A, splitting_rep(A)), A
    for k in ks:
        r = csa.reduced_charpoly(A, A.basis_vector(k))
        assert (t1[k], t2[k]) == (r.t1, r.t2), (A, k)


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_trace_products_match_rep_join_oracle(gf4, gf8, gf64_tower, data):
    # the closed forms of matrix algebras and crossed products, and the
    # structure-constant sum of the others, give row for row the rows of
    # the join over the splitting representation
    A = _draw_rep_algebra(data, gf4, gf8, gf64_tower)
    assert csa._trace_products(A) == rep_trace_products(A), A


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_tensor_factor_route_matches_kronecker_oracle(gf4, gf8, gf64_tower, data):
    # wherever the factor levels nest, the Kronecker product of the
    # factors' splitting representations gives the same trace data
    T = _draw_tensor(data, gf4, gf8, gf64_tower)
    oracle = with_kronecker_rep(T)
    assume(oracle is not None)
    assert csa.t1_vector(T) == csa.t1_vector(oracle)
    assert csa.t2_diagonal(T) == csa.t2_diagonal(oracle)
    q, qo = csa.t2_form(T), csa.t2_form(oracle)
    for i in range(T.dim):
        for j in range(T.dim):
            assert q.polar_entry(i, j) == qo.polar_entry(i, j), (T, i, j)


def _count_products(monkeypatch):
    """Every algebra built after this call appends each structure
    constant it reads, as (i, j), to the returned list."""
    calls = []
    init = csa.Algebra.__init__

    def counting_init(self, field, dim, product, *args, **kwargs):
        def counted(i, j):
            calls.append((i, j))
            return product(i, j)

        init(self, field, dim, counted, *args, **kwargs)

    monkeypatch.setattr(csa.Algebra, "__init__", counting_init)
    return calls


def test_second_trace_form_reads_no_structure_constants(monkeypatch):
    # a tensor's trace form multiplies its factors' trace values and never
    # basis vectors, and no constructor re-checks the identity law
    calls = _count_products(monkeypatch)
    A = csa.tensor_product(csa.matrix_algebra(GF2, 5), csa.matrix_algebra(GF2, 7))
    q = csa.second_trace_form(A)
    assert q.dim == 1224 and calls == []


def test_tensor_polar_rows_match_kronecker_oracle(gf4, gf8):
    # a tensor's Trd rows are the Kronecker product of its factors' rows:
    # nested tensors, a quaternion factor over GF(4) whose rows hold
    # entries other than one, and a crossed-product factor
    M = csa.matrix_algebra
    Q = csa.quaternion_algebra(gf4, gf4.gen, gf4.gen)
    R = linalg.row_ring(gf4)
    assert any(v != 1 for row in csa._trace_products(Q) for _, v in R.items(row))
    cases = [
        csa.tensor_product(csa.tensor_product(M(GF2, 2), M(GF2, 3)), M(GF2, 2)),
        csa.tensor_product(Q, M(gf4, 2)),
        csa.tensor_product(M(gf4, 2), csa.tensor_product(M(gf4, 2), Q)),
        csa.tensor_product(csa.crossed_product(gf8, GF2), M(GF2, 2)),
    ]
    for T in cases:
        oracle = with_kronecker_rep(T)
        q, qo = csa.t2_form(T), csa.t2_form(oracle)
        assert q.diag == qo.diag and q.polar == qo.polar, T
        # and the join over the Kronecker representation gives the same rows
        assert csa._trace_products(T) == rep_trace_products(oracle), T


def test_tensor_polar_rows_pack_only_the_factor_rows(monkeypatch):
    # the 1,225 rows of Mat(5) (x) Mat(7) are shifted copies of the 25 + 49
    # packed factor rows
    calls = []
    sparse = linalg.PackedRows.sparse
    monkeypatch.setattr(
        linalg.PackedRows, "sparse", lambda self, items, n: calls.append(n) or sparse(self, items, n)
    )
    q = csa.t2_form(csa.tensor_product(csa.matrix_algebra(GF2, 5), csa.matrix_algebra(GF2, 7)))
    assert q.dim == 1225 and len(calls) <= 25 + 49 and set(calls) == {25, 49}


def _identity_oracle(A):
    """Independent oracle: the basis-vector loop of the identity law,
    1 e_k = e_k = e_k 1 for every k, on anything that has ``field``,
    ``dim``, ``one`` and ``product``."""
    f = A.field
    support = [(i, x) for i, x in enumerate(A.one) if not f.is_zero(x)]
    for k in range(A.dim):
        for left in (True, False):
            acc = {}
            for i, x in support:
                pairs = A.product(i, k) if left else A.product(k, i)
                for kk, v in pairs:
                    w = f.add(acc.get(kk, f.zero), f.mul(x, v))
                    if f.is_zero(w):
                        acc.pop(kk, None)
                    else:
                        acc[kk] = w
            if acc != {k: f.one}:
                raise csa.AlgebraError(f"identity law fails on basis vector {k}")


def _verdict(check, *args):
    """The AlgebraError message of check(*args), or None if it passes."""
    try:
        check(*args)
    except csa.AlgebraError as err:
        return str(err)
    return None


def _raw_verdicts(F, dim, product, one):
    """The raw constructor's verdict on these structure constants, and the
    oracle's."""
    raw = types.SimpleNamespace(field=F, dim=dim, product=product, one=one)
    return _verdict(csa.Algebra, F, dim, product, one), _verdict(_identity_oracle, raw)


def _draw_identity_factor(data, F, gf4, gf8, gf64_tower):
    """A matrix, quaternion, crossed-product or nested-tensor factor over
    F (GF(2) or GF(4)), or over GF(4) the quaternion pair split over
    unrelated levels; then possibly a fault: its identity scaled, one
    entry of it changed, or one structure constant corrupted.  Returns
    the algebra and the faulty structure constants (product, one), or
    None for no fault."""
    kinds = ["matrix", "quaternion", "crossed", "nested"] + (["rep-less"] if F == gf4 else [])
    kind = data.draw(st.sampled_from(kinds))
    nonzero = st.integers(1, F.order - 1)
    if kind == "matrix":
        X = csa.matrix_algebra(F, data.draw(st.integers(1, 3)))
    elif kind == "quaternion":
        X = csa.quaternion_algebra(F, data.draw(nonzero), data.draw(st.integers(0, F.order - 1)))
    elif kind == "crossed":
        E = data.draw(st.sampled_from([gf4, gf8] if F == GF2 else [gf64_tower]))
        X = csa.crossed_product(E, F)
    elif kind == "nested":
        X = csa.tensor_product(
            csa.matrix_algebra(F, 2), csa.quaternion_algebra(F, F.one, data.draw(nonzero))
        )
    else:
        X = _rep_less_tensor(gf4)
    fault = data.draw(st.sampled_from(["none", "scale", "entry", "product"]))
    one, product = list(X.one), X.product
    if fault == "none":
        return X, None
    if fault == "scale":
        c = data.draw(nonzero)
        one = [F.mul(c, x) for x in one]
    elif fault == "entry":
        k = data.draw(st.integers(0, X.dim - 1))
        one[k] = F.add(one[k], data.draw(nonzero))
    else:
        bad = (data.draw(st.integers(0, X.dim - 1)), data.draw(st.integers(0, X.dim - 1)))
        extra = ((data.draw(st.integers(0, X.dim - 1)), data.draw(nonzero)),)
        product = lambda i, j: X.product(i, j) + (extra if (i, j) == bad else ())
    return X, (product, one)


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_tensor_identity_check_matches_basis_vector_oracle(gf4, gf8, gf64_tower, data):
    # a fault can only be raw structure constants, where the constructor's
    # check gives the oracle's verdict; a tensor of factors that could be
    # built passes the oracle
    F = data.draw(st.sampled_from([GF2, gf4]))
    factors = []
    for _ in range(2):
        X, fault = _draw_identity_factor(data, F, gf4, gf8, gf64_tower)
        if fault is not None:
            built, expected = _raw_verdicts(F, X.dim, *fault)
            assert built == expected
            if expected is not None:
                return
            X = csa.Algebra(F, X.dim, *fault, label="raw")
        factors.append(X)
    _identity_oracle(csa.tensor_product(*factors))


def test_tensor_of_broken_factor_raises_oracle_message():
    # a broken factor is refused where it is built, with the oracle's
    # message for that factor, so no tensor of it exists
    M2 = csa.matrix_algebra(GF2, 2)
    broken = [
        (M2.product, (1, 0, 0, 0)),  # 1 = E_00: E_01 E_00 = 0
        (lambda i, j: () if (i, j) == (1, 3) else M2.product(i, j), M2.one),  # E_01 E_11 = 0
    ]
    for product, one in broken:
        built, expected = _raw_verdicts(GF2, 4, product, one)
        assert built == expected == "identity law fails on basis vector 1"
    _identity_oracle(csa.tensor_product(M2, csa.matrix_algebra(GF2, 3)))


def test_raw_structure_constants_keep_the_full_identity_check():
    M2 = csa.matrix_algebra(GF2, 2)
    with pytest.raises(csa.AlgebraError, match="identity law fails on basis vector 1"):
        csa.Algebra(GF2, 4, M2.product, [1, 0, 0, 0], label="raw")


def test_tensor_product_reads_no_structure_constants(gf4, gf64_tower, monkeypatch):
    # both factor laws held when the factors were built, so neither a
    # constructor nor a tensor reads a structure constant of its factors or
    # of itself
    calls = _count_products(monkeypatch)
    M = csa.matrix_algebra
    Q = csa.quaternion_algebra(gf4, gf4.gen, gf4.gen)
    pairs = [
        (M(GF2, 5), M(GF2, 7)),
        (csa.tensor_product(M(GF2, 2), M(GF2, 3)), M(GF2, 2)),
        (Q, csa.crossed_product(gf64_tower, gf4)),
        (csa.extension_algebra(gf64_tower, gf4), csa.tensor_product(Q, M(gf4, 2))),
    ]
    for A, B in pairs:
        T = csa.tensor_product(A, B)
        assert T.dim == A.dim * B.dim and T.factors == (A, B)
    assert calls == []


def test_sanity_check_reports_associativity_witness(gf8):
    # fault injection: corrupt one product of a valid crossed product and
    # feed the raw table to the checker
    good = csa.crossed_product(gf8, GF2)

    def corrupted(i, j):
        out = good.product(i, j)
        if (i, j) == (4, 5):
            out = tuple((k, v) for k, v in out[:-1]) + ((out[-1][0], out[-1][1] ^ 1),)
        return out

    bad = csa.Algebra(GF2, 9, corrupted, good.one, label="corrupted")
    rep = sanity_check_csa(bad)
    assert not rep["passed"]
    assert any(kind == "associativity" for kind, _ in rep["failures"])


def test_sanity_check_flags_etale(gf4):
    etale = csa.commutative_quotient(gf4, (gf4.gen, 1, 0, 1))
    rep = sanity_check_csa(etale)
    assert not rep["passed"]
    assert any(kind == "center" for kind, _ in rep["failures"]) or any(
        kind == "dimension" for kind, _ in rep["failures"]
    )


def test_tensor_diagonals_make_no_multiply_on_matrix_factors(gf4, monkeypatch):
    # every trace value of a matrix factor is 0 or 1, so the form-core
    # tensors' diagonals need no Level.mul once the factors' are known
    for F, n1, n2 in ((GF2, 5, 7), (GF2, 6, 6), (gf4, 5, 5)):
        A, B = csa.matrix_algebra(F, n1), csa.matrix_algebra(F, n2)
        for X in (A, B):
            csa.t1_vector(X), csa.t2_diagonal(X)
        T = csa.tensor_product(A, B)
        calls = []
        mul = fields.Level.mul
        monkeypatch.setattr(
            fields.Level, "mul", lambda self, x, y: calls.append((x, y)) or mul(self, x, y)
        )
        csa.t1_vector(T), csa.t2_diagonal(T)
        monkeypatch.undo()
        assert calls == [], (F, n1, n2)


def _scaled_mat2(F, c):
    """Mat(2) over F on the basis c E_00, E_01, E_10, E_11: t1 of its
    first basis vector is c.  Raw structure constants, so its trace
    values come from the reduced characteristic polynomial."""
    M = csa.matrix_algebra(F, 2)
    scale = [c, F.one, F.one, F.one]
    inv = [F.inv(x) for x in scale]

    def product(i, j):
        s = F.mul(scale[i], scale[j])
        return tuple((k, F.mul(F.mul(s, v), inv[k])) for k, v in M.product(i, j))

    return csa.Algebra(F, 4, product, [F.mul(x, y) for x, y in zip(M.one, inv)],
                       label="ScaledMat(2)", degree=2)


def test_tensor_diagonals_match_full_products_off_0_and_1(gf4):
    # t1(a (x) b) = t1(a) t1(b) and t2(a (x) b) = t1(a)^2 t2(b) + t2(a) t1(b)^2,
    # every product taken, on factors with values outside {0, 1}
    f, a = gf4, gf4.gen
    C = csa.crossed_product(gf4.extend("b^2+b+a"), gf4)
    S = _scaled_mat2(f, a)
    M2 = csa.matrix_algebra(f, 2)
    assert {a, f.add(a, 1)} & set(csa.t2_diagonal(C)) and a in csa.t1_vector(S)
    for X, Y in ((C, M2), (M2, C), (C, C), (S, C), (C, S), (S, S)):
        T = csa.tensor_product(X, Y)
        tx, ty = csa.t1_vector(X), csa.t1_vector(Y)
        ux, uy = csa.t2_diagonal(X), csa.t2_diagonal(Y)
        assert csa.t1_vector(T) == [f.mul(x, y) for x in tx for y in ty]
        assert csa.t2_diagonal(T) == [
            f.add(f.mul(f.mul(x, x), w), f.mul(u, f.mul(y, y)))
            for x, u in zip(tx, ux)
            for y, w in zip(ty, uy)
        ]


def test_tensor_trace_identities(gf4):
    """Reduced traces multiply, t2 of a pure tensor expands through the
    factor traces, and the polar form has the two equivalent expansions."""
    rng = random.Random(36)
    pairs = [
        (csa.matrix_algebra(GF2, 2), csa.matrix_algebra(GF2, 3)),
        (csa.quaternion_algebra(gf4, gf4.gen, 1), csa.matrix_algebra(gf4, 2)),
    ]
    trials = 0
    for A, B in pairs:
        fld = A.field
        T = csa.tensor_product(A, B)
        qT = csa.t2_form(T)
        qA = csa.t2_form(A)
        qB = csa.t2_form(B)
        for _ in range(100):
            a = random_element(A, rng)
            b = random_element(B, rng)
            a2 = random_element(A, rng)
            b2 = random_element(B, rng)
            ab = _pure_tensor(fld, T, a, b)
            a2b2 = _pure_tensor(fld, T, a2, b2)
            ta, tb = t1_of(A, a), t1_of(B, b)
            # multiplicativity of the reduced trace
            assert t1_of(T, ab) == fld.mul(ta, tb)
            # second coefficient of a pure tensor
            expect = fld.add(
                fld.mul(fld.mul(ta, ta), qB.evaluate(b)),
                fld.mul(fld.mul(tb, tb), qA.evaluate(a)),
            )
            assert qT.evaluate(ab) == expect
            # both expansions of the polar form agree
            lhs = b_t2(T, ab, a2b2)
            e1 = fld.add(
                fld.mul(t1_of(A, element_mul(A, a, a2)), b_t2(B, b, b2)),
                fld.mul(fld.mul(tb, t1_of(B, b2)), b_t2(A, a, a2)),
            )
            e2 = fld.add(
                fld.mul(t1_of(B, element_mul(B, b, b2)), b_t2(A, a, a2)),
                fld.mul(fld.mul(ta, t1_of(A, a2)), b_t2(B, b, b2)),
            )
            assert lhs == e1 == e2
            trials += 1
    assert trials >= 200


def test_tensor_trace_zero_product_rule(gf4):
    rng = random.Random(37)
    A = csa.matrix_algebra(GF2, 2)
    B = csa.matrix_algebra(GF2, 3)
    T = csa.tensor_product(A, B)
    fld = GF2
    count = 0
    for _ in range(200):
        a = random_element(A, rng)
        b = random_element(B, rng)
        a2 = random_element(A, rng)
        b2 = random_element(B, rng)
        # force the trace-zero hypothesis on one slot of each pair
        if t1_of(A, a) != 0:
            a = element_add(A, a, _scaled_unit(A, t1_of(A, a)))
        if t1_of(B, b) != 0:
            b = element_add(B, b, _scaled_unit(B, t1_of(B, b)))
        assert t1_of(A, a) == 0 and t1_of(B, b) == 0
        ab = _pure_tensor(fld, T, a, b)
        a2b2 = _pure_tensor(fld, T, a2, b2)
        lhs = b_t2(T, ab, a2b2)
        rhs = fld.mul(b_t2(A, a, a2), b_t2(B, b, b2))
        assert lhs == rhs
        count += 1
    assert count >= 100


def _pure_tensor(fld, T, a, b):
    nB = len(b)
    out = [fld.zero] * T.dim
    for i, x in enumerate(a):
        if fld.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not fld.is_zero(y):
                out[i * nB + j] = fld.mul(x, y)
    return out


def _scaled_unit(A, t):
    # element with reduced trace t: E_11 scaled (its reduced trace is 1)
    v = [A.field.zero] * A.dim
    v[0] = t
    return v


def test_scalars_orthogonal_to_trace_kernel(gf4):
    rng = random.Random(38)
    for A in (csa.matrix_algebra(GF2, 3), csa.crossed_product(gf4, GF2)):
        count = 0
        while count < 100:
            x = random_element(A, rng)
            if t1_of(A, x) != 0:
                continue
            c = A.field.random_element(rng)
            assert b_t2(A, scalar_mul(A, c, A.one), x) == 0
            count += 1
