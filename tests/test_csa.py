import random

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import csa, fields, linalg, quadform as qf
from t2forms.fields import GF2, NotAPower


def test_matrix_algebra_basics(gf4):
    M1 = csa.matrix_algebra(GF2, 1)
    assert M1.dim == 1 and M1.one == [1]
    M2 = csa.matrix_algebra(GF2, 2)
    rep = csa.sanity_check_csa(M2)
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
    assert linalg.mat_mul(GF2, Le, Le) == linalg.identity(GF2, 4)  # e^2 = 1


def test_matrix_algebra_m4_sanity():
    rep = csa.sanity_check_csa(csa.matrix_algebra(GF2, 4), sample_triples=500)
    assert rep["passed"] and rep["center_dim"] == 1


def test_quaternion_trace_vector(gf4):
    # the reduced trace of 1, e, f, ef is 0, 0, 1, 0: the trace-zero
    # space is spanned by 1, e, ef
    Q = csa.quaternion_algebra(gf4, gf4.gen, gf4.gen ^ 1)
    assert csa.t1_vector(Q) == [0, 0, 1, 0]
    rows = csa.trace_zero_subspace(Q)
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


def test_quaternion_examples(gf4):
    Q10 = csa.quaternion_algebra(GF2, 1, 0)
    assert csa.sanity_check_csa(Q10)["passed"]
    Q11 = csa.quaternion_algebra(GF2, 1, 1)
    r = csa.reduced_charpoly(Q11, Q11.basis_vector(2))
    assert (r.t1, r.t2) == (1, 1)
    a = gf4.gen
    Qaa = csa.quaternion_algebra(gf4, a, a)
    ef = Qaa.basis_vector(3)
    assert Qaa.mul(ef, ef) == Qaa.scalar_mul(gf4.mul(a, a), Qaa.one)
    with pytest.raises(csa.AlgebraError):
        csa.quaternion_algebra(GF2, 0, 1)


def test_quaternion_splitting_rep(gf4, gf8):
    rng = random.Random(30)
    for fld in (GF2, gf4, gf8):
        for _ in range(8):
            a = fld.random_nonzero(rng)
            b = fld.random_element(rng)
            Q = csa.quaternion_algebra(fld, a, b)
            R = Q.rep.level
            for _ in range(5):
                x = Q.random_element(rng)
                y = Q.random_element(rng)
                px = Q.rep.dense(x)
                py = Q.rep.dense(y)
                assert linalg.mat_mul(R, px, py) == Q.rep.dense(Q.mul(x, y))


def test_tensor_examples(gf4):
    M2 = csa.matrix_algebra(GF2, 2)
    T = csa.tensor_product(M2, M2)
    assert T.dim == 16 and T.degree == 4
    rep = csa.sanity_check_csa(T, sample_triples=300)
    assert rep["passed"], rep
    M1 = csa.matrix_algebra(GF2, 1)
    A = csa.tensor_product(M2, M1)
    assert A.dim == 4
    assert qf.witt_class(csa.second_trace_form(A)) == qf.witt_class(csa.second_trace_form(M2))
    with pytest.raises(csa.AlgebraError):
        csa.tensor_product(M2, csa.matrix_algebra(gf4, 2))


def test_t2_form_polar_examples():
    M2 = csa.matrix_algebra(GF2, 2)
    e11, e12, e21, e22 = (M2.basis_vector(k) for k in range(4))
    assert csa.b_t2(M2, e11, e22) == 1
    assert csa.b_t2(M2, e12, e21) == 1
    assert csa.b_t2(M2, e11, e12) == 0
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
            x = A.random_element(rng)
            y = A.random_element(rng)
            by_polarization = fld.add(
                fld.add(q.evaluate(A.add(x, y)), q.evaluate(x)), q.evaluate(y)
            )
            assert by_polarization == csa.b_t2(A, x, y)
            assert by_polarization == q.bilinear(x, y)


def test_t2_matches_reduced_charpoly_route(gf4):
    rng = random.Random(32)
    algebras = [
        csa.matrix_algebra(GF2, 2),
        csa.matrix_algebra(GF2, 3),
        csa.quaternion_algebra(gf4, 1, gf4.gen),
        csa.tensor_product(csa.matrix_algebra(GF2, 2), csa.matrix_algebra(GF2, 2)),
    ]
    for A in algebras:
        q = csa.t2_form(A)
        t1 = csa.t1_vector(A)
        for _ in range(25):
            x = A.random_element(rng)
            r = csa.reduced_charpoly(A, x)
            assert r.t2 == q.evaluate(x)
            assert r.t1 == csa.t1_of(A, x)
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
            x = A.random_element(rng)
            sq = A.mul(x, x)
            assert csa.t1_of(A, sq) == fld.mul(csa.t1_of(A, x), csa.t1_of(A, x))


def test_trace_zero_subspace(gf4):
    M3 = csa.matrix_algebra(GF2, 3)
    rows = csa.trace_zero_subspace(M3)
    assert len(rows) == 8
    for row in rows:
        assert csa.t1_of(M3, row) == 0
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
    # odd degree carries the defining basis for audit
    assert T3.basis is not None and len(T3.basis) == 8
    for row in T3.basis:
        assert csa.t1_of(M3, row) == 0
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


def test_b_subspace_dim_matches_extension_degree():
    # one involution in the degree-4 cyclic group; the slice has an
    # E-basis of size 4 over the base field
    E16 = GF2.extend("d^4+d+1")
    A = csa.crossed_product(E16, GF2)
    B = csa.b_subspace_form(A)
    assert B.dim == 4


def test_square_trace_form_has_zero_rank():
    # the form x -> t1(x^2) polarizes to zero, so its radical is the
    # whole space
    M2 = csa.matrix_algebra(GF2, 2)
    diag = [csa.t1_of(M2, M2.mul(M2.basis_vector(k), M2.basis_vector(k))) for k in range(4)]
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
            assert csa.t1_of(A, xc) == expect
            if i != 0:
                assert csa.t1_of(A, xc) == 0  # u_sigma c lands in the trace kernel
            if (i + j) % n != 0:
                assert csa.b_t2(A, xc, yd) == 0
            if i != 0:
                # E and the twisted components are orthogonal
                e_elt = [F.zero] * A.dim
                for t, coord in enumerate(E.coords_over(F, d)):
                    e_elt[t] = coord
                assert csa.b_t2(A, e_elt, xc) == 0
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
            x = A.random_element(rng)
            mat = csa.splitting_matrix(A, x)
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
    mat = csa.splitting_matrix(A, x)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert mat[i][j] == 0
    diag = {mat[i][i] for i in range(3)}
    orbit = {c, gf8.relative_frobenius(GF2, c, 1), gf8.relative_frobenius(GF2, c, 2)}
    assert diag == orbit
    assert csa.splitting_matrix(A, A.one) == linalg.identity(gf8, 3)


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
    assert csa.sanity_check_csa(A)["passed"]


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
    rep = csa.sanity_check_csa(bad)
    assert not rep["passed"]
    assert any(kind == "associativity" for kind, _ in rep["failures"])


def test_sanity_check_flags_etale(gf4):
    etale = csa.commutative_quotient(gf4, (gf4.gen, 1, 0, 1))
    rep = csa.sanity_check_csa(etale)
    assert not rep["passed"]
    assert any(kind == "center" for kind, _ in rep["failures"]) or any(
        kind == "dimension" for kind, _ in rep["failures"]
    )


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
            a = A.random_element(rng)
            b = B.random_element(rng)
            a2 = A.random_element(rng)
            b2 = B.random_element(rng)
            ab = _pure_tensor(fld, T, a, b)
            a2b2 = _pure_tensor(fld, T, a2, b2)
            ta, tb = csa.t1_of(A, a), csa.t1_of(B, b)
            # multiplicativity of the reduced trace
            assert csa.t1_of(T, ab) == fld.mul(ta, tb)
            # second coefficient of a pure tensor
            expect = fld.add(
                fld.mul(fld.mul(ta, ta), qB.evaluate(b)),
                fld.mul(fld.mul(tb, tb), qA.evaluate(a)),
            )
            assert qT.evaluate(ab) == expect
            # both expansions of the polar form agree
            lhs = csa.b_t2(T, ab, a2b2)
            e1 = fld.add(
                fld.mul(csa.t1_of(A, A.mul(a, a2)), csa.b_t2(B, b, b2)),
                fld.mul(fld.mul(tb, csa.t1_of(B, b2)), csa.b_t2(A, a, a2)),
            )
            e2 = fld.add(
                fld.mul(csa.t1_of(B, B.mul(b, b2)), csa.b_t2(A, a, a2)),
                fld.mul(fld.mul(ta, csa.t1_of(A, a2)), csa.b_t2(B, b, b2)),
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
        a = A.random_element(rng)
        b = B.random_element(rng)
        a2 = A.random_element(rng)
        b2 = B.random_element(rng)
        # force the trace-zero hypothesis on one slot of each pair
        if csa.t1_of(A, a) != 0:
            a = A.add(a, _scaled_unit(A, csa.t1_of(A, a)))
        if csa.t1_of(B, b) != 0:
            b = B.add(b, _scaled_unit(B, csa.t1_of(B, b)))
        assert csa.t1_of(A, a) == 0 and csa.t1_of(B, b) == 0
        ab = _pure_tensor(fld, T, a, b)
        a2b2 = _pure_tensor(fld, T, a2, b2)
        lhs = csa.b_t2(T, ab, a2b2)
        rhs = fld.mul(csa.b_t2(A, a, a2), csa.b_t2(B, b, b2))
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
            x = A.random_element(rng)
            if csa.t1_of(A, x) != 0:
                continue
            c = A.field.random_element(rng)
            assert csa.b_t2(A, A.scalar_mul(c, A.one), x) == 0
            count += 1
