import random

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import linalg, quadform as qf, rational
from t2forms.fields import GF2
from t2forms.quadform import QuadraticForm

from support import (
    DimensionTooLarge, SearchSpaceTooLarge, arf_via_even_clifford_center, as_list_rows,
    clifford_algebra, element_add, element_mul, is_nonsingular, isotropic_split_oracle, kernel,
    kernel_generic, oracle_witt_class, quaternion_split_by_norm_search, random_nonsingular_form,
    reference_decompose, sanity_check_csa, scalar_mul,
)


def test_evaluate_examples(gf4):
    q = QuadraticForm.binary(GF2, 1, 1)
    assert q.evaluate([1, 1]) == 1
    H = QuadraticForm.binary(GF2, 0, 0)
    assert H.evaluate([1, 0]) == 0
    a = gf4.gen
    q2 = QuadraticForm.binary(gf4, 1, a)
    assert q2.evaluate([a, 1]) == gf4.add(gf4.add(gf4.mul(a, a), a), a)  # a^2
    assert q2.evaluate([a, 1]) == a ^ 1


def test_evaluate_dimension_check():
    q = QuadraticForm.binary(GF2, 1, 1)
    with pytest.raises(qf.DimensionMismatch):
        q.evaluate([1, 0, 0])


def test_validation_rejects_bad_polar():
    with pytest.raises(qf.FormError):
        QuadraticForm(GF2, [0, 0], [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(qf.FormError):
        QuadraticForm(GF2, [0, 0], [[0, 1], [0, 0]])  # not symmetric


def test_polarization_identity(gf4):
    rng = random.Random(11)
    for fld in (GF2, gf4):
        for dim in (2, 4, 6):
            q = random_nonsingular_form(fld, dim, rng)
            for _ in range(500):
                x = [fld.random_element(rng) for _ in range(dim)]
                y = [fld.random_element(rng) for _ in range(dim)]
                lhs = fld.add(
                    fld.add(q.evaluate([a ^ b for a, b in zip(x, y)]), q.evaluate(x)),
                    q.evaluate(y),
                )
                assert lhs == q.bilinear(x, y)


def test_radical_examples():
    H = QuadraticForm.binary(GF2, 0, 0)
    assert qf.radical(H) == []
    assert is_nonsingular(H)
    # [1,1] perp <1>: the diagonal summand spans the radical
    q = qf.direct_sum(QuadraticForm.binary(GF2, 1, 1), QuadraticForm.diagonal(GF2, [1]))
    rad = qf.radical(q)
    assert len(rad) == 1
    assert not is_nonsingular(q)
    dec = qf.block_decompose(q)
    assert dec.radical_dim == 1 and dec.radical_diag == [1]
    # over GF(2)(t) the block decomposition gives the radical's dimension
    # and diagonal; its rows are the reference reduction's
    ff = rational.FunctionField(GF2)
    q = qf.direct_sum(QuadraticForm.binary(ff, ff.one, ff.t), QuadraticForm.diagonal(ff, [ff.t]))
    assert reference_decompose(q).radical_rows == [[ff.zero, ff.zero, ff.one]]
    assert qf.block_decompose(q).radical_diag == [ff.t]
    assert not is_nonsingular(q)
    with pytest.raises(qf.NotFiniteField):
        qf.radical(q)


def test_block_decompose_examples(gf4):
    q = QuadraticForm.binary(GF2, 1, 1)
    dec = qf.block_decompose(q)
    assert dec.blocks == [(1, 1)]
    # deterministic lowest-index pivot: identity basis comes back
    ref = reference_decompose(q)
    assert ref.blocks == dec.blocks and ref.pairs[0] == ([1, 0], [0, 1])


def test_block_decompose_golden_matrix_trace_form():
    # deterministic lowest-index tie-breaking yields a fixed output for
    # the 4-dimensional matrix-algebra trace form: pairs (E11, E22) and
    # (E12, E21), all block entries zero
    from t2forms import csa

    T = csa.second_trace_form(csa.matrix_algebra(GF2, 2))
    dec = qf.block_decompose(T)
    assert dec.blocks == [(0, 0), (0, 0)]
    ref = reference_decompose(T)
    assert ref.blocks == dec.blocks
    assert ref.pairs == [
        ([1, 0, 0, 0], [0, 0, 0, 1]),
        ([0, 1, 0, 0], [0, 0, 1, 0]),
    ]
    assert ref.radical_rows == [] and dec.radical_dim == 0


def test_witt_class_isometry_invariant(gf4):
    # a random invertible change of basis must not move the class
    rng = random.Random(21)
    for fld in (GF2, gf4):
        for _ in range(15):
            dim = rng.choice([2, 4, 6])
            q = random_nonsingular_form(fld, dim, rng)
            while True:
                U = [[fld.random_element(rng) for _ in range(dim)] for _ in range(dim)]
                if not kernel(fld, U, dim):
                    break
            q2 = q.restricted(U)
            assert qf.witt_class(q2) == qf.witt_class(q)
            assert qf.arf(q2) == qf.arf(q)


def test_block_decompose_preserves_form(gf4, gf8):
    rng = random.Random(12)
    for fld in (GF2, gf4, gf8):
        for dim in (2, 4, 6):
            q = random_nonsingular_form(fld, dim, rng)
            dec = qf.block_decompose(q)
            assert dec.radical_dim == 0
            vecs = [v for pair in reference_decompose(q).pairs for v in pair]
            # rebuild the form through the reference's basis and compare
            # with the blocks on random coordinate vectors
            for _ in range(200):
                coords = [fld.random_element(rng) for _ in range(dim)]
                image = [fld.zero] * dim
                for c, vec in zip(coords, vecs):
                    for k, x in enumerate(vec):
                        image[k] = fld.add(image[k], fld.mul(c, x))
                direct = q.evaluate(image)
                via_blocks = fld.zero
                for t, (a, b) in enumerate(dec.blocks):
                    x, y = coords[2 * t], coords[2 * t + 1]
                    val = fld.mul(fld.mul(x, x), a)
                    val = fld.add(val, fld.mul(x, y))
                    val = fld.add(val, fld.mul(fld.mul(y, y), b))
                    via_blocks = fld.add(via_blocks, val)
                assert direct == via_blocks


def test_arf_examples(gf4):
    assert qf.arf(QuadraticForm.hyperbolic(GF2)) == 0
    assert qf.arf(QuadraticForm.binary(GF2, 1, 1)) == 1
    a = gf4.gen
    assert qf.arf(QuadraticForm.binary(gf4, 1, a)) == a
    # scaled block <a>[1,b]: arf is b
    b = a ^ 1
    scaled = QuadraticForm.binary(gf4, 1, b).scale(a)
    assert qf.arf(scaled) == qf.arf(QuadraticForm.binary(gf4, 1, b))


def test_arf_additive(gf4):
    rng = random.Random(13)
    for fld in (GF2, gf4):
        for _ in range(40):
            q1 = random_nonsingular_form(fld, rng.choice([2, 4]), rng)
            q2 = random_nonsingular_form(fld, rng.choice([2, 4]), rng)
            s = fld.add(qf.arf_sum(q1), qf.arf_sum(q2))
            assert qf.arf(qf.direct_sum(q1, q2)) == fld.wp_class_rep(s)


def test_arf_scale_invariance_via_decompose(gf4):
    # arf(scale(c, [1,b])) equals the block product of the decomposition
    # of the scaled form, which is the class of [c, b/c]
    rng = random.Random(14)
    for _ in range(50):
        b = gf4.random_element(rng)
        c = gf4.random_nonzero(rng)
        scaled = QuadraticForm.binary(gf4, 1, b).scale(c)
        dec = qf.block_decompose(scaled)
        (a1, b1) = dec.blocks[0]
        prod = gf4.mul(a1, b1)
        assert gf4.wp_class_rep(prod) == gf4.wp_class_rep(b)
        assert qf.arf(scaled) == gf4.wp_class_rep(b)


def test_arf_requires_nonsingular():
    q = QuadraticForm.diagonal(GF2, [1, 1])
    with pytest.raises(qf.SingularForm):
        qf.arf(q)


def test_witt_class_examples(gf4):
    two11 = qf.direct_sum(QuadraticForm.binary(GF2, 1, 1), QuadraticForm.binary(GF2, 1, 1))
    w = qf.witt_class(two11)
    assert (w.dim, w.arf) == (4, 0)  # [1,1]+[1,1] = 2H
    assert qf.witt_class(QuadraticForm.binary(GF2, 1, 0)).arf == 0  # [1,0] = H
    assert qf.witt_class(QuadraticForm.binary(gf4, 1, 1)).arf == 0  # 1 is x^2+x over GF(4)
    assert w == qf.witt_class(QuadraticForm.hyperbolic(GF2, 2))


def test_oracle_examples():
    H = QuadraticForm.hyperbolic(GF2)
    planes, aniso = isotropic_split_oracle(H)
    assert planes == 1 and aniso.dim == 0
    planes, aniso = isotropic_split_oracle(QuadraticForm.binary(GF2, 1, 1))
    assert planes == 0 and aniso.dim == 2
    planes, _ = isotropic_split_oracle(
        qf.direct_sum(QuadraticForm.binary(GF2, 1, 1), QuadraticForm.binary(GF2, 1, 1))
    )
    assert planes == 2


def test_oracle_guards(gf8):
    with pytest.raises(SearchSpaceTooLarge):
        isotropic_split_oracle(QuadraticForm.hyperbolic(GF2, 4))
    big = gf8.extend("z^2+z+1") if False else None
    q = QuadraticForm.binary(gf8, 1, 1)
    isotropic_split_oracle(q)  # order 8 is allowed


def test_witt_matches_oracle_random(gf4):
    rng = random.Random(15)
    for _ in range(60):
        fld = rng.choice([GF2, gf4])
        q = random_nonsingular_form(fld, rng.choice([2, 4]), rng)
        w1 = qf.witt_class(q)
        w2, planes = oracle_witt_class(q)
        assert w1 == w2


def test_direct_sum_and_scale(gf4):
    H2 = qf.direct_sum(QuadraticForm.hyperbolic(GF2), QuadraticForm.hyperbolic(GF2))
    assert H2.dim == 4 and qf.arf(H2) == 0
    q = QuadraticForm.binary(gf4, 1, gf4.gen)
    assert q.scale(1).diag == q.diag and q.scale(1).polar == q.polar
    with pytest.raises(qf.FieldMismatch):
        qf.direct_sum(QuadraticForm.hyperbolic(GF2), QuadraticForm.hyperbolic(gf4))


def test_clifford_algebra_small(gf4):
    # q = [0] on one generator: 2-dimensional, square zero
    q = QuadraticForm.diagonal(GF2, [0])
    C = clifford_algebra(q)
    assert C.dim == 2
    e1 = C.basis_vector(1)
    assert element_mul(C, e1, e1) == [0, 0]
    # C(H) is 4-dimensional with trivial center
    from t2forms import csa

    CH = clifford_algebra(QuadraticForm.hyperbolic(GF2))
    assert CH.dim == 4
    rep = sanity_check_csa(CH)
    assert rep["passed"], rep
    assert rep["center_dim"] == 1


def test_clifford_algebra_quaternion_relations(gf8):
    # C([a,b]) contains e' = e_0, f' = e_0 e_1 with e'^2 = a,
    # f'^2 + f' = ab, e'f' + f'e' = e'
    rng = random.Random(16)
    for _ in range(10):
        a = gf8.random_nonzero(rng)
        b = gf8.random_element(rng)
        q = QuadraticForm.binary(gf8, a, b)
        C = clifford_algebra(q)
        e = C.basis_vector(1)  # mask 0b01
        f = C.basis_vector(3)  # mask 0b11 = e_0 e_1
        ab = gf8.mul(a, b)
        assert element_mul(C, e, e) == scalar_mul(C, a, C.one)
        ff = element_mul(C, f, f)
        assert element_add(C, ff, f) == scalar_mul(C, ab, C.one)
        assert element_add(C, element_mul(C, e, f), element_mul(C, f, e)) == e


def test_clifford_dimension_cap():
    rng = random.Random(17)
    q = random_nonsingular_form(GF2, 12, rng)
    with pytest.raises(DimensionTooLarge):
        clifford_algebra(q)


def test_arf_via_even_clifford_center_examples(gf4):
    assert arf_via_even_clifford_center(QuadraticForm.hyperbolic(GF2)) == 0
    assert arf_via_even_clifford_center(QuadraticForm.binary(GF2, 1, 1)) == 1
    a = gf4.gen
    assert arf_via_even_clifford_center(QuadraticForm.binary(gf4, 1, a)) == a


def test_arf_dual_path_random(gf4):
    rng = random.Random(18)
    for _ in range(30):
        fld = rng.choice([GF2, gf4])
        dim = rng.choice([2, 4, 6])
        q = random_nonsingular_form(fld, dim, rng)
        assert qf.arf(q) == arf_via_even_clifford_center(q)


def test_quaternion_is_split(gf4):
    assert qf.quaternion_is_split(GF2, 1, 0)
    assert qf.quaternion_is_split(GF2, 1, 1)
    a = gf4.gen
    assert qf.quaternion_is_split(gf4, a, a)
    with pytest.raises(qf.FormError):
        qf.quaternion_is_split(GF2, 0, 1)


def test_quaternion_is_split_matches_norm_search(gf4, gf8):
    # the norm search finds a norm for every pair on levels small enough
    # to enumerate, as Wedderburn's theorem says it must
    for fld in (GF2, gf4, gf8):
        for a in range(1, fld.order):
            for b in range(fld.order):
                oracle = quaternion_split_by_norm_search(fld, a, b)
                assert oracle and qf.quaternion_is_split(fld, a, b) == oracle
    big = GF2.extend("a^7+a+1")
    c = next(x for x in range(big.order) if not big.wp_member(x))
    with pytest.raises(SearchSpaceTooLarge):
        quaternion_split_by_norm_search(big, big.gen, c)
    assert qf.quaternion_is_split(big, big.gen, c)
    ff = rational.FunctionField(GF2)
    with pytest.raises(qf.NotFiniteField):
        qf.quaternion_is_split(ff, ff.one, ff.one)


def test_clifford_invariant(gf8):
    assert qf.clifford_invariant(QuadraticForm.hyperbolic(GF2)).is_trivial
    q = QuadraticForm.binary(GF2, 1, 1)
    syms = qf.clifford_symbols(q)
    assert syms == [(1, 1)]
    assert qf.clifford_invariant(q).is_trivial  # split over a finite field
    rng = random.Random(19)
    for _ in range(20):
        a = gf8.random_nonzero(rng)
        b = gf8.random_element(rng)
        q = QuadraticForm.binary(gf8, a, b)
        assert qf.clifford_symbols(q) == [(a, gf8.mul(a, b))]
        assert qf.quaternion_is_split(gf8, a, gf8.mul(a, b))
        assert qf.clifford_invariant(q).is_trivial


def test_clifford_symbols_returns_a_new_list():
    # the decomposition keeps its symbols; a caller's edits to the list it
    # was given must not reach arf, witt_class or clifford_invariant
    for read_first in (False, True):
        q = qf.direct_sum(QuadraticForm.binary(GF2, 1, 1), QuadraticForm.hyperbolic(GF2))
        if read_first:
            before = (qf.witt_class(q), qf.arf(q), qf.clifford_invariant(q))
        syms = qf.clifford_symbols(q)
        assert syms == [(1, 1)]
        syms[0] = (1, 0)
        syms.append((1, 1))
        qf.clifford_symbols(q).clear()
        after = (qf.witt_class(q), qf.arf(q), qf.clifford_invariant(q))
        assert after[0].arf == after[1] == 1 and after[2].is_trivial
        if read_first:
            assert after == before
        assert qf.clifford_symbols(q) == [(1, 1)]


def test_form_core_reduction_updates_polar_rows_only(gf4, monkeypatch):
    # the three tensor forms of the form-core benchmark: the reduction makes
    # one axpy per nonzero multiplier and scales no row, and the invariants
    # never run it again
    from t2forms import csa

    M = csa.matrix_algebra
    forms = [
        csa.second_trace_form(csa.tensor_product(M(F, n1), M(F, n2)))
        for F, n1, n2 in ((GF2, 5, 7), (GF2, 6, 6), (gf4, 5, 5))
    ]
    calls = {"axpy": 0, "scale": 0}
    for name in calls:
        method = getattr(linalg.PackedRows, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(linalg.PackedRows, name, counted)
    runs = []
    reduce = qf._reduce

    def traced(R, rows, diag):
        runs.append(len(diag))
        return reduce(R, rows, diag)

    monkeypatch.setattr(qf, "_reduce", traced)
    for q in forms:
        qf.block_decompose(q)
    assert calls == {"axpy": 1420, "scale": 0}
    for q in forms:
        for invariant in (qf.witt_class, qf.arf, qf.clifford_invariant, qf.clifford_symbols):
            invariant(q)
    assert runs == [q.dim for q in forms]
    dec = qf.block_decompose(forms[2])
    assert dec.radical_dim == 0 and len(dec.blocks) == 312
    assert runs == [q.dim for q in forms]


def test_brauer_class_equality(gf4):
    c1 = qf.BrauerClass.trivial(gf4, label="[A]^2")
    c2 = qf.BrauerClass.trivial(gf4, label="other")
    assert c1 == c2  # labels are annotations, not class data
    assert c1.is_trivial


def _read_invariants(q):
    """Every invariant the reduction serves, read once."""
    dec = qf.block_decompose(q)
    if getattr(q.field, "is_finite", False):
        qf.witt_class(q)
    if dec.radical_dim:
        with pytest.raises(qf.SingularForm):
            qf.clifford_symbols(q)
    else:
        qf.arf_sum(q)
        qf.clifford_symbols(q)
    return dec


def _assert_routes_agree(q):
    """block_decompose on q's own rows, on list rows over the same field
    and by the reference reduction: same blocks and radical diagonal.
    The reference's basis realizes them: its pairs span the blocks and
    its radical rows the radical."""
    ref = reference_decompose(q)
    routes = [_read_invariants(q), ref]
    if getattr(q.field, "is_finite", False):
        routes.append(_read_invariants(as_list_rows(q)))
    first = routes[0]
    for dec in routes[1:]:
        assert dec.blocks == first.blocks
        assert dec.radical_diag == first.radical_diag
        assert dec.radical_dim == first.radical_dim
    _assert_realizes(q, ref)


def _assert_realizes(q, ref):
    """q(u) = a, q(v) = b and b(u, v) = 1 for each reference pair (u, v)
    with block [a, b], q(w) is the radical diagonal on each radical row
    w, and the vectors of distinct pairs and the radical rows are
    orthogonal to each other."""
    f = q.field
    vecs = [v for pair in ref.pairs for v in pair] + ref.radical_rows
    values = [x for block in ref.blocks for x in block] + ref.radical_diag
    assert len(vecs) == q.dim
    for a, (u, value) in enumerate(zip(vecs, values)):
        assert _value(q, u) == value
        for b in range(a + 1, len(vecs)):
            partner = a % 2 == 0 and b == a + 1 and b < 2 * len(ref.pairs)
            assert q.bilinear(u, vecs[b]) == (f.one if partner else f.zero)


def test_decompose_gf2_matches_generic_path():
    # packed rows, list rows over GF(2) and the reference reduction
    rng = random.Random(20)
    for _ in range(40):
        dim = rng.choice([2, 4, 6, 8])
        q = random_nonsingular_form(GF2, dim, rng)
        _assert_routes_agree(q)
        _assert_routes_agree(qf.direct_sum(q, QuadraticForm.diagonal(GF2, [1, 0])))


_FUNCTION_FIELDS = (rational.FunctionField(GF2), rational.FunctionField(GF2.extend("a^2+a+1")))


def _elements(f):
    """Elements of a finite level, or of F(t) with numerator and
    denominator of degree at most 2."""
    if getattr(f, "is_finite", False):
        return st.integers(0, f.order - 1)
    poly = st.lists(st.integers(0, f.coeff.order - 1), max_size=3)
    return st.builds(lambda a, b: f.make(a, b if any(b) else (1,)), poly, poly)


def _draw_form(data, fields_, max_dim):
    """A random form, possibly singular, over one of the given fields."""
    f = data.draw(st.sampled_from(fields_))
    n = data.draw(st.integers(0, max_dim))
    el = _elements(f)
    polar = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            polar[i][j] = polar[j][i] = data.draw(el)
    return QuadraticForm(f, [data.draw(el) for _ in range(n)], polar), el


def _value(q, v):
    """q(v) by the evaluation rule, read off diag and polar_entry."""
    f = q.field
    acc = f.zero
    for i, x in enumerate(v):
        acc = f.add(acc, f.mul(f.mul(x, x), q.diag[i]))
        for j in range(i + 1, len(v)):
            acc = f.add(acc, f.mul(f.mul(x, v[j]), q.polar_entry(i, j)))
    return acc


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_restricted_matches_evaluation_rule(gf4, gf8, data):
    q, el = _draw_form(data, [GF2, gf4, gf8, _FUNCTION_FIELDS[0]], 7)
    f, n = q.field, q.dim
    kind = data.draw(st.sampled_from(["hyperplane", "kernel", "coordinates", "arbitrary"]))
    if kind == "hyperplane" and n:
        # e_k + lam_k e_k0, the shape of the trace-zero subspace
        k0 = data.draw(st.integers(0, n - 1))
        lam = [data.draw(el) for _ in range(n)]
        rows = [[f.one if c == k else lam[k] if c == k0 else f.zero for c in range(n)]
                for k in range(n) if k != k0]
    elif kind == "kernel":
        eqs = [[data.draw(el) for _ in range(n)] for _ in range(data.draw(st.integers(0, n)))]
        solve = kernel if getattr(f, "is_finite", False) else kernel_generic
        rows = solve(f, eqs, n)
    elif kind == "coordinates":
        picked = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        rows = [[f.one if c == k else f.zero for c in range(n)] for k in picked]
    else:
        rows = [[data.draw(el) for _ in range(n)] for _ in range(data.draw(st.integers(0, n + 1)))]
    coeffs = [data.draw(el) for _ in rows]
    combo = [f.zero] * n
    for c, row in zip(coeffs, rows):
        combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, row)]
    sparse = [tuple((c, x) for c, x in enumerate(r) if x) for r in rows]
    for given_rows in (rows, [q.ring.read(r) for r in rows], sparse):
        r = q.restricted(given_rows)
        _assert_pullback(q, r, rows)
        assert _value(r, coeffs) == _value(q, combo)


def _assert_pullback(q, r, rows):
    """r is q restricted to the given coordinate rows, by the evaluation
    rule: r(e_a) = q(row_a) and b_r(e_a, e_b) = b_q(row_a, row_b)."""
    f = q.field
    assert r.dim == len(rows)
    for a, ra in enumerate(rows):
        assert r.diag[a] == _value(q, ra)
        assert r.polar_entry(a, a) == f.zero
        for b in range(a + 1, len(rows)):
            rb = rows[b]
            both = _value(q, [f.add(x, y) for x, y in zip(ra, rb)])
            expect = f.add(f.add(both, _value(q, ra)), _value(q, rb))
            assert r.polar_entry(a, b) == r.polar_entry(b, a) == expect


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_restricted_unit_rows_match_evaluation_rule(gf4, gf8, data):
    # unit rows ((k, 1),) take the polar row and q(e_k) as they are; mixed
    # with scaled single entries and multi-entry rows, on packed and list rows
    q, _ = _draw_form(data, [GF2, gf4, gf8], 7)
    if data.draw(st.booleans()):
        q = as_list_rows(q)
    f, n = q.field, q.dim
    kinds = [k for k, ok in (("unit", n), ("scaled", n and f.order > 2), ("multi", n > 1)) if ok]
    sparse = []
    for _ in range(data.draw(st.integers(0, n + 2)) if kinds else 0):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "unit":
            sparse.append(((data.draw(st.integers(0, n - 1)), f.one),))
        elif kind == "scaled":
            sparse.append(((data.draw(st.integers(0, n - 1)), data.draw(st.integers(2, f.order - 1))),))
        else:
            cols = data.draw(st.sets(st.integers(0, n - 1), min_size=2))
            sparse.append(tuple((c, data.draw(st.integers(1, f.order - 1))) for c in sorted(cols)))
    rows = [q.ring.unpack(q.ring.sparse(s, n), n) for s in sparse]
    _assert_pullback(q, q.restricted(sparse), rows)
    units = q.restricted([((k, f.one),) for k in range(n)])
    assert units.rows == q.rows and units.diag == q.diag


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_decompose_packed_matches_generic_path_all_levels(gf4, gf8, data):
    # the packed reduction scales rows where GF(2) only xors them; the
    # list rows and the reference work entry by entry on the same form
    q, _ = _draw_form(data, [GF2, gf4, gf8], 8)
    _assert_routes_agree(q)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_decompose_over_function_fields_matches_reference(data):
    q, el = _draw_form(data, _FUNCTION_FIELDS, 6)
    _assert_routes_agree(q)
    # a quasilinear summand adds radical rows
    rad = QuadraticForm.diagonal(q.field, [data.draw(el) for _ in range(data.draw(st.integers(1, 2)))])
    _assert_routes_agree(qf.direct_sum(q, rad))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_radical_over_function_fields_is_orthogonal_to_everything(data):
    q, el = _draw_form(data, _FUNCTION_FIELDS, 6)
    if data.draw(st.booleans()):
        q = qf.direct_sum(q, QuadraticForm.diagonal(q.field, [data.draw(el)]))
    f, n = q.field, q.dim
    with pytest.raises(qf.NotFiniteField):
        qf.radical(q)
    rad = reference_decompose(q).radical_rows
    dec = qf.block_decompose(q)
    assert len(rad) == dec.radical_dim == n - 2 * len(dec.blocks)
    assert [_value(q, row) for row in rad] == dec.radical_diag
    for row in rad:
        for k in range(n):
            assert f.is_zero(q.bilinear(row, [f.one if c == k else f.zero for c in range(n)]))


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_arf_additive_under_direct_sum(gf4, gf8, data):
    f = data.draw(st.sampled_from([GF2, gf4, gf8]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    q1, q2 = (
        random_nonsingular_form(f, data.draw(st.sampled_from([2, 4, 6])), rng) for _ in range(2)
    )
    s = qf.direct_sum(q1, q2)
    assert qf.arf(s) == f.wp_class_rep(f.add(qf.arf(q1), qf.arf(q2)))
    # the raw sums agree modulo {x^2 + x}, not only their classes
    assert f.wp_member(f.add(qf.arf_sum(s), f.add(qf.arf_sum(q1), qf.arf_sum(q2))))
