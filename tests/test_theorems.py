import pytest
from hypothesis import given, settings, strategies as st

from t2forms import csa, fields, linalg, quadform as qf, theorems
from t2forms.fields import GF2
from t2forms.quadform import QuadraticForm, WittClass


def test_revoy_gf4_is_norm_form(gf4):
    q = theorems.revoy_trace_form_of_extension(gf4, GF2)
    assert q.dim == 2
    # x0^2 + x0 x1 + x1^2
    assert q.diag == [1, 1] and q.polar_entry(0, 1) == 1
    assert qf.witt_class(q).arf == 1


def test_revoy_gf8(gf8):
    q = theorems.revoy_trace_form_of_extension(gf8, GF2)
    assert q.dim == 2
    assert qf.witt_class(q).arf == 1  # degree 3 is 3 mod 8


def test_revoy_degree_one():
    q = theorems.revoy_trace_form(GF2, (1, 1))  # x + 1
    assert q.dim == 0


def test_revoy_quotient_matches_extension(gf4, gf8):
    # over GF(2) the product basis of a simple extension is the power
    # basis of the quotient by its defining polynomial
    for E in (gf4, gf8, GF2.extend("a^5+a^2+1")):
        q1 = theorems.revoy_trace_form(GF2, E.poly)
        q2 = theorems.revoy_trace_form_of_extension(E, GF2)
        assert q1.dim == E.bits - E.bits % 2
        assert q1.diag == q2.diag and q1.polar == q2.polar


def _charpoly_revoy_form(field, fpoly):
    """Oracle for the Revoy form: t1 and t2 read off the characteristic
    polynomial of left multiplication, the polar form as
    t2(x+y) + t2(x) + t2(y), and for odd degree the trace-kernel basis
    e_k + (t1(e_k) / t1(e_k0)) e_k0, k != k0."""
    alg = csa.commutative_quotient(field, fpoly)
    d = alg.dim

    def coeff(x, i):
        return linalg.charpoly(field, csa.left_regular_matrix(alg, x))[d - i]

    basis = [alg.basis_vector(k) for k in range(d)]
    if d % 2:
        t1 = [coeff(e, 1) for e in basis]
        k0 = next(k for k, v in enumerate(t1) if v)
        lam = field.inv(t1[k0])
        basis = [
            alg.add(e, alg.scalar_mul(field.mul(t1[k], lam), basis[k0]))
            for k, e in enumerate(basis)
            if k != k0
        ]
    diag = [coeff(v, 2) for v in basis]
    m = len(basis)
    polar = [[field.zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b = field.add(coeff(alg.add(basis[i], basis[j]), 2), field.add(diag[i], diag[j]))
            polar[i][j] = polar[j][i] = b
    return diag, polar


@settings(max_examples=60, deadline=None, database=None)
@given(
    fname=st.sampled_from(["GF2", "GF4"]),
    degree=st.integers(min_value=2, max_value=7),
    data=st.data(),
)
def test_revoy_form_matches_charpoly_oracle(fname, degree, data):
    field = theorems.standard_field(fname)
    low = data.draw(st.lists(st.integers(0, field.order - 1), min_size=degree, max_size=degree))
    fpoly = tuple(low) + (field.one,)
    q = theorems.revoy_trace_form(field, fpoly)
    diag, polar = _charpoly_revoy_form(field, fpoly)
    assert q.diag == diag and q.polar == polar


def test_predicted_matrix_class_table(gf4):
    for n, expect_one in ((2, False), (3, True), (4, True), (7, False), (8, False)):
        p = theorems.predicted_matrix_class(GF2, n)
        assert (p.witt.arf == 1) == expect_one
    # over GF(4) the [1,1] class collapses to the hyperbolic class
    p = theorems.predicted_matrix_class(gf4, 4)
    assert p.witt.arf == 0 and p.notes


def test_prediction_dimension_arithmetic():
    # odd x odd: the hyperbolic filler accounts for the full dimension
    for n1, n2 in ((3, 5), (3, 7), (5, 7), (3, 3)):
        w1 = WittClass(GF2, n1 * n1 - 1, 0, 0)
        w2 = WittClass(GF2, n2 * n2 - 1, 1, 0)
        p = theorems.predicted_tensor(w1, w2, n1, n2)
        assert p.witt.dim == n1 * n1 * n2 * n2 - 1
        assert (n1 * n1 - 1) + (n2 * n2 - 1) + (n1 * n1 - 1) * (n2 * n2 - 1) == p.witt.dim


def test_thm3_agrees_with_matrix_table():
    # the integer part of n/4 mod 2 reproduces the mod-8 table for even n
    for n in range(2, 20, 2):
        by_quarter = theorems.predicted_invariants(GF2, n).arf
        by_table = theorems.predicted_matrix_class(GF2, n).witt.arf
        assert by_quarter == by_table


def test_cor4_specializes_thm2():
    for n in range(2, 8):
        w = theorems.matrix_trace_witt(GF2, n)
        p2 = theorems.predicted_tensor(w, w, n, n)
        p4 = theorems.predicted_tensor_square(GF2, n)
        assert p2.witt.arf == p4.arf


def test_predicted_crossed_odd():
    assert theorems.predicted_crossed_odd(GF2, 3).witt == WittClass(GF2, 2, 1, 0)
    assert theorems.predicted_crossed_odd(GF2, 7).witt == WittClass(GF2, 6, 0, 0)
    assert theorems.predicted_crossed_odd(GF2, 5).witt == WittClass(GF2, 4, 1, 0)


def test_galois_obstruction_inconclusive_on_galois(gf4):
    E = gf4.extend("b^3+b+1")  # but tested over base gf4: need odd degree ext of gf4
    rep = theorems.galois_obstruction(gf4, E.poly)
    assert rep["verdict"] == "inconclusive"
    assert "degenerate" in rep  # 1 lies in {x^2+x} over GF(4)
    rep2 = theorems.galois_obstruction(GF2, (1, 1, 0, 1))  # x^3 + x + 1 over GF(2)
    assert rep2["verdict"] == "inconclusive"
    assert "degenerate" not in rep2


def test_galois_obstruction_rejects_even_degree():
    with pytest.raises(ValueError):
        theorems.galois_obstruction(GF2, (1, 1, 1))


def test_galois_obstruction_never_false_positive():
    # every finite extension of finite fields is Galois, so the verdict
    # must be inconclusive across the whole grid
    reports = theorems.run_verification(
        "cor2", {"n": (3, 5, 7, 9), "fields": ("GF2", "GF4", "GF8")}
    )
    assert len(reports) == 12
    assert all(r.computed["verdict"] == "inconclusive" for r in reports)


def test_example1_audit_contents():
    rep = theorems.example1_audit()
    assert rep["verdict"] == "documented-discrepancy"
    assert rep["reducible"] is True
    assert rep["roots"] == ["a+1"]
    assert rep["factorization"][0] == "x+a+1"
    assert rep["claimed_form"] == "[1,a]"
    assert rep["claimed_arf"] == "a"
    assert rep["form_dim"] == 2
    assert "computed_witt" in rep


def test_run_verification_prop1_grid():
    reports = theorems.run_verification("prop1", {"n": [2, 3], "fields": ("GF2",)})
    assert len(reports) == 2
    assert all(r.verdict == "pass" for r in reports)
    js = reports[0].to_json()
    assert set(js) == {"claim", "params", "predicted", "computed", "verdict"}
    js_ms = reports[0].to_json(include_ms=True)
    assert "ms" in js_ms


def test_run_verification_unknown_claim():
    with pytest.raises(ValueError):
        theorems.run_verification("nope")


def test_claim_params_table_matches_runners():
    # each runner is handed empty grids and must ask for exactly the grid
    # keys the table lists for it
    class Recorder(dict):
        def get(self, key, default=None):
            self.read.add(key)
            return () if key in ("n", "fields", "pairs") else default

    for cid in theorems.CLAIM_IDS:
        params = Recorder()
        params.read = set()
        theorems._RUNNERS[cid](params, 0)
        assert params.read & {"n", "fields", "pairs"} == set(theorems.CLAIM_PARAMS[cid]), cid


def test_verification_reports_order_independent():
    r1 = theorems.run_verification("cor1", {"n": [3, 5]})
    r2 = theorems.run_verification("cor1", {"n": [5, 3]})
    assert [x.params for x in r1] == [x.params for x in r2]


def test_tensor_rule_over_gf4():
    # same tensor rule over a field where the [1,1] class collapses
    reports = theorems.run_verification(
        "thm2", {"field": "GF4", "pairs": ((2, 2), (2, 3), (3, 3))}
    )
    assert all(r.verdict == "pass" for r in reports)
    both_two = next(r for r in reports if r.params == {"n1": 2, "n2": 2})
    assert both_two.predicted["arf"] == "0"  # 1 lies in {x^2+x} over GF(4)
