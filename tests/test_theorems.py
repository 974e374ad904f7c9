import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import csa, fields, linalg, quadform as qf, theorems
from t2forms.fields import GF2
from t2forms.quadform import QuadraticForm, WittClass

from support import element_add, scalar_mul


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
            element_add(alg, e, scalar_mul(alg, field.mul(t1[k], lam), basis[k0]))
            for k, e in enumerate(basis)
            if k != k0
        ]
    diag = [coeff(v, 2) for v in basis]
    m = len(basis)
    polar = [[field.zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b = field.add(coeff(element_add(alg, basis[i], basis[j]), 2), field.add(diag[i], diag[j]))
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


def test_standard_field_built_once_per_name():
    theorems.clear_standard_fields()
    gf4 = theorems.standard_field("GF4")
    assert theorems.standard_field("GF4") is gf4
    assert theorems.standard_field("GF2") is GF2
    theorems.clear_standard_fields()
    fresh = theorems.standard_field("GF4")
    assert fresh is not gf4 and fresh == gf4
    with pytest.raises(ValueError, match="unknown field shorthand"):
        theorems.standard_field("GF3")


def test_ext_of_degree_built_once_per_key():
    theorems.clear_standard_fields()
    E = theorems._ext_of_degree(GF2, 5, seed=3)
    assert theorems._ext_of_degree(GF2, 5, seed=3) is E
    # the base is compared by signature, not identity
    gf4, twin = GF2.extend("a^2+a+1"), GF2.extend("a^2+a+1")
    assert theorems._ext_of_degree(twin, 3) is theorems._ext_of_degree(gf4, 3)
    assert theorems._ext_of_degree(GF2, 5, seed=4) is not E
    theorems.clear_standard_fields()
    fresh = theorems._ext_of_degree(GF2, 5, seed=3)
    assert fresh is not E and fresh == E


def test_ext_of_degree_memo_keeps_one_seed():
    theorems.clear_standard_fields()
    for seed in range(6):
        for n in (3, 5, 7):
            theorems._ext_of_degree(GF2, n, seed)
    assert sorted(theorems._extensions) == [(GF2, n, 5) for n in (3, 5, 7)]
    E = theorems._ext_of_degree(GF2, 3, seed=5)
    assert theorems._ext_of_degree(GF2, 3, seed=5) is E
    theorems.clear_standard_fields()


def test_ext_of_degree_proves_its_polynomial_once(monkeypatch):
    # find_irreducible's scan is the proof; the level is built on it
    # without a second scan
    theorems.clear_standard_fields()
    calls = []
    scan = fields._distinct_degree_scan
    monkeypatch.setattr(
        fields,
        "_distinct_degree_scan",
        lambda F, ring, p: calls.append((F, ring.write(p))) or scan(F, ring, p),
    )
    for base, n in ((GF2, 9), (GF2.extend("a^2+a+1"), 5)):
        E = theorems._ext_of_degree(base, n, seed=7)
        assert calls.count((base, E.poly)) == 1
    theorems.clear_standard_fields()


def test_quaternion_algebras_build_no_level(monkeypatch):
    # t1 and t2 of a quaternion algebra are closed forms over its own
    # field: a fresh verify-all pass builds 12 of them and no Level
    # inside any
    theorems.clear_standard_fields()
    calls, inside, built = [], [], []
    quaternion, init = csa.quaternion_algebra, fields.Level.__init__

    def counting_quaternion(field, a, b):
        calls.append((field, b))
        inside.append((field, b))
        try:
            return quaternion(field, a, b)
        finally:
            inside.pop()

    def counting_init(self, *args, **kwargs):
        if inside:
            built.append(inside[-1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(csa, "quaternion_algebra", counting_quaternion)
    monkeypatch.setattr(fields.Level, "__init__", counting_init)
    theorems.run_verification("all", seed=5)
    assert len(calls) == 12 and built == []
    theorems.clear_standard_fields()


def test_verify_all_classifies_each_shared_algebra_once(monkeypatch):
    # a cold run builds each crossed product's form once per (E, base,
    # cocycle), remark3's trivial and cyclic GF(4) products sharing a
    # label, and each Mat(n) form once per field; thm3 reads Mat(n)'s
    # Arf and Clifford invariants off the matrix_trace_witt memo, so it
    # builds Mat(n) only over GF(8), where no other claim does
    theorems.clear_standard_fields()
    built, form, current = [], csa.second_trace_form, [None]

    def tracking(cid, rows):
        def run(grid, seed):
            current[0] = cid
            yield from rows(grid, seed)
        return run

    def counting(A):
        data = A.crossed_data
        if data is not None:
            built.append((current[0], ("crossed", data["E"], data["F"], repr(data["phi"]))))
        elif A.label.startswith("Mat("):
            built.append((current[0], ("mat", A.field, A.degree)))
        return form(A)

    for cid, c in list(theorems.CLAIMS.items()):
        claim = theorems.Claim(tracking(cid, c.rows), c.defaults, c.rule, c.degree)
        monkeypatch.setitem(theorems.CLAIMS, cid, claim)
    monkeypatch.setattr(csa, "second_trace_form", counting)
    theorems.run_verification("all", seed=5)
    keys = [key for _, key in built]
    assert len(keys) == len(set(keys))
    # thm1's six GF(2) products, remark3's four over GF(4); prop1's Mat(2..9)
    # over GF(2) and GF(4), thm3's Mat(2, 4, 6, 8) over GF(8)
    assert sum(key[0] == "crossed" for key in keys) == 10
    assert sum(key[0] == "mat" for key in keys) == 20
    assert {cid for cid, key in built if key[0] == "crossed"} == {"thm1", "remark3"}
    assert {cid for cid, key in built if key[0] == "mat"} == {"prop1", "thm3"}
    gf8 = theorems.standard_field("GF8")
    assert [key for cid, key in built if cid == "thm3" and key[0] == "mat"] == [
        ("mat", gf8, n) for n in (2, 4, 6, 8)
    ]
    theorems.clear_standard_fields()


def test_each_claim_alone_reports_its_rows_under_all():
    theorems.clear_standard_fields()
    merged = {}
    for r in theorems.run_verification("all", seed=5):
        merged.setdefault(r.claim, []).append(r.to_json())
    for cid in theorems.CLAIM_IDS:
        theorems.clear_standard_fields()
        assert [r.to_json() for r in theorems.run_verification(cid, seed=5)] == merged[cid]
    theorems.clear_standard_fields()


def test_cor2_draws_polynomials_and_builds_no_level(monkeypatch):
    # cor2 reads only the drawn polynomial; a later claim that multiplies
    # in the extension builds its level on that polynomial, drawing none
    theorems.clear_standard_fields()
    extended, drawn = [], []
    extend, find = fields.Level.extend, fields.find_irreducible
    monkeypatch.setattr(
        fields.Level, "extend", lambda self, *a, **k: extended.append(self) or extend(self, *a, **k)
    )
    monkeypatch.setattr(
        fields, "find_irreducible", lambda F, d, rng: drawn.append((F, d)) or find(F, d, rng)
    )
    theorems.run_verification("cor2", seed=5)
    gf8 = theorems.standard_field("GF8")
    # GF2.extend builds the GF(4) and GF(8) shorthands, and nothing else
    assert extended == [GF2, GF2]
    assert sorted(drawn, key=repr) == sorted(
        ((F, n) for F in (GF2, theorems.standard_field("GF4"), gf8) for n in (3, 5, 7, 9)), key=repr
    )
    for n in (3, 5, 7, 9):
        poly = theorems._ext_poly(gf8, n, 5)
        E = theorems._ext_of_degree(gf8, n, 5)
        assert E.parent is gf8 and E.poly == poly
        assert theorems._ext_of_degree(gf8, n, 5) is E
        assert drawn.count((gf8, n)) == 1
    assert extended[2:] == [gf8] * 4
    theorems.clear_standard_fields()


def test_pickles_leave_the_harness_memo_out():
    from t2forms.rational import FunctionField

    theorems.clear_standard_fields()
    ff = FunctionField(GF2)
    theorems.run_verification("thm2")
    theorems.run_verification("cor1", {"n": [3]})
    E = theorems._ext_of_degree(GF2, 3)
    assert GF2._tensor_cache and E._tensor_cache
    warm = [pickle.dumps(x) for x in (ff.t, GF2, E)]
    for x, data in zip((ff.t, GF2, E), warm):
        assert pickle.loads(data) == x
    assert not hasattr(pickle.loads(warm[2]), "_tensor_cache")
    # the same bytes as once the memo is dropped
    theorems.clear_standard_fields()
    del E._tensor_cache
    assert [pickle.dumps(x) for x in (ff.t, GF2, E)] == warm


_SEEDS = (0, 1, 5, -1, -2, -3, 2**61 - 2, 2**61 - 1, 2**61, -(2**61 - 1), -(2**61), 10**20, -(10**20))


def test_seed_mixing_matches_the_tuple_hash():
    # the written-out mixing agrees with CPython's (64-bit) tuple hash,
    # around the int-hash modulus 2^61 - 1 and at -1, whose hash is -2
    for seed in _SEEDS:
        for bits in (1, 2, 3):
            for degree in range(1, 12):
                assert theorems._mix16(seed, bits, degree) == hash((seed, bits, degree)) & 0xFFFF


def test_seeded_extension_is_drawn_from_the_mixed_seed():
    theorems.clear_standard_fields()
    for seed in _SEEDS:
        rng = random.Random(theorems._mix16(seed, 1, 5))
        assert theorems._ext_of_degree(GF2, 5, seed).poly == fields.find_irreducible(GF2, 5, rng)
    theorems.clear_standard_fields()


def test_galois_obstruction_tests_reducible_f_once(gf8, monkeypatch):
    f = (1, 0, 0, 0, 0, 1, 1, 1)  # x^7+x^6+x^5+1 = (x+1)^3 (x^4+x+1)
    on_f = []
    witness = fields.poly_factor_witness

    def counting(field, p):
        if tuple(p) == f:
            on_f.append(p)
        return witness(field, p)

    monkeypatch.setattr(fields, "poly_factor_witness", counting)
    rep = theorems.galois_obstruction(gf8, f)
    assert rep["reducible"] and rep["roots"]
    assert len(on_f) == 1


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


def test_claim_rows_read_exactly_their_grid_keys():
    # each claim's rows are handed empty grids and must ask for exactly
    # the grid keys its defaults list
    class Recorder(dict):
        def __getitem__(self, key):
            self.read.add(key)
            return () if key in ("n", "fields", "pairs") else super().__getitem__(key)

    for cid, claim in theorems.CLAIMS.items():
        grid = Recorder(field="GF2")
        grid.read = set()
        list(claim.rows(grid, 0))
        assert grid.read & {"n", "fields", "pairs"} == set(claim.reads), cid


def test_degree_rules_cover_the_claims_reading_n():
    claims = theorems.CLAIMS
    assert {c for c in claims if claims[c].rule} == {c for c in claims if "n" in claims[c].reads}
    # each rule admits the claim's own default degrees
    for cid, claim in claims.items():
        if claim.rule:
            assert all(theorems.admits_degree(cid, n) for n in claim.defaults["n"]), cid


def test_every_runner_and_prediction_rejects_degrees_outside_its_rule():
    for cid, claim in theorems.CLAIMS.items():
        if claim.rule is None:
            continue
        least, parity = claim.rule
        bad = [least - 1] + ([least + 1] if parity is not None else [])
        for n in bad:
            assert not theorems.admits_degree(cid, n)
            with pytest.raises(ValueError, match=f"n={n}: {cid} admits"):
                theorems.run_verification(cid, {"n": [n]})
    for predict, cid in (
        (theorems.predicted_matrix_class, "prop1"),
        (theorems.predicted_crossed_odd, "cor1"),
        (theorems.predicted_invariants, "thm3"),
    ):
        for n in range(0, 10):
            if theorems.admits_degree(cid, n):
                predict(GF2, n)
            else:
                with pytest.raises(ValueError, match=f"{cid} admits"):
                    predict(GF2, n)


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


def test_degree_cap_is_the_upper_end_of_each_rule():
    # cor4 builds tensor squares, so its cap is on n^2
    assert theorems.admits_degree("cor4", 5, cap=25) and not theorems.admits_degree("cor4", 6, cap=35)
    assert theorems.admits_degree("cor1", 35, cap=35) and not theorems.admits_degree("cor1", 37, cap=35)
    assert theorems.claim_degrees("all", [5, 6], cap=35)["cor4"] == [5]
    assert theorems.claim_degrees("all", [5, 6], cap=35)["prop1"] == [5, 6]
    with pytest.raises(ValueError, match="n=6: cor4 builds degree 36, which exceeds --max-degree 35"):
        theorems.claim_degrees("cor4", [6], cap=35)
    # the rule still speaks first when it refuses the degree itself
    with pytest.raises(ValueError, match="n=4: cor1 admits odd n >= 3"):
        theorems.claim_degrees("cor1", [4], cap=3)


def _record_runs(monkeypatch):
    """Replace every claim's rows by a recorder of the claims run."""
    ran = []

    def rows(cid):
        return lambda grid, seed: iter(ran.append(cid) or ())

    for cid, claim in theorems.CLAIMS.items():
        recorder = theorems.Claim(rows(cid), claim.defaults, claim.rule, claim.degree)
        monkeypatch.setitem(theorems.CLAIMS, cid, recorder)
    return ran


def test_run_verification_checks_the_cap_before_any_claim_runs(monkeypatch):
    ran = _record_runs(monkeypatch)
    with pytest.raises(ValueError, match="thm2 builds degree 21, which exceeds --max-degree 20"):
        theorems.run_verification("all", {"n": [3]}, max_degree=20)
    with pytest.raises(ValueError, match="remark2 builds degree 9, which exceeds --max-degree 8"):
        theorems.run_verification("remark2", max_degree=8)
    assert ran == []
    # every default grid lies within the default cap of 35
    theorems.run_verification("all", max_degree=35)
    assert ran == list(theorems.CLAIM_IDS)


def test_run_verification_checks_pairs_and_field_names_before_any_claim_runs(monkeypatch):
    ran = _record_runs(monkeypatch)
    with pytest.raises(ValueError, match="pairs=1x3: thm2 admits n1, n2 >= 2"):
        theorems.run_verification("all", {"pairs": [(5, 7), (1, 3)]})
    with pytest.raises(ValueError, match="pairs=4x0: thm4 admits n1, n2 >= 2"):
        theorems.run_verification("thm4", {"pairs": [(4, 0)]})
    with pytest.raises(ValueError, match="fields=GF16: unknown field shorthand 'GF16'"):
        theorems.run_verification("all", {"fields": ("GF2", "GF16")})
    assert ran == []


@pytest.mark.parametrize("seed", [0, 5])
def test_cor2_rows_agree_with_the_public_obstruction_test(seed):
    # cor2 skips the factor witness on its own irreducible polynomials;
    # the full galois_obstruction route must give the same verdicts
    reports = theorems.run_verification("cor2", {"n": [3, 5, 7]}, seed=seed)
    assert len(reports) == 9
    for r in reports:
        base = theorems.standard_field(r.params["field"])
        E = theorems._ext_of_degree(base, r.params["n"], seed)
        rep = theorems.galois_obstruction(base, E.poly)
        assert rep["reducible"] is False
        assert r.computed == {k: rep[k] for k in ("verdict", "degenerate") if k in rep}


_COUNT_WITNESSES = """
import contextlib, io
from t2forms import cli, fields
calls = []
witness = fields.poly_factor_witness
fields.poly_factor_witness = lambda *a, **k: calls.append(a) or witness(*a, **k)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--cmd", "verify", "--claim", "all", "--seed", "5"])
print(code, len(calls))
"""


def test_verify_all_runs_no_repeated_cor2_witness():
    # a fresh process, so no cache of earlier tests hides a witness; cor2
    # once took a third witness of each extension polynomial (103 calls)
    src = str(Path(theorems.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_WITNESSES],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    code, calls = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert calls <= 91
