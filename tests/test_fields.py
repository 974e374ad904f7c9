import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import cli, fields, linalg
from t2forms.fields import (
    GF2,
    NotAPower,
    RejectsReducible,
    poly_eval,
    poly_is_irreducible,
    poly_mul,
    poly_nth_root,
    poly_pow,
    poly_to_str,
)

from support import (
    TUPLE_GF2,
    TupleLevel,
    artin_schreier_by_fresh_matrix,
    artin_schreier_extension,
    from_coords_over,
    mul_by_coefficients,
    poly_roots,
    tables_by_power_test,
)

_GF4 = GF2.extend("a^2+a+1")
_GF8 = GF2.extend("a^3+a+1")


def test_extend_gf4(gf4):
    assert gf4.order == 4
    a = gf4.gen
    assert gf4.mul(a, a) == gf4.add(a, 1)  # a^2 = a + 1
    assert gf4.spec_string() == 'extend(GF2,"a^2+a+1")'


def test_extend_rejects_square():
    with pytest.raises(RejectsReducible) as exc:
        GF2.extend("c^2")
    g, h = exc.value.factors
    assert g == (0, 1) and h == (0, 1)  # x * x


def test_extend_rejects_reducible_with_the_same_witness():
    # b^5+b^4+1 = (b^2+b+1)(b^3+b+1): every public way to extend runs the
    # witness, whatever find_irreducible callers may skip
    p = (1, 0, 0, 0, 1, 1)
    want = ((1, 1, 1), (1, 1, 0, 1))
    assert fields.poly_factor_witness(GF2, p) == want
    builds = [
        lambda: GF2.extend(p, "b"),
        lambda: GF2.extend("b^5+b^4+1"),
        lambda: cli.parse_field_spec('extend(GF2,"b^5+b^4+1")'),
    ]
    for build in builds:
        with pytest.raises(RejectsReducible) as exc:
            build()
        assert exc.value.factors == want


def test_extend_rejects_cubic_with_root(gf4):
    # x^3 + x + a has the root a+1 over GF(4)
    a = gf4.gen
    with pytest.raises(RejectsReducible) as exc:
        gf4.extend("c^3+c+a")
    g, h = exc.value.factors
    assert poly_eval(gf4, (a, 1, 0, 1), a ^ 1) == 0
    assert g == (a ^ 1, 1)  # x + (a+1)


def test_field_ops_gf4(gf4):
    a = gf4.gen
    assert gf4.mul(a, a ^ 1) == 1
    assert gf4.inv(a) == a ^ 1
    assert gf4.frobenius(a) == a ^ 1
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)


def test_field_axioms_exhaustive(gf8):
    els = list(gf8.elements())
    for x in els:
        assert gf8.mul(x, 1) == x
        assert gf8.add(x, 0) == x
        if x:
            assert gf8.mul(x, gf8.inv(x)) == 1
    for x in els[:5]:
        for y in els:
            assert gf8.mul(x, y) == gf8.mul(y, x)
            for z in (3, 5):
                assert gf8.mul(x, gf8.add(y, z)) == gf8.add(gf8.mul(x, y), gf8.mul(x, z))


def test_tower_embedding(gf4, gf64_tower):
    # subfield elements keep their int encoding upstairs
    a = gf4.gen
    assert gf64_tower.mul(a, gf4.inv(a)) == 1
    assert gf64_tower.degree_over(gf4) == 3
    assert gf64_tower.degree_over(GF2) == 6
    x = 45
    coords = gf64_tower.coords_over(GF2, x)
    assert from_coords_over(gf64_tower, GF2, coords) == x


def test_absolute_trace(gf4):
    assert gf4.trace(gf4.gen) == 1
    assert gf4.trace(1) == 0
    assert GF2.trace(1) == 1


def test_trace_additive_exhaustive(gf8):
    for x in gf8.elements():
        for y in gf8.elements():
            assert gf8.trace(x ^ y) == gf8.trace(x) ^ gf8.trace(y)


def test_artin_schreier_examples(gf4):
    assert GF2.artin_schreier_solve(1) is None
    v = gf4.artin_schreier_solve(1)
    assert v is not None and gf4.square(v) ^ v == 1
    assert gf4.artin_schreier_solve(gf4.gen) is None


def test_artin_schreier_iff_trace_exhaustive(gf4, gf8, gf64_tower):
    for lvl in (GF2, gf4, gf8, gf64_tower):
        for c in lvl.elements():
            sol = lvl.artin_schreier_solve(c)
            assert (sol is not None) == (lvl.trace(c) == 0)
            if sol is not None:
                assert lvl.square(sol) ^ sol == c


def test_wp_of_square_plus_self(gf8):
    for x in gf8.elements():
        c = gf8.square(x) ^ x
        v = gf8.artin_schreier_solve(c)
        assert v is not None
        assert gf8.square(v) ^ v == c


def test_frobenius_sqrt_roundtrip(gf4, gf8, gf64_tower):
    for lvl in (GF2, gf4, gf8, gf64_tower):
        for x in lvl.elements():
            assert lvl.frobenius(lvl.sqrt(x)) == x
            assert lvl.sqrt(lvl.frobenius(x)) == x


def test_nonresidue(gf4, gf8):
    assert GF2.nonresidue() == 1
    assert gf4.nonresidue() == gf4.gen
    assert gf8.nonresidue() == 1  # trace(1) = 1 when the degree is odd


def test_poly_roots_examples(gf4):
    assert poly_roots(GF2, (1, 1, 1)) == []
    assert poly_roots(gf4, (gf4.gen, 1, 0, 1)) == [gf4.gen ^ 1]
    assert sorted(poly_roots(GF2, (0, 1, 1))) == [0, 1]


def test_poly_roots_multiplicity(gf4):
    # (x + a)^2 * (x + 1)
    a = gf4.gen
    p = poly_mul(gf4, poly_pow(gf4, (a, 1), 2), (1, 1))
    roots = poly_roots(gf4, p)
    assert sorted(roots) == sorted([a, a, 1])


@settings(max_examples=150, deadline=None, database=None)
@given(
    fname=st.sampled_from(["GF2", "GF4", "GF8"]),
    data=st.data(),
)
def test_linear_factor_roots_equal_enumerated_roots(fname, data):
    # the factorization route of galois-check against the enumerating
    # poly_roots, on products of linear and random factors
    field = {"GF2": GF2, "GF4": _GF4, "GF8": _GF8}[fname]
    elem = st.integers(0, field.order - 1)
    p = (field.one,)
    for r in data.draw(st.lists(elem, min_size=1, max_size=4)):
        p = poly_mul(field, p, (r, field.one))
    for low in data.draw(st.lists(st.lists(elem, min_size=1, max_size=4), max_size=2)):
        p = poly_mul(field, p, tuple(low) + (field.one,))
    roots = fields.linear_factor_roots(field, p)
    assert roots == poly_roots(field, p)
    assert roots == sorted(roots)


def test_irreducibility_degrees(gf4):
    assert poly_is_irreducible(GF2, (1, 1, 1))
    assert not poly_is_irreducible(GF2, (1, 0, 1))  # (x+1)^2
    # degree 4 with no roots but a quadratic factor: (x^2+x+1)^2
    p = poly_pow(GF2, (1, 1, 1), 2)
    assert poly_roots(GF2, p) == []
    assert not poly_is_irreducible(GF2, p)
    assert poly_is_irreducible(GF2, (1, 1, 0, 0, 1))  # x^4+x+1


def test_extend_rejects_two_distinct_quadratics(gf4):
    # b^4+b^3+1 has no root over GF(4) but is the product of two distinct
    # irreducible quadratics
    with pytest.raises(RejectsReducible) as exc:
        fields.GF2.extend("a^2+a+1").extend("b^4+b^3+1")
    g, h = exc.value.factors
    assert poly_mul(gf4, g, h) == (1, 0, 0, 1, 1)


def test_quartics_over_gf4_match_exhaustive_division(gf4):
    elems = range(gf4.order)
    divisors = [tuple(low) + (1,) for k in (1, 2) for low in itertools.product(elems, repeat=k)]
    for low in itertools.product(elems, repeat=4):
        p = tuple(low) + (1,)
        reducible = any(not fields.poly_divmod(gf4, p, g)[1] for g in divisors)
        witness = fields.poly_factor_witness(gf4, p)
        assert (witness is not None) == reducible, p
        if witness:
            assert poly_mul(gf4, *witness) == p


def test_extension_above_the_enumeration_limit():
    # GF(2^15) is too large to enumerate, so the witness must not
    # search it for roots
    E = GF2.extend("a^3+a+1").extend("b^5+b^2+1")
    assert E.order > 1 << 14
    L = E.extend("c^2+c+1")  # trace(1) = 1 in GF(2^15), so no root
    assert L.order == 1 << 30
    assert L.mul(L.gen, L.gen) == L.gen ^ 1
    # trace(b) = 0, so c^2+c+b has two roots in GF(2^15)
    with pytest.raises(RejectsReducible) as exc:
        E.extend("c^2+c+b")
    g, h = exc.value.factors
    assert poly_mul(E, g, h) == (E.gen, 1, 1)
    assert fields.poly_deg(g) == fields.poly_deg(h) == 1


def test_find_irreducible_rejects_degree_below_one():
    for degree in (0, -1):
        with pytest.raises(fields.FieldError, match=f"degree {degree}"):
            fields.find_irreducible(GF2, degree, random.Random(0))


def test_find_irreducible_big(gf8):
    rng = random.Random(0)
    p = fields.find_irreducible(gf8, 5, rng)
    assert poly_is_irreducible(gf8, p)
    E = gf8.extend(p, "z")
    assert E.order == 8**5
    x = 123456 % E.order
    assert E.mul(x, E.inv(x or 1)) in (0, 1)


def _monic_polys(field, degree):
    """Iterate all monic polynomials of exactly the given degree."""
    elems = list(field.elements())
    stack = [()]
    for _ in range(degree):
        stack = [p + (c,) for p in stack for c in elems]
    for low in stack:
        yield fields.poly_trim(low + (field.one,))


def _xpow_mod(field, e, modulus):
    """x**e reduced modulo the given polynomial."""
    result = (field.one,)
    base = fields.poly_mod(field, (field.zero, field.one), modulus)
    while e:
        if e & 1:
            result = fields.poly_mod(field, fields.poly_mul(field, result, base), modulus)
        base = fields.poly_mod(field, fields.poly_mul(field, base, base), modulus)
        e >>= 1
    return result


def _trial_division_witness(field, p):
    """Independent oracle: a nontrivial monic factorization (g, h) of p,
    or None if p is irreducible.  Root search first, then a
    distinct-degree gcd for degree 4, exhaustive trial division beyond
    that and for quartics that split into two distinct irreducible
    quadratics."""
    p = fields.poly_monic(field, p)
    d = fields.poly_deg(p)
    if d <= 1:
        return None
    roots = poly_roots(field, p)
    if roots:
        r = roots[0]
        g = (r, field.one)
        return g, fields.poly_divmod(field, p, g)[0]
    if d <= 3:
        return None
    if d == 4:
        # x^(q^2) - x is the product of the monic irreducibles of degree
        # 1 and 2; without roots, its gcd with p is 1 (p irreducible),
        # g for p = g^2, or p itself for two distinct quadratic factors,
        # which the trial division below finds
        q2 = field.order**2
        xq = _xpow_mod(field, q2, p)
        g = fields.poly_gcd(field, fields.poly_add(field, xq, (0, field.one)), p)
        if fields.poly_deg(g) == 0:
            return None
        if fields.poly_deg(g) < d:
            return g, fields.poly_divmod(field, p, g)[0]
    for deg in range(2, d // 2 + 1):
        for g in _monic_polys(field, deg):
            quot, rem = fields.poly_divmod(field, p, g)
            if not rem:
                return g, quot
    return None


def _draw_monic(data, F, degree):
    return tuple(data.draw(st.integers(0, F.order - 1)) for _ in range(degree)) + (1,)


@functools.lru_cache(maxsize=None)
def _irreducibles(F, k):
    """Every monic irreducible of degree k over F, by the oracle."""
    return [f for f in _monic_polys(F, k) if _trial_division_witness(F, f) is None]


def _draw_oracle_input(data, F, top):
    """A polynomial of degree <= top over F: random, a square or cube,
    or a product of distinct irreducibles of one degree (two or three
    where F has that many, so that the equal-degree split has factors to
    part), possibly times a random cofactor."""
    kind = data.draw(st.sampled_from(["random", "square", "cube", "same_degree"]))
    if kind == "random":
        p = _draw_monic(data, F, data.draw(st.integers(0, top)))
    elif kind in ("square", "cube"):
        e = 2 if kind == "square" else 3
        p = fields.poly_pow(F, _draw_monic(data, F, data.draw(st.integers(1, top // e))), e)
    else:
        k = data.draw(st.integers(1, top // 2))
        irreducibles = _irreducibles(F, k)
        picks = data.draw(st.lists(st.sampled_from(irreducibles), min_size=1,
                                   max_size=min(3, top // k), unique=True))
        p = (1,)
        for f in picks:
            p = poly_mul(F, p, f)
    room = top - fields.poly_deg(p)
    if room > 0 and data.draw(st.booleans()):
        p = poly_mul(F, p, _draw_monic(data, F, data.draw(st.integers(1, room))))
    return fields.poly_scale(F, data.draw(st.integers(1, F.order - 1)), p)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_witness_equals_trial_division_oracle(gf4, gf8, data):
    F, top = data.draw(st.sampled_from([(GF2, 14), (gf4, 8), (gf8, 6)]))
    p = _draw_oracle_input(data, F, top)
    witness = fields.poly_factor_witness(F, p)
    assert witness == _trial_division_witness(F, p), p
    if witness is not None:
        assert poly_mul(F, *witness) == fields.poly_monic(F, p)


def test_irreducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    cases = []
    for d in range(1, 41):
        cases += [tuple(rng.randrange(2) for _ in range(d)) + (1,) for _ in range(3)]
        cases.append(fields.find_irreducible(GF2, d, rng))
        if d % 2 == 0:
            f = fields.find_irreducible(GF2, d // 2, rng)
            cases += [poly_mul(GF2, f, f), poly_mul(GF2, f, fields.find_irreducible(GF2, d // 2, rng))]
    verdicts = []
    for p in cases:
        expected = sympy.Poly(list(reversed(p)), x, modulus=2).is_irreducible
        assert poly_is_irreducible(GF2, p) == expected, p
        verdicts.append(expected)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _count_calls(monkeypatch, name, owner=fields):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_witness_divisions_are_few(monkeypatch):
    # x^24+x^7+x^2+x+1 is irreducible: the scan takes 12 Frobenius steps
    # and 12 gcds, 121 int divisions in all; trial division would try
    # every monic divisor of degree <= 12, thousands of divisions
    p = tuple(int(i in (0, 1, 2, 7, 24)) for i in range(25))
    calls = _count_calls(monkeypatch, "gf2x_divmod")
    assert fields.poly_factor_witness(GF2, p) is None
    assert 0 < len(calls) <= 130


def test_witness_divisions_are_few_on_packed_chunks(monkeypatch, gf4):
    # the same over GF(4), where the scan runs on two-bit chunks: every
    # division of the ring (a divmod, a gcd step or a reduction by the
    # scan's modulus) is one _reduce.  x^24+x^9+x^3+a is irreducible, 12
    # steps of two squarings and 12 gcds take 116 divisions; trial
    # division would try every monic divisor of degree <= 12, millions
    p = (gf4.gen, 0, 0, 1) + (0,) * 5 + (1,) + (0,) * 14 + (1,)
    calls = _count_calls(monkeypatch, "_reduce", fields.PolyRing)
    assert fields.poly_factor_witness(gf4, p) is None
    assert 0 < len(calls) <= 130


# -- the int route over GF2 against the coefficient-tuple route ---------


def _gf2_list(data, top=24):
    # coefficient lists as callers pass them: trailing zeros allowed
    return data.draw(st.lists(st.integers(0, 1), max_size=top))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_int_route_equals_tuple_route(data):
    p, q = _gf2_list(data), _gf2_list(data)
    assert poly_mul(GF2, p, q) == poly_mul(TUPLE_GF2, p, q)
    assert fields.poly_gcd(GF2, p, q) == fields.poly_gcd(TUPLE_GF2, p, q)
    if any(q):
        assert fields.poly_divmod(GF2, p, q) == fields.poly_divmod(TUPLE_GF2, p, q)
        assert fields.poly_mod(GF2, p, q) == fields.poly_mod(TUPLE_GF2, p, q)
    else:
        for field in (GF2, TUPLE_GF2):
            with pytest.raises(ZeroDivisionError):
                fields.poly_divmod(field, p, q)
    f = _draw_oracle_input(data, GF2, 16)
    assert fields.poly_factor_witness(GF2, f) == fields.poly_factor_witness(TUPLE_GF2, f)


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 13, 17, 20])
def test_find_irreducible_draws_as_the_tuple_route(degree):
    for seed in range(3):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = fields.find_irreducible(GF2, degree, rng)
        assert got == fields.find_irreducible(TUPLE_GF2, degree, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()  # draw for draw


# -- the packed ring over larger levels against the tuple ring ----------


def _draw_factored(data, F, top):
    """A polynomial of degree <= top over F, not monic: random, or a
    product of random monic factors with one of them possibly repeated,
    so that the scan meets repeated and distinct factors of one degree."""
    elem = st.integers(0, F.order - 1)
    if data.draw(st.booleans()):
        return tuple(data.draw(st.lists(elem, max_size=top + 1)))
    p = (1,)
    while fields.poly_deg(p) < top:
        f = _draw_monic(data, F, data.draw(st.integers(1, max(1, (top - fields.poly_deg(p)) // 2))))
        p = poly_mul(F, p, poly_mul(F, f, f) if data.draw(st.booleans()) else f)
        if data.draw(st.booleans()):
            break
    return fields.poly_scale(F, data.draw(st.integers(1, F.order - 1)), p)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_packed_ring_equals_tuple_ring(gf4, gf8, large_levels, data):
    # GF(4), GF(8), table-free GF(2^13) and GF(4^8) over table-backed GF(4):
    # the ring operations, the public helpers, the factor witness and
    # find_irreducible's choice and rng state
    F, top = data.draw(st.sampled_from(
        [(gf4, 12), (gf8, 10), (large_levels[0], 6), (large_levels[1], 6)]
    ))
    T = TupleLevel(F)
    R, S = F.poly_ring(), T.poly_ring()
    elem = st.integers(0, F.order - 1)
    p, q = (data.draw(st.lists(elem, max_size=top + 1)) for _ in range(2))
    a, b = R.read(p), R.read(q)
    tp, tq = S.read(p), S.read(q)
    assert R.write(a) == tp and R.deg(a) == S.deg(tp)
    assert R.write(R.mul(a, b)) == S.mul(tp, tq) == poly_mul(F, p, q)
    assert R.write(R.square(a)) == S.square(tp)
    assert R.write(R.gcd(a, b)) == S.gcd(tp, tq) == fields.poly_gcd(F, p, q)
    if b:
        quot, rem = R.divmod(a, b)
        assert (R.write(quot), R.write(rem)) == S.divmod(tp, tq) == fields.poly_divmod(F, p, q)
        assert R.write(R.mod_by(b)(a)) == S.mod_by(tq)(tp)
        assert R.lead(b) == S.lead(tq)
    else:
        for field in (F, T):
            with pytest.raises(ZeroDivisionError):
                fields.poly_divmod(field, p, q)
    f = _draw_factored(data, F, top)
    witness = fields.poly_factor_witness(F, f)
    assert witness == fields.poly_factor_witness(T, f)
    if witness is not None:
        assert poly_mul(F, *witness) == fields.poly_monic(F, f)
    seed, degree = data.draw(st.integers(0, 1 << 16)), data.draw(st.integers(1, top // 2 + 1))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert fields.find_irreducible(F, degree, rng) == fields.find_irreducible(T, degree, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()  # draw for draw


def test_int_route_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p)) or [0], x, modulus=2)

    def from_sympy(P):
        return fields.poly_trim(int(c) % 2 for c in reversed(P.all_coeffs()))

    rng = random.Random(12)
    for _ in range(150):
        p = tuple(rng.randrange(2) for _ in range(rng.randrange(30)))
        q = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 20))) + (1,)
        P, Q = to_sympy(p), to_sympy(q)
        assert poly_mul(GF2, p, q) == from_sympy(P * Q)
        quot, rem = P.div(Q)
        assert fields.poly_divmod(GF2, p, q) == (from_sympy(quot), from_sympy(rem))
        assert fields.poly_gcd(GF2, p, q) == from_sympy(P.gcd(Q))


def _trace_by_squaring(lvl, x):
    acc = y = x
    for _ in range(lvl.bits - 1):
        y = lvl.square(y)
        acc ^= y
    return acc


@pytest.fixture(scope="module")
def large_levels(gf4, gf8):
    return [
        GF2.extend("a^13+a^4+a^3+a+1"),
        gf4.extend(fields.find_irreducible(gf4, 8, random.Random(2)), "b"),
        gf8.extend("b^5+b^2+1"),
    ]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_masked_trace_equals_squaring_sum(large_levels, data):
    lvl = data.draw(st.sampled_from(large_levels))
    x = data.draw(st.integers(0, lvl.order - 1))
    y = data.draw(st.integers(0, lvl.order - 1))
    assert lvl.trace(x) == _trace_by_squaring(lvl, x)
    assert lvl.trace(x ^ y) == lvl.trace(x) ^ lvl.trace(y)


@functools.lru_cache(maxsize=None)
def _level_over_gf2(degree):
    # degrees up to 11 are table-backed, 12 to 16 table-free
    return GF2.extend(fields.find_irreducible(GF2, degree, random.Random(degree)), "a")


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_int_multiply_equals_coefficient_multiply(table_free_levels, data):
    # levels over GF(2) of degree 2-16, and the flat forms of GF(4^8),
    # GF(8^5) and the three-level GF(64^3)
    deep = st.sampled_from([lvl for lvl in table_free_levels if lvl.parent is not GF2])
    lvl = data.draw(st.one_of(st.integers(2, 16).map(_level_over_gf2), deep))
    x = data.draw(st.integers(0, lvl.order - 1))
    y = data.draw(st.integers(0, lvl.order - 1))
    want = mul_by_coefficients(lvl, x, y)
    assert lvl._mul_raw(x, y) == want
    assert lvl.mul(x, y) == want
    if y:
        assert mul_by_coefficients(lvl, y, lvl.inv(y)) == 1


def test_table_entries_equal_coefficient_multiply(gf4, gf8):
    # the exp tables are built by the int multiply: exp[i+1] = exp[i] * g
    for lvl in (gf4, gf8, GF2.extend("a^11+a^2+1")):
        g = lvl._exp[1]
        n = lvl.order - 1
        for i, v in enumerate(lvl._exp):
            assert lvl._exp[(i + 1) % n] == mul_by_coefficients(lvl, v, g)
    for x, y in itertools.product(range(8), repeat=2):
        assert gf8.mul(x, y) == mul_by_coefficients(gf8, x, y)


def _irreducibles_over_gf2(degree):
    """The irreducible polynomials of the degree over GF(2), as coefficient
    tuples, in the order of their bit masks."""
    for mask in range((1 << degree) + 1, 1 << (degree + 1), 2):
        poly = tuple((mask >> i) & 1 for i in range(degree + 1))
        if poly_is_irreducible(GF2, poly):
            yield poly


@pytest.fixture(scope="module")
def table_levels(gf4, gf8):
    # every table-backed shape: over GF(2) of degree 2-11 (the first two
    # irreducibles of each degree whose root 2 generates, and the first
    # whose root does not, where there is one), GF(4^2..5), GF(8^2..3),
    # GF(64) over GF(4), and the three-level tower GF(4) < GF(16) < GF(256)
    out = [GF2]
    for degree in range(2, 12):
        kept = {True: 0, False: 0}
        for poly in _irreducibles_over_gf2(degree):
            lvl = GF2.extend(poly, "d")
            generates = lvl._exp[1] == 2
            if kept[generates] < (2 if generates else 1):
                kept[generates] += 1
                out.append(lvl)
            if kept == {True: 2, False: 1}:
                break
    for base, degrees in ((gf4, range(2, 6)), (gf8, range(2, 4))):
        for degree in degrees:
            for seed in range(2):
                poly = fields.find_irreducible(base, degree, random.Random(seed))
                out.append(base.extend(poly, "b"))
    out.append(gf4.extend("b^3+b+1"))
    gf16 = gf4.extend(fields.find_irreducible(gf4, 2, random.Random(3)), "b")
    out.append(gf16.extend(fields.find_irreducible(gf16, 2, random.Random(3)), "c"))
    return out


def test_tables_equal_power_test_oracle(table_levels):
    # the walk keeps the generator the power test picks, so the tables
    # and the canonical nonresidue read off them are the same
    assert any(lvl.parent is GF2 and lvl._exp[1] != 2 for lvl in table_levels)
    assert any(lvl.order == 1 << 11 for lvl in table_levels)
    assert any(len(lvl.ancestors()) == 4 for lvl in table_levels)
    for lvl in table_levels:
        exp, log = tables_by_power_test(lvl)
        assert lvl._exp == exp and lvl._log == log, lvl
        assert lvl.nonresidue() == next(v for v in exp if lvl.trace(v) == 1), lvl


def _frobenius_by_squaring(E, F, x, power):
    for _ in range((power % E.degree_over(F)) * F.bits):
        x = E.square(x)
    return x


def test_relative_frobenius_fixes_the_subfield(gf4, gf64_tower, monkeypatch):
    squares = []
    square = fields.Level.square

    def counting(self, x):
        squares.append(x)
        return square(self, x)

    monkeypatch.setattr(fields.Level, "square", counting)
    for E, F in ((gf64_tower, gf4), (gf64_tower, GF2), (gf4, GF2)):
        for x in range(F.order):
            for power in range(-1, E.degree_over(F) + 2):
                assert E.relative_frobenius(F, x, power) == x
    assert squares == []


def test_relative_frobenius_matches_repeated_squaring(gf4, gf64_tower):
    gf2_6 = GF2.extend("d^6+d+1")
    for E, F in ((gf64_tower, gf4), (gf64_tower, GF2), (gf4, GF2), (gf2_6, GF2)):
        for x in E.elements():
            for power in range(-1, E.degree_over(F) + 2):
                assert E.relative_frobenius(F, x, power) == _frobenius_by_squaring(E, F, x, power)
    big = GF2.extend("d^13+d^4+d^3+d+1")
    rng = random.Random(7)
    for x in [0, 1] + [rng.randrange(big.order) for _ in range(40)]:
        for power in (1, 2, 12):
            assert big.relative_frobenius(GF2, x, power) == _frobenius_by_squaring(
                big, GF2, x, power
            )


def test_relative_frobenius_refuses_a_level_outside_the_tower(gf8, gf64_tower):
    # a level that is no subfield raises, even for the elements 0 and 1
    # that every level holds
    other_gf4 = GF2.extend("z^2+z+1")
    for sub in (gf8, other_gf4):
        for x in (0, 1, 5):
            with pytest.raises(fields.FieldError):
                gf64_tower.relative_frobenius(sub, x)


@pytest.fixture(scope="module")
def table_free_levels(large_levels, gf4):
    # GF(2^13), GF(4^8), GF(8^5) and a three-level tower GF(64^3)
    gf64 = gf4.extend("b^3+b+1")
    top = gf64.extend(fields.find_irreducible(gf64, 3, random.Random(5)), "c")
    return large_levels + [top]


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_euclid_inverse_equals_power(table_free_levels, data):
    lvl = data.draw(st.sampled_from(table_free_levels))
    assert lvl._log is None
    x = data.draw(st.integers(1, lvl.order - 1))
    inv = lvl.inv(x)
    assert inv == lvl._pow_raw(x, lvl.order - 2)
    assert lvl.mul(x, inv) == 1


def _flat(lvl):
    return lvl._flat or lvl._flat_form()


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_flat_form_is_a_change_of_basis(table_levels, table_free_levels, data):
    # every tower shape: m is irreducible of degree bits, and the two
    # maps are inverse to each other
    lvl = data.draw(st.sampled_from(table_levels + table_free_levels))
    m, to, fro = _flat(lvl)
    assert fields.gf2x_deg(m) == lvl.bits
    assert poly_is_irreducible(GF2, fields.gf2x_to_poly(m))
    x, v = (data.draw(st.integers(0, lvl.order - 1)) for _ in range(2))
    assert to(fro(x)) == x and fro(to(v)) == v
    if lvl.parent is GF2:  # theta is gen: m is the defining polynomial
        assert m == fields.gf2x_from_poly(lvl.poly) and to(x) == x


def _flat_images(lvl):
    m, to, fro = _flat(lvl)
    bits = [1 << i for i in range(lvl.bits)]
    return m, [to(b) for b in bits], [fro(b) for b in bits]


def test_flat_form_depends_on_the_level_alone():
    # the same tower built twice gets the same m and maps, and building
    # them draws nothing from the global rng
    def towers():
        gf4, gf8 = GF2.extend("a^2+a+1"), GF2.extend("a^3+a+1")
        gf16 = gf4.extend(fields.find_irreducible(gf4, 2, random.Random(3)), "b")
        gf64 = gf4.extend("b^3+b+1")
        return [
            gf4.extend(fields.find_irreducible(gf4, 8, random.Random(2)), "b"),
            gf8.extend("b^5+b^2+1"),
            gf16.extend(fields.find_irreducible(gf16, 2, random.Random(3)), "c"),
            gf64.extend(fields.find_irreducible(gf64, 3, random.Random(5)), "c"),
        ]

    state = random.getstate()
    first, second = ([_flat_images(lvl) for lvl in towers()] for _ in range(2))
    assert first == second
    assert random.getstate() == state


def test_levels_with_a_flat_form_stay_picklable(table_levels, table_free_levels):
    # the change of basis is plain data, so a level pickles after its
    # first multiply and the copy multiplies the same
    for lvl in (*table_levels, *table_free_levels):
        x, y = lvl.gen, lvl.add(lvl.gen, lvl.one)
        want = lvl._mul_raw(x, y)
        copy = pickle.loads(pickle.dumps(lvl))
        assert copy._flat is not None
        assert copy._mul_raw(x, y) == want == mul_by_coefficients(lvl, x, y)


def test_artin_schreier_extension_is_built_once_per_b():
    # the quaternion oracle's extension, kept per (level, b)
    lvl = GF2.extend("a^5+a^2+1")
    b = lvl.nonresidue()
    ext = artin_schreier_extension(lvl, b)
    assert artin_schreier_extension(lvl, b) is ext
    assert artin_schreier_extension(GF2.extend("a^5+a^2+1"), b) is ext  # levels compare by signature
    assert ext == lvl.extend((b, 1, 1), fields.fresh_gen_name(lvl))
    assert ext.add(ext.square(ext.gen), ext.gen) == b


def test_cached_artin_schreier_equals_fresh_solve(large_levels):
    gf2_13, gf4_8 = large_levels[:2]
    gf2_7 = GF2.extend("a^7+a+1")
    for c in gf2_7.elements():
        assert gf2_7.artin_schreier_solve(c) == artin_schreier_by_fresh_matrix(gf2_7, c)
    rng = random.Random(9)
    for lvl in (gf4_8, gf2_13):
        for _ in range(500):
            c = lvl.random_element(rng)
            assert lvl.artin_schreier_solve(c) == artin_schreier_by_fresh_matrix(lvl, c)


def test_table_free_sqrt_equals_power(large_levels):
    # the root is a linear map of the roots of the basis bits; x^(order/2)
    # by square and multiply is the reference
    gf2_13, gf4_8 = large_levels[:2]
    rng = random.Random(12)
    for lvl in (gf2_13, gf4_8):
        assert lvl.sqrt(0) == 0
        for _ in range(500):
            x = lvl.random_element(rng)
            assert lvl.sqrt(x) == lvl.pow(x, lvl.order // 2)


def test_artin_schreier_solves_take_no_elimination(gf4, monkeypatch):
    # the level keeps the echelon form of its squaring matrix: bits
    # inserts on the first call, none for the solves after it.  The
    # first multiply builds the level's flat form with an elimination of
    # its own, so one multiply warms the level before counting.
    lvl = gf4.extend(fields.find_irreducible(gf4, 8, random.Random(2)), "b")
    lvl.mul(lvl.gen, lvl.gen)
    calls = []
    insert = linalg.PackedEchelon.insert
    monkeypatch.setattr(
        linalg.PackedEchelon, "insert", lambda self, row: calls.append(row) or insert(self, row)
    )
    rng = random.Random(11)
    for _ in range(50):
        lvl.artin_schreier_solve(lvl.random_element(rng))
    assert 0 < len(calls) <= lvl.bits


def test_artin_schreier_matrix_is_built_once(gf4, monkeypatch):
    # one squaring per basis vector for the matrix, then one per solve
    # for the answer's check
    lvl = gf4.extend(fields.find_irreducible(gf4, 8, random.Random(2)), "b")
    calls = []
    square = lvl.square
    monkeypatch.setattr(lvl, "square", lambda x: calls.append(x) or square(x))
    rng = random.Random(10)
    for _ in range(100):
        lvl.artin_schreier_solve(lvl.random_element(rng))
    assert len(calls) <= lvl.bits + 100


@pytest.fixture(scope="module")
def axiom_levels(large_levels, gf4):
    # GF(2); table-backed GF(4) and GF(2^11); table-free with the int
    # multiply, GF(2^13); table-free over a table-backed parent, GF(4^8)
    # and GF(8^5)
    return [GF2, gf4, GF2.extend("a^11+a^2+1")] + large_levels


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_field_axioms_on_every_level_shape(axiom_levels, data):
    lvl = data.draw(st.sampled_from(axiom_levels))
    x, y, z = (data.draw(st.integers(0, lvl.order - 1)) for _ in range(3))
    mul, add = lvl.mul, lvl.add
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(x, lvl.one) == x
    if x:
        assert mul(x, lvl.inv(x)) == lvl.one
    assert lvl.sqrt(lvl.square(x)) == x
    assert lvl.trace(add(x, y)) == lvl.trace(x) ^ lvl.trace(y)


def test_parsed_power_degree_is_bounded(gf4):
    with pytest.raises(fields.FieldError, match="above the limit"):
        fields.parse_poly(gf4, "x^999999999")
    with pytest.raises(fields.FieldError, match="above the limit"):
        fields.parse_poly(gf4, "(x^2+a)^600")
    # a constant base costs a few squarings whatever the exponent
    assert fields.parse_poly(gf4, "x^3+a^999999999") == ("x", (gf4.pow(gf4.gen, 999999999), 0, 0, 1))
    assert fields.parse_poly(GF2, "(x+1)^1024")[1] == (1,) + (0,) * 1023 + (1,)


def test_parsed_product_degree_is_bounded():
    # a chain of products grows the degree without any large exponent
    with pytest.raises(fields.FieldError, match="product of degree 1025 above the limit"):
        fields.parse_poly(GF2, "*".join(["x^25"] * 41))
    assert fields.parse_poly(GF2, "x^512*x^512")[1] == (0,) * 1024 + (1,)


def test_poly_nth_root_examples():
    assert poly_nth_root(GF2, (1, 0, 1), 2) == (1, 1)
    assert poly_nth_root(GF2, poly_pow(GF2, (1, 1), 9), 9) == (1, 1)
    # charpoly of the regular action of a rank-one idempotent in Mat(2)
    assert poly_nth_root(GF2, (0, 0, 1, 0, 1), 2) == (0, 1, 1)


def test_poly_nth_root_random(gf4):
    rng = random.Random(7)
    count = 0
    for _ in range(200):
        lvl = rng.choice([GF2, gf4])
        n = rng.choice([2, 3, 4, 5, 9])
        deg = rng.randrange(1, 4)
        q = tuple(lvl.random_element(rng) for _ in range(deg)) + (1,)
        p = poly_pow(lvl, q, n)
        assert poly_nth_root(lvl, p, n) == q
        count += 1
    assert count == 200


def test_poly_nth_root_rejects():
    with pytest.raises(NotAPower):
        poly_nth_root(GF2, (1, 1, 1), 2)  # odd-degree coefficient
    with pytest.raises(NotAPower):
        poly_nth_root(GF2, (1, 0, 0, 1, 0, 0, 1), 3)  # not an exact cube


def test_monic_divisors():
    p = poly_mul(GF2, (1, 1), poly_mul(GF2, (1, 1), (0, 1)))  # x (x+1)^2
    divs = fields.monic_divisors(GF2, p)
    assert (1,) in divs and p in divs
    assert len(divs) == 6


def test_show_parse_roundtrip(gf4, gf64_tower):
    rng = random.Random(1)
    for lvl in (gf4, gf64_tower):
        for _ in range(30):
            x = lvl.random_element(rng)
            assert lvl.parse(lvl.show(x)) == x


def test_poly_to_str(gf4):
    a = gf4.gen
    assert poly_to_str(gf4, (a, 1, 0, 1), "x") == "x^3+x+a"
    assert poly_to_str(GF2, (), "x") == "0"


def test_parse_rejects_junk(gf4):
    with pytest.raises(fields.FieldError):
        gf4.parse("a-1")
    with pytest.raises(fields.UnknownGenerator):
        gf4.parse("q+1")
    with pytest.raises(fields.FieldError):
        fields.parse_poly(gf4, "x^2 + y")  # two unknown names


def test_coords_over_equal_but_distinct_levels():
    # a level equal by signature but built separately is the same base
    F1 = GF2.extend("a^2+a+1")
    F2 = GF2.extend("a^2+a+1")
    assert F1 == F2 and F1 is not F2
    E = F1.extend("b^3+b+1")
    for x in range(E.order):
        assert E.coords_over(F2, x) == E.coords_over(F1, x) == E.coeffs(x)
        assert E.coords_over(GF2, x) == tuple((x >> k) & 1 for k in range(6))
        assert E.coords_over(E, x) == (x,)
    # a level of the same order that E is not built on is no sublevel
    other = GF2.extend("b^3+b+1")
    for call in (
        lambda: other.coords_over(F1, 5),
        lambda: from_coords_over(other, F1, (1, 1, 0)),
        lambda: other.basis_over(F1),
    ):
        with pytest.raises(fields.FieldError, match="not an extension of the given level"):
            call()
