import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from t2forms import fields, rational, theorems
from t2forms.fields import GF2, poly_add, poly_mul

from support import TUPLE_GF2, TupleLevel


def _clmul(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _sq_int(a):
    out = 0
    i = 0
    while a:
        if a & 1:
            out |= 1 << (2 * i)
        a >>= 1
        i += 1
    return out


def _poly_to_int(p):
    out = 0
    for i, c in enumerate(p):
        if c:
            out |= 1 << i
    return out


def brute_wp_gf2t(c, bound=6):
    """Exhaustive membership in {u**2 + u}: try every u = s/r with both
    degrees at most ``bound`` (GF(2)[t] polynomials as bit-packed ints,
    comparison by cross multiplication, no reduction needed)."""
    num = _poly_to_int(c.num)
    den = _poly_to_int(c.den)
    limit = 1 << (bound + 1)
    sq_times_den = [_clmul(_sq_int(s), den) for s in range(limit)]
    for r in range(1, limit):
        rhs = _clmul(num, _sq_int(r))
        rden = _clmul(r, den)
        for s in range(limit):
            if sq_times_den[s] ^ _clmul(s, rden) == rhs:
                return True
    return False


def test_arithmetic_roundtrip(gf4):
    for lvl in (GF2, gf4):
        ff = rational.FunctionField(lvl)
        rng = random.Random(40)
        for _ in range(40):
            x = ff.random_element(rng, 3)
            y = ff.random_element(rng, 3)
            assert ff.add(x, y) == ff.add(y, x)
            assert ff.mul(x, y) == ff.mul(y, x)
            if not ff.is_zero(y):
                assert ff.mul(ff.div(x, y), y) == x
        t = ff.t
        assert ff.show(ff.add(ff.mul(t, t), ff.one)) == "t^2+1"
    with pytest.raises(ZeroDivisionError):
        rational.FunctionField(GF2).inv(rational.FunctionField(GF2).zero)


_FUNCTION_FIELDS = (rational.FunctionField(GF2), rational.FunctionField(GF2.extend("a^2+a+1")))
# GF(2)(t) and GF(4)(t) on coefficient tuples: the oracles of the packed
# rings their levels give
_TUPLE_GF2T = rational.FunctionField(TUPLE_GF2)
_TUPLE_GF4T = rational.FunctionField(TupleLevel(_FUNCTION_FIELDS[1].coeff))


def _tuple_route(ff):
    return _TUPLE_GF2T if ff.coeff is GF2 else _TUPLE_GF4T


def _draw_rat(data, ff):
    k = ff.coeff
    coeff = st.integers(0, k.order - 1)
    num = data.draw(st.lists(coeff, max_size=5))
    den = data.draw(st.lists(coeff, max_size=3)) + [data.draw(st.integers(1, k.order - 1))]
    common = data.draw(st.lists(coeff, max_size=2)) + [1]
    if data.draw(st.booleans()):
        den = [1]  # a polynomial
    # a shared factor that make() must cancel
    return ff.make(poly_mul(k, num, common), poly_mul(k, den, common))


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_henrici_add_mul_equal_full_gcd(data):
    ff = data.draw(st.sampled_from(_FUNCTION_FIELDS))
    # the full-gcd side runs on coefficient tuples, so it does not share
    # the packed route with the side under test
    ref = _tuple_route(ff)
    k = ref.coeff
    x, y = _draw_rat(data, ff), _draw_rat(data, ff)
    if data.draw(st.booleans()):
        # a common denominator factor exercises the gcd branch of add
        g = (data.draw(st.integers(0, k.order - 1)), k.one)
        x, y = (ff.make(z.num, poly_mul(k, z.den, g)) for z in (x, y))
    cross = poly_add(k, poly_mul(k, x.num, y.den), poly_mul(k, y.num, x.den))
    assert ff.add(x, y) == ref.make(cross, poly_mul(k, x.den, y.den))
    assert ff.mul(x, y) == ref.make(poly_mul(k, x.num, y.num), poly_mul(k, x.den, y.den))
    assert ff.square(x) == ref.make(poly_mul(k, x.num, x.num), poly_mul(k, x.den, x.den))
    assert ff.add(x, x) == ff.zero
    if x.num:
        assert ff.inv(x) == ref.make(x.den, x.num)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_gf2t_int_route_equals_tuple_route(data):
    ff = _FUNCTION_FIELDS[0]
    polys = st.lists(st.integers(0, 1), max_size=8)
    num, den = data.draw(polys), data.draw(polys) + [1]
    # make on raw, untrimmed input, then the operations on its results
    x = ff.make(num, den)
    assert x == _TUPLE_GF2T.make(num, den)
    assert ff.make(num) == _TUPLE_GF2T.make(num)
    y = _draw_rat(data, ff)
    # each field operates on fractions it made itself
    tx, ty = (_TUPLE_GF2T.make(z.num, z.den) for z in (x, y))
    for op in ("add", "mul"):
        assert getattr(ff, op)(x, y) == getattr(_TUPLE_GF2T, op)(tx, ty)
    assert ff.square(x) == _TUPLE_GF2T.square(tx)
    if x.num:
        assert ff.inv(x) == _TUPLE_GF2T.inv(tx)


def test_rat_contract_across_routes():
    ff = _FUNCTION_FIELDS[0]
    cases = [((1, 0, 1, 0), (0, 1, 1)), ((0, 0, 1), None), ((), None), ((1,), (1, 1, 0))]
    gf4_cases = [((2, 3, 0), (1, 2)), ((3,), (0, 2, 0))]
    for field, field_cases in zip(_FUNCTION_FIELDS, (cases, cases + gf4_cases)):
        for num, den in field_cases:
            x, y = field.make(num, den), _tuple_route(field).make(num, den)
            assert x == y and y == x
            assert hash(x) == hash(y) == hash((x.num, x.den))
            assert x == pickle.loads(pickle.dumps(x))
            for z in (x, y):
                for p in (z.num, z.den):
                    assert type(p) is tuple and p == fields.poly_trim(p)
    assert ff.make((0, 1), (1,)) != _TUPLE_GF2T.make((1, 1), (1,))
    # false exactly at zero, on either ring form
    for z in (ff, _TUPLE_GF2T, _FUNCTION_FIELDS[1]):
        assert not z.zero and not z.make((0, 0), (1, 1))
        assert z.one and z.t and z.make((0, 1), (1, 1))
        assert bool(z.add(z.t, z.t)) is False and bool(z.add(z.t, z.one)) is True
    x = ff.t
    for name in ("num", "den", "_num", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, (1,))
    with pytest.raises(AttributeError):
        del x.num
    assert x == ff.make((0, 1)) == pickle.loads(pickle.dumps(x))


def test_gf2t_operations_convert_nothing(monkeypatch):
    # over GF(2)(t) and GF(4)(t): a field shares its level's ring, whose
    # read and write are the only conversions
    calls = []
    for ff in _FUNCTION_FIELDS:
        R = ff.coeff.poly_ring()
        assert ff._ring is R
        for name in ("read", "write"):
            orig = getattr(R, name)
            monkeypatch.setattr(
                R, name, lambda p, _orig=orig, _name=name: calls.append(_name) or _orig(p)
            )
        rng = random.Random(43)
        xs = [ff.random_element(rng, 4) for _ in range(20)] + [ff.make((1, 1)), ff.t, ff.one]
        assert calls
        calls.clear()
        for x, y in zip(xs, xs[1:] + xs[:1]):
            ff.add(x, y)
            ff.mul(x, y)
            ff.square(x)
            if not ff.is_zero(x):
                ff.inv(x)
        assert calls == []


def test_cubic_pipeline_int_route_equals_tuple_route():
    # this seed draws every verdict and every splitting outcome
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        # drawn as the field-tower benchmark draws its cubics over GF(2)(t)
        low = [[rng.randrange(2) for _ in range(4)] for _ in range(3)]
        results = []
        for ff in (_FUNCTION_FIELDS[0], _TUPLE_GF2T):
            coeffs = tuple(ff.make(tuple(p)) for p in low) + (ff.one,)
            rep = theorems.galois_obstruction(ff, coeffs)
            split = None if rep["reducible"] else theorems.cubic_second_root_oracle(ff, coeffs[:3])
            results.append((rep, split))
        assert results[0] == results[1]
        rep, split = results[0]
        seen.add((rep["verdict"], split))
    assert {v for v, _ in seen} == {"documented-discrepancy", "not Galois", "inconclusive"}
    assert {s for _, s in seen} == {None, True, False}


def test_lowest_terms_invariant():
    ff = rational.FunctionField(GF2)
    x = ff.make((0, 1, 1), (0, 1))  # (t^2+t)/t = t+1
    assert x == ff.make((1, 1))
    assert x.den == (1,)


def test_wp_member_examples():
    ff = rational.FunctionField(GF2)
    t = ff.t
    ok, u = rational.wp_member(ff, ff.add(ff.square(t), t), witness=True)
    assert ok and u in (t, ff.add(t, ff.one))
    ok, u = rational.wp_member(ff, ff.zero, witness=True)
    assert ok and ff.is_zero(ff.add(ff.square(u), u))
    assert not rational.wp_member(ff, t)


def test_wp_member_roundtrip(gf4):
    for lvl in (GF2, gf4):
        ff = rational.FunctionField(lvl)
        rng = random.Random(41)
        for _ in range(40):
            u = ff.random_element(rng, 2)
            c = ff.add(ff.square(u), u)
            ok, w = rational.wp_member(ff, c, witness=True)
            assert ok
            assert ff.add(ff.square(w), w) == c


def _wp_values(ff, bound):
    """Every u**2 + u with u = s/r, deg s <= bound and r monic of degree
    at most ``bound``."""
    k = ff.coeff
    polys = [fields.poly_trim(p) for p in itertools.product(range(k.order), repeat=bound + 1)]
    values = set()
    for r in polys:
        if r and r[-1] == k.one:
            for s in polys:
                u = ff.make(s, r)
                values.add(ff.add(ff.square(u), u))
    return values


def test_wp_member_against_bruteforce(gf4):
    ff = rational.FunctionField(GF2)
    rng = random.Random(42)
    agree = 0
    for _ in range(50):
        c = ff.random_element(rng, 4)
        assert rational.wp_member(ff, c) == brute_wp_gf2t(c)
        agree += 1
    assert agree == 50
    # GF(4)(t), two bits per coefficient.  c = num/r^2 with deg num <= 2
    # and deg r <= 1, so a u = s/r in lowest terms with u^2 + u = c has
    # deg r <= 1 and deg s <= 1, and the values below decide membership.
    ff4 = rational.FunctionField(gf4)
    values = _wp_values(ff4, 2)
    seen = set()
    for r in [(1,)] + [(a, 1) for a in range(4)]:
        for num in itertools.product(range(4), repeat=3):
            c = ff4.make(num, fields.poly_mul(gf4, r, r))
            ok, u = rational.wp_member(ff4, c, witness=True)
            assert ok == (c in values)
            if ok:
                assert ff4.add(ff4.square(u), u) == c
            seen.add(ok)
    assert seen == {True, False}


def test_galois_obstruction_rational_consistency():
    ff = rational.FunctionField(GF2)
    t, one, zero = ff.t, ff.one, ff.zero
    # x^3 + x + t: the trace form misses the cyclic-cubic class
    coeffs = (t, one, zero, one)
    rep = theorems.galois_obstruction(ff, coeffs)
    split = theorems.cubic_second_root_oracle(ff, coeffs[:3])
    assert rep["verdict"] == "not Galois"
    assert split is False  # consistent: not Galois means no second root
    # control case: x^3 + q x + q with q = t^2+t+1 is cyclic
    q = ff.make((1, 1, 1))
    coeffs2 = (q, q, zero, one)
    rep2 = theorems.galois_obstruction(ff, coeffs2)
    split2 = theorems.cubic_second_root_oracle(ff, coeffs2[:3])
    assert rep2["verdict"] == "inconclusive"
    assert split2 is True


def test_galois_obstruction_rational_reducible():
    ff = rational.FunctionField(GF2)
    t, one, zero = ff.t, ff.one, ff.zero
    # (x + t)(x^2 + x + 1) = x^3 + x^2(1+t) + x(1+t) + t
    b = ff.add(one, t)
    rep = theorems.galois_obstruction(ff, (t, b, b, one))
    assert rep["verdict"] == "documented-discrepancy"
    assert rep["reducible"] is True


def _cubic(ff, low):
    """The monic cubic x^3 + c2 x^2 + c1 x + c0 over ff from the
    coefficient tuples (c0, c1, c2)."""
    return tuple(ff.make(tuple(p)) for p in low) + (ff.one,)


def _random_poly(rng, k, max_deg):
    return fields.poly_trim(tuple(rng.randrange(k.order) for _ in range(max_deg + 1)))


def _cyclic_family(rng, k, count):
    """``count`` seeded members x^3 + s x^2 + (s+1) x + 1 of the generic
    cyclic cubic, s a nonconstant polynomial over k."""
    out = []
    while len(out) < count:
        s = _random_poly(rng, k, rng.randrange(1, 5))
        if len(s) > 1:
            out.append([(1,), fields.poly_add(k, s, (1,)), s])
    return out


# x^3 + t^3 x^2 + (1+t+t^2+t^3) x + 1 over GF(2)(t): Galois, with a
# second root beyond a degree-6 search in E
SEED11_CUBIC = [(1,), (1, 1, 1, 1), (0, 0, 0, 1)]


def test_cubic_oracle_finds_high_degree_second_root():
    ff = rational.FunctionField(GF2)
    coeffs = _cubic(ff, SEED11_CUBIC)
    assert theorems.galois_obstruction(ff, coeffs)["verdict"] == "inconclusive"
    assert theorems.cubic_second_root_oracle(ff, coeffs[:3]) is True


def test_cyclic_cubic_family_splits():
    rng = random.Random(18)
    for ff in _FUNCTION_FIELDS:
        irreducible = 0
        for low in _cyclic_family(rng, ff.coeff, 40):
            coeffs = _cubic(ff, low)
            rep = theorems.galois_obstruction(ff, coeffs)
            if rep["reducible"]:
                continue
            irreducible += 1
            assert theorems.cubic_second_root_oracle(ff, coeffs[:3]) is True, low
            assert rep["verdict"] == "inconclusive", low
        assert irreducible >= 30


def test_cubic_oracle_agrees_with_obstruction_verdict():
    # the Revoy-form Arf class matches the odd-degree table exactly when
    # the cubic is Galois; the draws mix random cubics with members of
    # the cyclic family
    rng = random.Random(19)
    seen = set()
    for ff in _FUNCTION_FIELDS:
        k = ff.coeff
        draws = [[_random_poly(rng, k, rng.randrange(3)) for _ in range(3)] for _ in range(100)]
        draws += _cyclic_family(rng, k, 20)
        for low in draws:
            coeffs = _cubic(ff, low)
            rep = theorems.galois_obstruction(ff, coeffs)
            if rep["reducible"]:
                continue
            split = theorems.cubic_second_root_oracle(ff, coeffs[:3])
            assert (rep["verdict"] == "inconclusive") == split, low
            seen.add(split)
    assert seen == {True, False}


def _place_levels():
    """GF(2^m) for m = 1, ..., 6."""
    rng = random.Random(0)
    return [GF2] + [GF2.extend(fields.find_irreducible(GF2, m, rng), "z") for m in range(2, 7)]


def _galois_by_places(levels, low):
    """Whether no unramified reduction t = t0 of the cubic, t0 in one of
    ``levels``, factors as a linear times an irreducible quadratic.

    The reduction at t0 has the cycle type of a power of Frobenius at
    that place.  No element of a cyclic group of order 3 has a fixed
    point and a 2-cycle, and by Chebotarev half the places of an S_3
    cubic do.  ab + c is the product of the pairwise sums of the roots,
    so t0 is unramified where it does not vanish."""
    for L in levels:
        for t0 in range(L.order):
            c, b, a = (fields.poly_eval(L, p, t0) for p in low)
            if L.add(L.mul(a, b), c) == 0:
                continue
            degs = sorted(fields.poly_deg(g) for g, _ in fields.poly_factorize(L, (c, b, a, 1)))
            if degs == [1, 2]:
                return False
    return True


def test_cubic_oracle_against_reductions_at_places():
    # shares no code with wp_member or the trace form
    ff = _FUNCTION_FIELDS[0]
    levels = _place_levels()
    rng = random.Random(20)
    draws = [[_random_poly(rng, GF2, rng.randrange(3)) for _ in range(3)] for _ in range(120)]
    draws += _cyclic_family(rng, GF2, 20) + [SEED11_CUBIC]
    counts = {True: 0, False: 0}
    for low in draws:
        coeffs = _cubic(ff, low)
        if theorems.galois_obstruction(ff, coeffs)["reducible"]:
            continue
        split = theorems.cubic_second_root_oracle(ff, coeffs[:3])
        assert split == _galois_by_places(levels, low), low
        counts[split] += 1
    assert min(counts.values()) >= 10
