import itertools
import random

import pytest

from t2forms import fields
from t2forms.fields import (
    GF2,
    NotAPower,
    RejectsReducible,
    poly_eval,
    poly_is_irreducible,
    poly_mul,
    poly_nth_root,
    poly_pow,
    poly_roots,
    poly_to_str,
)


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
    assert gf64_tower.from_coords_over(GF2, coords) == x


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


def test_find_irreducible_big(gf8):
    rng = random.Random(0)
    p = fields.find_irreducible(gf8, 5, rng)
    assert poly_is_irreducible(gf8, p)
    E = gf8.extend(p, "z")
    assert E.order == 8**5
    x = 123456 % E.order
    assert E.mul(x, E.inv(x or 1)) in (0, 1)


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
