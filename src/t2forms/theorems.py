"""Predicted classification values and the verification harness.

Each supported claim id names one classification statement about second
trace forms (the matrix-algebra table, crossed products, tensor
products, their Arf and Clifford invariants, and the Galois obstruction
test).  ``CLAIMS`` holds one ``Claim`` record per id: a generator of its
report rows, the grid keys it reads with their defaults, and its degree
rule or fixed degree.  ``run_verification`` resolves and checks every
grid before any claim runs, then times each row and wraps it in a
``VerificationReport``; a documented-discrepancy verdict marks audits
whose inputs are themselves inconsistent (the reducible-cubic audit) and
does not fail a run.

Over k(t), ``cubic_second_root_oracle`` decides exactly whether a cubic
extension is Galois, by Berlekamp's discriminant and one
``rational.wp_member`` call, without the trace form, so the verdicts of
``galois_obstruction`` over k(t) are checked against it.
"""

from __future__ import annotations

import random
import time

from . import csa, fields, quadform, rational
from .quadform import BrauerClass, WittClass
from .records import Frozen, Record

# The claim table ``CLAIMS`` sits at the end of the module, after the row
# generators it names; ``CLAIM_IDS`` lists its ids in report order.

# the entries n1, n2 of every thm2/thm4 pair admit n >= PAIR_LEAST
PAIR_LEAST = 2


def built_degree(claim, n):
    """The degree of the algebra a claim builds at n: cor4 takes the
    tensor square of M_n, every other claim an algebra of degree n."""
    return n * n if claim == "cor4" else n


def admits_degree(claim, n, cap=None):
    """Whether the claim's rule admits n; a cap bounds the degree it
    builds from above."""
    least, parity = CLAIMS[claim].rule
    if cap is not None and built_degree(claim, n) > cap:
        return False
    return n >= least and (parity is None or n % 2 == parity)


def degree_rule_text(claim):
    least, parity = CLAIMS[claim].rule
    return {None: "", 0: "even ", 1: "odd "}[parity] + f"n >= {least}"


def require_degree(claim, n):
    if not admits_degree(claim, n):
        raise ValueError(f"n={n}: {claim} admits {degree_rule_text(claim)}")


def _cap_error(subject, degree, cap):
    return ValueError(f"{subject} builds degree {degree}, which exceeds --max-degree {cap}")


def claim_degrees(claim, ns, cap=None):
    """The degrees of ``ns`` each claim that reads n= runs on: all of
    them for a single claim, whose rule and cap must admit each, and
    under ``all`` the ones each claim's rule and cap admit.  A degree
    that no claim admits raises ValueError naming the rules, or the cap
    when only the cap refuses it."""
    ids = CLAIM_IDS if claim == "all" else (claim,)
    readers = [c for c in ids if CLAIMS[c].rule is not None]
    for n in ns:
        if readers and not any(admits_degree(c, n, cap) for c in readers):
            over = [c for c in readers if admits_degree(c, n)]
            if over:
                raise _cap_error(f"n={n}: {over[0]}", built_degree(over[0], n), cap)
            rules = "; ".join(f"{c} admits {degree_rule_text(c)}" for c in readers)
            lead = "no claim admits it; " if claim == "all" else ""
            raise ValueError(f"n={n}: {lead}{rules}")
    return {c: [n for n in ns if admits_degree(c, n, cap)] for c in readers}


def _check_grid(claim, grid, cap):
    """Refuse a pair or field name the claim does not admit, and a grid
    whose largest algebra exceeds the cap."""
    for n1, n2 in grid.get("pairs", ()):
        if min(n1, n2) < PAIR_LEAST:
            raise ValueError(f"pairs={n1}x{n2}: {claim} admits n1, n2 >= {PAIR_LEAST}")
    for name in grid.get("fields", ()):
        if name not in _FIELD_BUILDERS:
            known = ", ".join(_FIELD_BUILDERS)
            raise ValueError(f"fields={name}: unknown field shorthand {name!r}; known: {known}")
    built = [built_degree(claim, n) for n in grid.get("n", ())]
    built += [n1 * n2 for n1, n2 in grid.get("pairs", ())]
    top = max(built, default=CLAIMS[claim].degree or 0)
    if cap is not None and top > cap:
        raise _cap_error(claim, top, cap)


class Prediction(Record):
    """What a theorem predicts for one parameter point."""

    __slots__ = ("claim", "params", "witt", "arf", "clifford", "notes")

    def __init__(self, claim, params, witt=None, arf=None, clifford=None, notes=()):
        self.claim = claim
        self.params = params
        self.witt = witt
        self.arf = arf
        self.clifford = clifford
        self.notes = notes


class VerificationReport(Record):
    """One report of ``verify``; ``verdict`` is pass, fail or
    documented-discrepancy."""

    __slots__ = ("claim", "params", "predicted", "computed", "verdict", "ms")

    def __init__(self, claim, params, predicted, computed, verdict, ms):
        self.claim = claim
        self.params = params
        self.predicted = predicted
        self.computed = computed
        self.verdict = verdict
        self.ms = ms

    def to_json(self, include_ms=False):
        out = {
            "claim": self.claim,
            "params": self.params,
            "predicted": self.predicted,
            "computed": self.computed,
            "verdict": self.verdict,
        }
        if include_ms:
            out["ms"] = round(self.ms, 3)
        return out


def witt_to_dict(w):
    return {
        "dim": w.dim,
        "arf": w.field.show(w.arf),
        "arf_bit": w.arf_bit,
        "radical_dim": w.radical_dim,
    }


def same_witt_class(w1, w2):
    """Witt equivalence: equal Arf class and radical, dimension ignored."""
    return (w1.field, w1.arf, w1.radical_dim) == (w2.field, w2.arf, w2.radical_dim)


# -- Revoy trace form ------------------------------------------------------


def revoy_trace_form(field, fpoly):
    """Second trace form of F[x]/(f): the second characteristic
    polynomial coefficient of multiplication maps, on the whole algebra
    for even degree and on the trace kernel for odd degree.  ``f`` need
    not be irreducible (the quotient may be etale)."""
    alg = csa.commutative_quotient(field, fpoly)
    return csa.t2_form_of_degree(alg, alg.dim)


def revoy_trace_form_of_extension(E, F):
    """Same form for a tower extension E/F, on E's product basis over F."""
    alg = csa.extension_algebra(E, F)
    return csa.t2_form_of_degree(alg, alg.dim)


# -- predictions -----------------------------------------------------------


def _one_class(field):
    return field.wp_class_rep(field.one)


def _class_notes(field):
    if field.wp_member(field.one):
        return ("classes of [1,1] and the hyperbolic plane coincide over this field",)
    return ()


def predicted_matrix_class(field, n):
    """The mod-8 table for matrix algebras: hyperbolic class for
    n = 0,1,2,7 and the [1,1] class for n = 3,4,5,6 (mod 8)."""
    require_degree("prop1", n)
    rep = _one_class(field) if n % 8 in (3, 4, 5, 6) else field.zero
    dim = n * n if n % 2 == 0 else n * n - 1
    return Prediction(
        "prop1",
        {"n": n},
        witt=WittClass(field, dim, rep, 0),
        notes=_class_notes(field),
    )


def predicted_crossed_odd(field, n):
    """Odd-degree crossed products: m H for n = 1,7 and
    [1,1] + (m-1) H for n = 3,5 (mod 8), where n = 2m+1."""
    require_degree("cor1", n)
    m = (n - 1) // 2
    rep = _one_class(field) if n % 8 in (3, 5) else field.zero
    return Prediction(
        "cor1",
        {"n": n},
        witt=WittClass(field, 2 * m, rep, 0),
        notes=_class_notes(field),
    )


def predicted_tensor(w1, w2, n1, n2):
    """The six-branch tensor rule, as a full classification record."""
    field = w1.field
    one = _one_class(field)
    total = n1 * n1 * n2 * n2

    def rep_of(x):
        return field.wp_class_rep(x)

    if n1 % 2 == 1 and n2 % 2 == 1:
        rep = rep_of(field.add(w1.arf, w2.arf))
        witt = WittClass(field, total - 1, rep, 0)
    elif n1 % 4 == 2 and n2 % 4 == 2:
        witt = WittClass(field, total, one, 0)
    elif (n1 % 4 == 0 and n2 % 2 == 0) or (n2 % 4 == 0 and n1 % 2 == 0):
        witt = WittClass(field, total, field.zero, 0)
    else:
        # one constituent survives
        if n1 % 4 == 0 or (n1 % 4 == 2 and n2 % 4 == 1):
            wi = w1
        elif n2 % 4 == 0 or (n2 % 4 == 2 and n1 % 4 == 1):
            wi = w2
        elif n1 % 4 == 2 and n2 % 4 == 3:
            wi = w1
            witt = WittClass(field, total, rep_of(field.add(one, w1.arf)), 0)
            return Prediction("thm2", {"n1": n1, "n2": n2}, witt=witt, notes=_class_notes(field))
        else:
            wi = w2
            witt = WittClass(field, total, rep_of(field.add(one, w2.arf)), 0)
            return Prediction("thm2", {"n1": n1, "n2": n2}, witt=witt, notes=_class_notes(field))
        witt = WittClass(field, total, wi.arf, 0)
    return Prediction("thm2", {"n1": n1, "n2": n2}, witt=witt, notes=_class_notes(field))


def predicted_tensor_square(field, n):
    """Tensor squares: the [1,1] class exactly when the degree is 2 mod
    4, the hyperbolic class otherwise."""
    rep = _one_class(field) if n % 4 == 2 else field.zero
    return Prediction("cor4", {"n": n}, arf=rep, notes=_class_notes(field))


def predicted_invariants(field, n):
    """Arf and Clifford of an even-degree algebra's trace form: the
    integer part of n/4 mod 2, and the n/2-th Brauer power of the
    algebra's class (trivial over finite fields, label retained)."""
    require_degree("thm3", n)
    rep = _one_class(field) if (n // 4) % 2 == 1 else field.zero
    cls = BrauerClass.trivial(field, label=f"[A]^{n // 2}")
    return Prediction("thm3", {"n": n}, arf=rep, clifford=cls, notes=_class_notes(field))


def predicted_tensor_invariants(field, n1, n2, arf1=None, arf2=None):
    """Arf of a tensor product's trace form: the sum rule for odd times
    odd, the integer part of n1 n2 / 4 otherwise; Clifford per the
    six-branch table (all classes trivial over finite fields)."""
    if n1 % 2 == 1 and n2 % 2 == 1:
        rep = field.wp_class_rep(field.add(arf1, arf2))
        label = "C1*C2"
    else:
        rep = _one_class(field) if ((n1 * n2) // 4) % 2 == 1 else field.zero
        if n1 % 4 == 2 and n2 % 4 == 2:
            label = "((1,1))"
        elif (n1 % 4 == 0 and n2 % 2 == 0) or (n2 % 4 == 0 and n1 % 2 == 0):
            label = "1"
        elif (n1 % 4 == 2 and n2 % 4 == 3) or (n2 % 4 == 2 and n1 % 4 == 3):
            label = "((1,1))*[Ai]^(ni/2)"
        else:
            label = "[Ai]^(ni/2)"
    return Prediction(
        "thm4",
        {"n1": n1, "n2": n2},
        arf=rep,
        clifford=BrauerClass.trivial(field, label=label),
        notes=_class_notes(field),
    )


# -- Galois obstruction ----------------------------------------------------


def galois_obstruction(field, fpoly):
    """Compare the Arf class of the Revoy form of F[x]/(f) with the
    odd-degree crossed-product table; a mismatch proves the extension is
    not Galois.  Reducible f yields a documented-discrepancy audit."""
    if isinstance(field, rational.FunctionField):
        return _galois_obstruction_rational(field, fpoly)
    fpoly = fields.poly_monic(field, fpoly)
    n = fields.poly_deg(fpoly)
    if not fpoly:
        raise ValueError("obstruction test is for odd degrees >= 3, not the zero polynomial")
    if n % 2 == 0 or n < 3:
        raise ValueError(f"obstruction test is for odd degrees >= 3, not degree {n}")
    report = {"degree": n, "poly": fields.poly_to_str(field, fpoly, "x")}
    witness = fields.poly_factor_witness(field, fpoly)
    q = revoy_trace_form(field, fpoly)
    dec = quadform.block_decompose(q)
    report["form_dim"] = q.dim
    report["form_radical_dim"] = dec.radical_dim
    if dec.radical_dim == 0:
        w = quadform.witt_class(q)
        report["computed_witt"] = witt_to_dict(w)
    if witness is not None:
        g, h = witness
        report["verdict"] = "documented-discrepancy"
        report["reducible"] = True
        report["factorization"] = [
            fields.poly_to_str(field, g, "x"),
            fields.poly_to_str(field, h, "x"),
        ]
        # the roots of f are those of g and of h, with multiplicity
        roots = sorted(
            fields.linear_factor_roots(field, g) + fields.linear_factor_roots(field, h)
        )
        report["roots"] = [field.show(r) for r in roots]
        report["note"] = "quotient is not a field, a fortiori not a Galois field extension"
        return report
    report["reducible"] = False
    report.update(_irreducible_verdict(field, n, quadform.witt_class(q)))
    return report


def _irreducible_verdict(field, n, w):
    """The obstruction verdict for an irreducible f of odd degree n whose
    Revoy form has Witt class w: "not Galois" when its Arf class leaves
    the odd-degree crossed-product table, "inconclusive" otherwise."""
    pred = predicted_crossed_odd(field, n)
    out = {"predicted_witt": witt_to_dict(pred.witt)}
    if w.arf != pred.witt.arf:
        out["verdict"] = "not Galois"
    else:
        out["verdict"] = "inconclusive"
        if field.wp_member(field.one):
            out["degenerate"] = (
                "both classes coincide over this field, the test cannot discriminate"
            )
    return out


def _check_polynomial_coeffs(coeffs):
    if any(c.den != (1,) for c in coeffs):
        raise ValueError("polynomial coefficients over the function field expected")


def _galois_obstruction_rational(ff, coeffs):
    n = len(coeffs) - 1
    if n != 3:
        raise ValueError("rational backend supports cubic extensions")
    report = {"degree": n, "backend": "rational"}
    _check_polynomial_coeffs(coeffs)
    if coeffs[3] != ff.one:
        raise ValueError("monic cubic expected")
    root = _cubic_rational_root(ff, coeffs[:3])
    if root is not None:
        report["verdict"] = "documented-discrepancy"
        report["reducible"] = True
        report["root"] = ff.show(root)
        return report
    report["reducible"] = False
    q = revoy_trace_form(ff, tuple(coeffs))
    s = quadform.arf_sum(q)
    target = ff.one if n % 8 in (3, 5) else ff.zero
    diff = ff.add(s, target)
    report["arf_matches_table"] = rational.wp_member(ff, diff)
    report["verdict"] = "inconclusive" if report["arf_matches_table"] else "not Galois"
    return report


def _cubic_rational_root(ff, low_coeffs):
    """Root of a monic cubic with polynomial coefficients over k(t),
    given its three low coefficients as fractions with denominator 1:
    such roots are polynomial and divide the constant term.  Each
    candidate c d (d a monic divisor, c a scalar) is evaluated on the
    numerators in the field's polynomial ring."""
    if ff.is_zero(low_coeffs[0]):
        return ff.zero
    k, R = ff.coeff, ff._ring
    add, mul = R.add, R.mul
    c0, c1, c2 = (x._num for x in low_coeffs)
    for d in fields.monic_divisors(k, low_coeffs[0].num):
        d = R.read(d)
        for c in range(1, k.order):
            r = R.scale(c, d)
            if not add(mul(add(mul(add(r, c2), r), c1), r), c0):
                return rational.Rat(r, R.one, R)
    return None


def cubic_second_root_oracle(ff, coeffs):
    """Ground-truth oracle: does the irreducible monic cubic
    x^3 + a x^2 + b x + c split in E = k(t)[x]/(f), that is, is E/k(t)
    Galois?  Berlekamp's discriminant decides it exactly (E. Berlekamp,
    J. Algebra 38, 1976): the Galois group lies in A_3 iff
    y^2 + y = (b^3 + abc + a^3 c + c^2) / (ab + c)^2 has a root in k(t).
    Over three roots, ab + c is the product of their pairwise sums, so it
    is nonzero for every separable cubic, and irreducible cubics are
    separable in characteristic two."""
    _check_polynomial_coeffs(coeffs)
    c, b, a = coeffs[:3]
    add, mul = ff.add, ff.mul
    ac = mul(a, c)
    num = add(add(mul(b, mul(b, b)), mul(ac, b)), add(mul(ac, mul(a, a)), mul(c, c)))
    den = add(mul(a, b), c)
    if ff.is_zero(den):
        raise ValueError("inseparable cubic")
    return rational.wp_member(ff, ff.div(num, ff.square(den)))


# -- the Example 1 style audit ----------------------------------------------


def example1_audit():
    """Audit of the reducible-cubic construction: the claimed field
    extension of GF(4) by x**3 + x + a does not exist (the cubic has the
    root a+1), so the trace form is computed on the etale quotient and
    reported next to the claimed binary form [1, a]."""
    F4 = fields.GF2.extend("a^2+a+1")
    a = F4.gen
    fpoly = (a, F4.one, F4.zero, F4.one)
    report = galois_obstruction(F4, fpoly)
    report["claimed_form"] = "[1,a]"
    report["claimed_arf"] = F4.show(F4.wp_class_rep(a))
    report["claimed_arf_bit"] = F4.trace(a)
    return report


# -- verification harness ----------------------------------------------------


_FIELD_BUILDERS = {
    "GF2": lambda: fields.GF2,
    "GF4": lambda: fields.GF2.extend("a^2+a+1"),
    "GF8": lambda: fields.GF2.extend("a^3+a+1"),
}


_standard_fields = {}
# (base, degree, seed) -> the polynomial find_irreducible drew, replaced
# by the level built on it once a claim multiplies in it; one seed at a time
_extensions = {}


def standard_field(name):
    """The level a field shorthand names.  Each level is built once per
    process, so the claims of one run share its tables and caches;
    :func:`clear_standard_fields` drops them."""
    if name not in _standard_fields:
        try:
            build = _FIELD_BUILDERS[name]
        except KeyError:
            raise ValueError(f"unknown field shorthand {name!r}") from None
        _standard_fields[name] = build()
    return _standard_fields[name]


def clear_standard_fields():
    """Forget the levels :func:`standard_field` built, the extensions
    the claims drew from them and the memo of Witt classes and tensor
    forms on GF2, so the next run starts cold (GF2 stays the module
    constant)."""
    _standard_fields.clear()
    _extensions.clear()
    fields.GF2.__dict__.pop("_tensor_cache", None)


_MASK64 = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261


def _mix16(*ints):
    """The low 16 bits of CPython's 64-bit hash of the tuple of ints,
    written out so the seeded extensions do not depend on the
    interpreter: each int hashes to |v| mod 2^61 - 1 with v's sign (-1
    becomes -2), and the tuple mixes those lanes xxHash-style."""
    acc = _XXPRIME_5
    for v in ints:
        lane = abs(v) % ((1 << 61) - 1)
        if v < 0:
            lane = -2 if lane == 1 else -lane
        acc = (acc + (lane & _MASK64) * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = (acc * _XXPRIME_1) & _MASK64
    acc = (acc + (len(ints) ^ _XXPRIME_5 ^ 3527539)) & _MASK64
    if acc == _MASK64:  # a hash of -1 is reported as 1546275796
        acc = 1546275796
    return acc & 0xFFFF


def _ext_poly(base, degree, seed=0):
    """The seeded irreducible polynomial of the given degree over
    ``base``, drawn once per (base, degree, seed) with ``base`` compared
    by signature.  The memo holds the draws of the seed last asked for
    only, so a caller that walks many seeds keeps one seed's at a time."""
    key = (base, degree, seed)
    if key not in _extensions:
        if _extensions and next(iter(_extensions))[2] != seed:
            _extensions.clear()
        rng = random.Random(_mix16(seed, base.bits, degree))
        _extensions[key] = fields.find_irreducible(base, degree, rng)
    got = _extensions[key]
    return got.poly if isinstance(got, fields.Level) else got


def _ext_of_degree(base, degree, seed=0):
    """The level on :func:`_ext_poly`'s polynomial, built the first time
    it is asked for and memoised in its place."""
    poly = _ext_poly(base, degree, seed)
    key = (base, degree, seed)
    if not isinstance(_extensions[key], fields.Level):
        # find_irreducible has proved poly irreducible
        _extensions[key] = base.extend(poly, fields.fresh_gen_name(base), _irreducible=True)
    return _extensions[key]


def _tensor_form_cache(field):
    if not hasattr(field, "_tensor_cache"):
        field._tensor_cache = {}
    return field._tensor_cache


def tensor_trace_form(field, n1, n2):
    """Cached second trace form of M_n1 tensor M_n2."""
    cache = _tensor_form_cache(field)
    key = (n1, n2)
    if key not in cache:
        A = csa.tensor_product(csa.matrix_algebra(field, n1), csa.matrix_algebra(field, n2))
        cache[key] = csa.second_trace_form(A)
    return cache[key]


def matrix_trace_witt(field, n):
    """Cached Witt class of the second trace form of M_n.  The memo keeps
    the form's Clifford invariant beside it, for thm3, and not the form."""
    cache = _tensor_form_cache(field)
    key = ("mat", n)
    if key not in cache:
        T = csa.second_trace_form(csa.matrix_algebra(field, n))
        cache[key] = quadform.witt_class(T), quadform.clifford_invariant(T)
    return cache[key][0]


def crossed_trace_witt(E, base, style, A=None):
    """Cached Witt class of the second trace form of the crossed product
    of E/base with the ``trivial`` or the ``cyclic`` cocycle (wrap-around
    value base.gen), held on E; ``A``, when given, is that algebra."""
    cache = _tensor_form_cache(E)
    key = ("crossed", base, style)
    if key not in cache:
        if A is None:
            cocycle = "trivial" if style == "trivial" else csa.cyclic_cocycle(E, base, base.gen)
            A = csa.crossed_product(E, base, cocycle)
        cache[key] = quadform.witt_class(csa.second_trace_form(A))
    return cache[key]


def _thm3_invariants(field, n):
    """(label, Arf, Clifford) of the second trace form of each thm3
    algebra; Mat(n)'s are read off the :func:`matrix_trace_witt` memo."""
    yield f"Mat({n})", matrix_trace_witt(field, n).arf, field._tensor_cache[("mat", n)][1]
    quat = csa.quaternion_algebra(field, field.one, field.nonresidue())
    if n == 2:
        label, A = "Quat", quat
    else:
        label, A = f"Quat*Mat({n // 2})", csa.tensor_product(quat, csa.matrix_algebra(field, n // 2))
    T = csa.second_trace_form(A)
    yield label, quadform.arf(T), quadform.clifford_invariant(T)


# -- the claims ----------------------------------------------------------------
#
# Each claim's rows(grid, seed) yields (params, predicted, computed,
# verdict) per report.  The grid holds the keys the claim reads, plus
# ``field``, the one field of the claims without a fields= grid.


def _verdict(ok):
    return "pass" if ok else "fail"


def _clifford_text(cls):
    return "trivial" if cls.is_trivial else str(cls.symbols)


def _prop1_rows(grid, seed):
    ns, names = grid["n"], grid["fields"]
    for name in names:
        fld = standard_field(name)
        for n in ns:
            pred = predicted_matrix_class(fld, n)
            w = matrix_trace_witt(fld, n)
            ok = w == pred.witt
            yield {"field": name, "n": n}, witt_to_dict(pred.witt), witt_to_dict(w), _verdict(ok)


def _thm1_rows(grid, seed):
    base = fields.GF2
    for n in grid["n"]:
        E = _ext_of_degree(base, n, seed)
        A = csa.crossed_product(E, base)
        wA = crossed_trace_witt(E, base, "trivial", A)
        qE = revoy_trace_form_of_extension(E, base)
        if n % 2:
            wref = quadform.witt_class(qE)
            label = "revoy form of E/F"
        else:
            qB = csa.b_subspace_form(A)
            wref = quadform.witt_class(quadform.direct_sum(qE, qB))
            label = "revoy form of E/F perp involution slice"
        ok = same_witt_class(wA, wref)
        yield {"n": n, "reference": label}, witt_to_dict(wref), witt_to_dict(wA), _verdict(ok)


def _cor1_rows(grid, seed):
    base = fields.GF2
    for n in grid["n"]:
        w = crossed_trace_witt(_ext_of_degree(base, n, seed), base, "trivial")
        pred = predicted_crossed_odd(base, n)
        ok = same_witt_class(w, pred.witt)
        yield {"n": n}, witt_to_dict(pred.witt), witt_to_dict(w), _verdict(ok)


def _cor2_rows(grid, seed):
    ns, names = grid["n"], grid["fields"]
    for name in names:
        base = standard_field(name)
        for n in ns:
            # the drawn polynomial is irreducible, so no factor witness
            w = quadform.witt_class(revoy_trace_form(base, _ext_poly(base, n, seed)))
            got = _irreducible_verdict(base, n, w)
            computed = {k: got[k] for k in ("verdict", "degenerate") if k in got}
            ok = got["verdict"] == "inconclusive"
            yield {"field": name, "n": n}, {"verdict": "inconclusive"}, computed, _verdict(ok)


def _thm2_rows(grid, seed):
    fld = standard_field(grid["field"])
    for n1, n2 in grid["pairs"]:
        w1 = matrix_trace_witt(fld, n1)
        w2 = matrix_trace_witt(fld, n2)
        pred = predicted_tensor(w1, w2, n1, n2)
        w = quadform.witt_class(tensor_trace_form(fld, n1, n2))
        ok = w == pred.witt
        yield {"n1": n1, "n2": n2}, witt_to_dict(pred.witt), witt_to_dict(w), _verdict(ok)


def _cor3_rows(grid, seed):
    """Contrapositive check: every even-degree algebra in the corpus has
    a trace form in one of the two classes attainable with even k."""
    fld = standard_field(grid["field"])
    for n in grid["n"]:
        w = matrix_trace_witt(fld, n)
        ok = w.radical_dim == 0 and (fld.is_zero(w.arf) or w.arf == _one_class(fld))
        yield {"n": n}, {"class": "hyperbolic or [1,1]"}, witt_to_dict(w), _verdict(ok)


def _cor4_rows(grid, seed):
    fld = standard_field(grid["field"])
    for n in grid["n"]:
        pred = predicted_tensor_square(fld, n)
        w = quadform.witt_class(tensor_trace_form(fld, n, n))
        ok = w.arf == pred.arf and w.radical_dim == 0
        yield {"n": n}, {"arf": fld.show(pred.arf)}, witt_to_dict(w), _verdict(ok)


def _thm3_rows(grid, seed):
    ns, names = grid["n"], grid["fields"]
    for name in names:
        fld = standard_field(name)
        for n in ns:
            pred = predicted_invariants(fld, n)
            for label, rep, cls in _thm3_invariants(fld, n):
                ok = rep == pred.arf and cls == pred.clifford
                yield (
                    {"field": name, "n": n, "algebra": label},
                    {"arf": fld.show(pred.arf), "clifford": "trivial"},
                    {"arf": fld.show(rep), "clifford": _clifford_text(cls)},
                    _verdict(ok),
                )


def _thm4_rows(grid, seed):
    fld = standard_field(grid["field"])
    for n1, n2 in grid["pairs"]:
        w1 = matrix_trace_witt(fld, n1)
        w2 = matrix_trace_witt(fld, n2)
        pred = predicted_tensor_invariants(fld, n1, n2, w1.arf, w2.arf)
        T = tensor_trace_form(fld, n1, n2)
        rep = quadform.arf(T)
        cls = quadform.clifford_invariant(T)
        ok = rep == pred.arf and cls.is_trivial
        yield (
            {"n1": n1, "n2": n2},
            {"arf": fld.show(pred.arf), "clifford": "trivial", "label": pred.clifford.label},
            {"arf": fld.show(rep), "clifford": _clifford_text(cls)},
            _verdict(ok),
        )


def _remark2_rows(grid, seed):
    fld = standard_field(grid["field"])
    T = tensor_trace_form(fld, 3, 3)
    w = quadform.witt_class(T)
    ok = T.dim == 80 and w == WittClass(fld, 80, fld.zero, 0)
    yield {"n1": 3, "n2": 3}, {"dim": 80, "arf": "0", "planes": 40}, witt_to_dict(w), _verdict(ok)


def _remark3_rows(grid, seed):
    """Odd-degree algebras all land in the matrix-algebra class (even
    degrees are compared with it the same way).

    Nontrivial cyclic cocycles need a wrap-around scalar in the base
    field, so those cases run over GF(4) where the unit group is larger.
    """
    for n in grid["n"]:
        for name, style in (("GF2", "trivial"), ("GF4", "trivial"), ("GF4", "cyclic")):
            base = standard_field(name)
            w = crossed_trace_witt(_ext_of_degree(base, n, seed), base, style)
            wm = matrix_trace_witt(base, n)
            ok = same_witt_class(w, wm)
            params = {"field": name, "n": n, "cocycle": style}
            yield params, witt_to_dict(wm), witt_to_dict(w), _verdict(ok)


def _example1_rows(grid, seed):
    rep = example1_audit()
    ok = rep["verdict"] == "documented-discrepancy" and "a+1" in rep.get("roots", [])
    yield (
        {"field": "GF4", "poly": "x^3+x+a"},
        {"verdict": "documented-discrepancy", "claimed_form": "[1,a]"},
        rep,
        "documented-discrepancy" if ok else "fail",
    )


class Claim(Frozen):
    """One claim of ``verify``.  ``rows(grid, seed)`` yields (params,
    predicted, computed, verdict) per report; ``defaults`` holds each
    grid key the claim reads with its default value, a new dict when not
    given; ``rule`` is the (least degree, parity) of a claim that reads
    n=, and ``degree`` the degree of the one algebra a claim without a
    grid builds.  Hashing a claim raises ``TypeError``, as ``defaults``
    is a dict."""

    __slots__ = ("rows", "defaults", "rule", "degree")

    def __init__(self, rows, defaults=None, rule=None, degree=None):
        self._set("rows", rows)
        self._set("defaults", {} if defaults is None else defaults)
        self._set("rule", rule)
        self._set("degree", degree)

    @property
    def reads(self):
        return tuple(self.defaults)


THM2_PAIRS = (
    (3, 5), (3, 7), (2, 2), (2, 6), (4, 2), (4, 4),
    (4, 3), (4, 5), (2, 5), (2, 3), (2, 7), (6, 3),
)

CLAIMS = {
    "prop1": Claim(_prop1_rows, {"n": range(2, 10), "fields": ("GF2", "GF4")}, (2, None)),
    "thm1": Claim(_thm1_rows, {"n": (2, 3, 4, 5, 7, 9)}, (2, None)),
    "cor1": Claim(_cor1_rows, {"n": (3, 5, 7, 9)}, (3, 1)),
    "cor2": Claim(_cor2_rows, {"n": (3, 5, 7, 9), "fields": ("GF2", "GF4", "GF8")}, (3, 1)),
    "thm2": Claim(_thm2_rows, {"pairs": THM2_PAIRS}),
    "cor3": Claim(_cor3_rows, {"n": (2, 4, 6, 8)}, (2, None)),
    "cor4": Claim(_cor4_rows, {"n": (2, 3, 4)}, (2, None)),
    "thm3": Claim(_thm3_rows, {"n": (2, 4, 6, 8), "fields": ("GF2", "GF4", "GF8")}, (2, 0)),
    "thm4": Claim(_thm4_rows, {"pairs": THM2_PAIRS + ((5, 7),)}),
    "remark2": Claim(_remark2_rows, degree=9),
    "remark3": Claim(_remark3_rows, {"n": (3, 5)}, (2, None)),
    "example1": Claim(_example1_rows, degree=3),
}
CLAIM_IDS = tuple(CLAIMS)


def run_verification(claim, params=None, seed=0, max_degree=None):
    """Run one claim (or ``all``) over its parameter grid; returns the
    reports sorted by (claim, params) so aggregation is order
    independent.  Every grid is checked (degree rules, pairs, field
    names and, with ``max_degree``, the degrees it would build) before
    any claim runs.  A report's ``ms`` is the time since the previous
    report of its claim, or since the claim started."""
    params = params or {}
    if claim != "all" and claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    degrees = claim_degrees(claim, params["n"], max_degree) if "n" in params else {}
    grids = {}
    for cid in CLAIM_IDS if claim == "all" else (claim,):
        grid = {key: params.get(key, value) for key, value in CLAIMS[cid].defaults.items()}
        if cid in degrees:
            grid["n"] = degrees[cid]
        grid["field"] = params.get("field", "GF2")
        _check_grid(cid, grid, max_degree)
        grids[cid] = grid
    out = []
    for cid, grid in grids.items():
        t0 = time.perf_counter()
        for row in CLAIMS[cid].rows(grid, seed):
            t1 = time.perf_counter()
            out.append(VerificationReport(cid, *row, (t1 - t0) * 1000.0))
            t0 = t1
    return sorted(out, key=lambda r: (r.claim, sorted(r.params.items()).__repr__()))
