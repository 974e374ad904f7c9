"""Predicted classification values and the verification harness.

Each supported claim id names one classification statement about second
trace forms (the matrix-algebra table, crossed products, tensor
products, their Arf and Clifford invariants, and the Galois obstruction
test).  ``run_verification`` builds the objects, computes the forms,
compares against the predictions and returns report records; a
documented-discrepancy verdict marks audits whose inputs are themselves
inconsistent (the reducible-cubic audit) and does not fail a run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import csa, fields, linalg, quadform, rational
from .quadform import BrauerClass, WittClass

# the claim ids, each with the grid keys of ``params`` its runner reads
# (single-field runners also take ``field``, which the CLI never sets)
CLAIM_PARAMS = {
    "prop1": ("n", "fields"),
    "thm1": ("n",),
    "cor1": ("n",),
    "cor2": ("n", "fields"),
    "thm2": ("pairs",),
    "cor3": ("n",),
    "cor4": ("n",),
    "thm3": ("n", "fields"),
    "thm4": ("pairs",),
    "remark2": (),
    "remark3": ("n",),
    "example1": (),
}
CLAIM_IDS = tuple(CLAIM_PARAMS)


@dataclass
class Prediction:
    claim: str
    params: dict
    witt: WittClass | None = None
    arf: object | None = None
    clifford: BrauerClass | None = None
    notes: tuple = ()


@dataclass
class VerificationReport:
    claim: str
    params: dict
    predicted: dict
    computed: dict
    verdict: str  # pass | fail | documented-discrepancy
    ms: float

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


def _revoy_form(alg):
    """t2 of a commutative algebra of degree d = dim over its field: on the
    whole algebra for even d, on the trace-zero hyperplane for odd d."""
    q = csa.t2_form(alg)
    if alg.dim % 2 == 0:
        return q
    return q.restricted(csa.trace_zero_subspace(alg))


def revoy_trace_form(field, fpoly):
    """Second trace form of F[x]/(f): the second characteristic
    polynomial coefficient of multiplication maps, on the whole algebra
    for even degree and on the trace kernel for odd degree.  ``f`` need
    not be irreducible (the quotient may be etale)."""
    return _revoy_form(csa.commutative_quotient(field, fpoly))


def revoy_trace_form_of_extension(E, F):
    """Same form for a tower extension E/F, on E's product basis over F."""
    return _revoy_form(csa.extension_algebra(E, F))


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
    if n < 2:
        raise ValueError("table starts at degree 2")
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
    if n % 2 == 0 or n < 3:
        raise ValueError("odd degree >= 3 expected")
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
    if n % 2:
        raise ValueError("even degree expected")
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
    if n % 2 == 0:
        raise ValueError("obstruction test is for odd degrees")
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
        roots = fields.poly_roots(field, fpoly)
        report["roots"] = [field.show(r) for r in roots]
        report["note"] = "quotient is not a field, a fortiori not a Galois field extension"
        return report
    report["reducible"] = False
    pred = predicted_crossed_odd(field, n)
    report["predicted_witt"] = witt_to_dict(pred.witt)
    w = quadform.witt_class(q)
    if w.arf != pred.witt.arf:
        report["verdict"] = "not Galois"
    else:
        report["verdict"] = "inconclusive"
        if field.wp_member(field.one):
            report["degenerate"] = (
                "both classes coincide over this field, the test cannot discriminate"
            )
    return report


def _rational_poly_coeff(c):
    if c.den != (1,):
        raise ValueError("polynomial coefficients over the function field expected")
    return c.num


def _galois_obstruction_rational(ff, coeffs):
    k = ff.coeff
    n = len(coeffs) - 1
    if n != 3:
        raise ValueError("rational backend supports cubic extensions")
    report = {"degree": n, "backend": "rational"}
    ints = [_rational_poly_coeff(c) for c in coeffs]
    if ints[3] != (k.one,):
        raise ValueError("monic cubic expected")
    root = _cubic_rational_root(ff, ints[:3])
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
    given its three low coefficients: such roots are polynomial and
    divide the constant term."""
    k = ff.coeff
    const = low_coeffs[0]
    if not const:
        return ff.zero
    cands = [()]  # zero
    for d in fields.monic_divisors(k, const):
        for c in range(1, k.order):
            cands.append(fields.poly_scale(k, c, d))
    for cand in cands:
        r = ff.make(cand)
        val = ff.zero
        power = ff.one
        for ci in low_coeffs:
            val = ff.add(val, ff.mul(ff.make(ci), power))
            power = ff.mul(power, r)
        val = ff.add(val, power)  # monic leading term r**3
        if ff.is_zero(val):
            return r
    return None


def cubic_second_root_oracle(ff, coeffs, bound=6):
    """Ground-truth oracle: does the irreducible monic cubic f split in
    E = k(t)[x]/(f)?  The known root is factored out symbolically and
    the quadratic cofactor is decided through its Artin-Schreier form,
    solved as a GF(2)-linear system over polynomial coordinates of
    degree at most ``bound``.  A separable cubic splits in E exactly
    when E/k(t) is Galois."""
    k = ff.coeff
    ints = [_rational_poly_coeff(c) for c in coeffs]
    c0, c1, c2 = (ff.make(x) for x in ints[:3])
    ext = _CubicExt(ff, (c0, c1, c2))
    beta = ext.x
    # f = (x + beta)(x^2 + a x + b) with a = c2 + beta, b = c1 + beta*a
    a = ext.add(ext.scalar(c2), beta)
    b = ext.add(ext.scalar(c1), ext.mul(beta, a))
    if ext.is_zero(a):
        raise ValueError("degenerate quadratic cofactor")
    # y^2 + y = b / a^2
    d = ext.mul(b, ext.inv(ext.mul(a, a)))
    return _as_solvable_bounded(ext, d, bound)


class _CubicExt:
    """Minimal arithmetic in k(t)[x]/(x^3 + c2 x^2 + c1 x + c0)."""

    def __init__(self, ff, consts):
        self.ff = ff
        c0, c1, c2 = consts
        self.c = (c0, c1, c2)
        self.zero = (ff.zero, ff.zero, ff.zero)
        self.one = (ff.one, ff.zero, ff.zero)
        self.x = (ff.zero, ff.one, ff.zero)
        # x^3 = c2 x^2 + c1 x + c0 (characteristic two)
        self.x3 = (c0, c1, c2)
        self.x4 = (
            ff.mul(c2, c0),
            ff.add(ff.mul(c2, c1), c0),
            ff.add(ff.mul(c2, c2), c1),
        )

    def scalar(self, v):
        return (v, self.ff.zero, self.ff.zero)

    def add(self, u, v):
        ff = self.ff
        return tuple(ff.add(a, b) for a, b in zip(u, v))

    def is_zero(self, u):
        return all(self.ff.is_zero(a) for a in u)

    def mul(self, u, v):
        ff = self.ff
        raw = [ff.zero] * 5
        for i, a in enumerate(u):
            if ff.is_zero(a):
                continue
            for j, bb in enumerate(v):
                if not ff.is_zero(bb):
                    raw[i + j] = ff.add(raw[i + j], ff.mul(a, bb))
        out = list(raw[:3])
        for power, coords in ((3, self.x3), (4, self.x4)):
            c = raw[power]
            if not ff.is_zero(c):
                for t in range(3):
                    out[t] = ff.add(out[t], ff.mul(c, coords[t]))
        return tuple(out)

    def inv(self, u):
        ff = self.ff
        basis = [self.one, self.x, self.mul(self.x, self.x)]
        cols = [self.mul(u, e) for e in basis]
        rows = [[cols[c][r] for c in range(3)] for r in range(3)]
        sol = linalg.solve(ff, rows, [ff.one, ff.zero, ff.zero])
        if sol is None:
            raise ZeroDivisionError("element is not invertible")
        return tuple(sol)


def _as_solvable_bounded(ext, d, bound):
    """Whether y**2 + y = d has a solution with bounded polynomial
    coordinates after clearing denominators."""
    ff = ext.ff
    k = ff.coeff
    dens = [c.den for c in d]
    den = (k.one,)
    for dd in dens:
        g = fields.poly_gcd(k, den, dd)
        den = fields.poly_mul(k, den, fields.poly_divmod(k, dd, g)[0])
    # w = y * den solves w^2 + den w = den^2 d (polynomial coordinates)
    den_rat = ff.make(den)
    target = tuple(ff.mul(ff.mul(den_rat, den_rat), c) for c in d)
    tpolys = []
    for c in target:
        if c.den != (k.one,):
            raise AssertionError("denominator clearing failed")
        tpolys.append(c.num)
    nbits = k.bits
    ncoef = bound + 1
    nunk = 3 * ncoef * nbits
    sq_basis = [ext.one, ext.mul(ext.x, ext.x), ext.x4]  # (x^i)^2 for i = 0,1,2
    maxdeg = 2 * bound + max(
        (fields.poly_deg(c.num) for coord in sq_basis for c in coord if c.num), default=0
    )
    maxdeg = max(maxdeg, bound + fields.poly_deg(den), max(fields.poly_deg(t) for t in tpolys if t) if any(tpolys) else 0) + 1
    nrows = 3 * (maxdeg + 1) * nbits

    def var_index(coord, j, bit):
        return (coord * ncoef + j) * nbits + bit

    def row_index(coord, deg, bit):
        return (coord * (maxdeg + 1) + deg) * nbits + bit

    rows = [0] * nrows
    rhs = 0
    for coord in range(3):
        p = tpolys[coord]
        for deg, cv in enumerate(p):
            for bit in range(nbits):
                if (cv >> bit) & 1:
                    rhs |= 1 << row_index(coord, deg, bit)
    for coord in range(3):
        for j in range(ncoef):
            for bit in range(nbits):
                e = k.one << bit if nbits > 1 else 1
                e = 1 << bit
                col = var_index(coord, j, bit)
                # square part: (e t^j x^coord)^2 = e^2 t^(2j) * (x^coord)^2
                esq = k.square(e)
                for cc in range(3):
                    r = sq_basis[coord][cc]
                    if ff.is_zero(r):
                        continue
                    prod = fields.poly_scale(k, esq, r.num)
                    for dg, cv in enumerate(prod):
                        if cv:
                            for b2 in range(nbits):
                                if (cv >> b2) & 1:
                                    idx = row_index(cc, dg + 2 * j, b2)
                                    rows[idx] ^= 1 << col
                # linear part: den * e t^j x^coord
                prod = fields.poly_scale(k, e, den)
                for dg, cv in enumerate(prod):
                    if cv:
                        for b2 in range(nbits):
                            if (cv >> b2) & 1:
                                idx = row_index(coord, dg + j, b2)
                                rows[idx] ^= 1 << col
    return linalg.solve_gf2(rows, nunk, rhs) is not None


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


def standard_field(name):
    try:
        return _FIELD_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown field shorthand {name!r}") from None


def _ext_of_degree(base, degree, seed=0):
    rng = random.Random((seed, base.bits, degree).__hash__() & 0xFFFF)
    poly = fields.find_irreducible(base, degree, rng)
    return base.extend(poly, fields.fresh_gen_name(base))


def _report(claim, params, predicted, computed, ok, t0, verdict=None):
    return VerificationReport(
        claim,
        params,
        predicted,
        computed,
        verdict or ("pass" if ok else "fail"),
        (time.perf_counter() - t0) * 1000.0,
    )


def _run_prop1(params, seed):
    ns = params.get("n", range(2, 10))
    field_names = params.get("fields", ("GF2", "GF4"))
    out = []
    for name in field_names:
        fld = standard_field(name)
        for n in ns:
            t0 = time.perf_counter()
            pred = predicted_matrix_class(fld, n)
            T = csa.second_trace_form(csa.matrix_algebra(fld, n))
            w = quadform.witt_class(T)
            ok = w == pred.witt
            out.append(
                _report(
                    "prop1",
                    {"field": name, "n": n},
                    witt_to_dict(pred.witt),
                    witt_to_dict(w),
                    ok,
                    t0,
                )
            )
    return out


def _run_thm1(params, seed):
    ns = params.get("n", (2, 3, 4, 5, 7, 9))
    out = []
    base = fields.GF2
    for n in ns:
        t0 = time.perf_counter()
        E = _ext_of_degree(base, n, seed)
        A = csa.crossed_product(E, base)
        wA = quadform.witt_class(csa.second_trace_form(A))
        qE = revoy_trace_form_of_extension(E, base)
        if n % 2:
            wref = quadform.witt_class(qE)
            label = "revoy form of E/F"
        else:
            qB = csa.b_subspace_form(A)
            wref = quadform.witt_class(quadform.direct_sum(qE, qB))
            label = "revoy form of E/F perp involution slice"
        ok = same_witt_class(wA, wref)
        out.append(
            _report(
                "thm1",
                {"n": n, "reference": label},
                witt_to_dict(wref),
                witt_to_dict(wA),
                ok,
                t0,
            )
        )
    return out


def _run_cor1(params, seed):
    ns = params.get("n", (3, 5, 7, 9))
    out = []
    base = fields.GF2
    for n in ns:
        t0 = time.perf_counter()
        E = _ext_of_degree(base, n, seed)
        A = csa.crossed_product(E, base)
        w = quadform.witt_class(csa.second_trace_form(A))
        pred = predicted_crossed_odd(base, n)
        ok = same_witt_class(w, pred.witt)
        out.append(
            _report("cor1", {"n": n}, witt_to_dict(pred.witt), witt_to_dict(w), ok, t0)
        )
    return out


def _run_cor2(params, seed):
    degrees = params.get("n", (3, 5, 7, 9))
    field_names = params.get("fields", ("GF2", "GF4", "GF8"))
    out = []
    for name in field_names:
        base = standard_field(name)
        for n in degrees:
            t0 = time.perf_counter()
            E = _ext_of_degree(base, n, seed)
            rep = galois_obstruction(base, E.poly)
            ok = rep["verdict"] == "inconclusive"
            out.append(
                _report(
                    "cor2",
                    {"field": name, "n": n},
                    {"verdict": "inconclusive"},
                    {"verdict": rep["verdict"], **{k: rep[k] for k in ("degenerate",) if k in rep}},
                    ok,
                    t0,
                )
            )
    return out


THM2_PAIRS = (
    (3, 5),
    (3, 7),
    (2, 2),
    (2, 6),
    (4, 2),
    (4, 4),
    (4, 3),
    (4, 5),
    (2, 5),
    (2, 3),
    (2, 7),
    (6, 3),
)


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
    cache = _tensor_form_cache(field)
    key = ("mat", n)
    if key not in cache:
        cache[key] = quadform.witt_class(csa.second_trace_form(csa.matrix_algebra(field, n)))
    return cache[key]


def _run_thm2(params, seed):
    pairs = params.get("pairs", THM2_PAIRS)
    fld = standard_field(params.get("field", "GF2"))
    out = []
    for n1, n2 in pairs:
        t0 = time.perf_counter()
        w1 = matrix_trace_witt(fld, n1)
        w2 = matrix_trace_witt(fld, n2)
        pred = predicted_tensor(w1, w2, n1, n2)
        T = tensor_trace_form(fld, n1, n2)
        w = quadform.witt_class(T)
        ok = w == pred.witt
        out.append(
            _report(
                "thm2",
                {"n1": n1, "n2": n2},
                witt_to_dict(pred.witt),
                witt_to_dict(w),
                ok,
                t0,
            )
        )
    return out


def _run_cor3(params, seed):
    """Contrapositive check: every even-degree algebra in the corpus has
    a trace form in one of the two classes attainable with even k."""
    fld = standard_field(params.get("field", "GF2"))
    out = []
    degrees = params.get("n", (2, 4, 6, 8))
    for n in degrees:
        t0 = time.perf_counter()
        w = matrix_trace_witt(fld, n)
        ok = w.radical_dim == 0 and (fld.is_zero(w.arf) or w.arf == _one_class(fld))
        out.append(
            _report(
                "cor3",
                {"n": n},
                {"class": "hyperbolic or [1,1]"},
                witt_to_dict(w),
                ok,
                t0,
            )
        )
    return out


def _run_cor4(params, seed):
    fld = standard_field(params.get("field", "GF2"))
    degrees = params.get("n", (2, 3, 4))
    out = []
    for n in degrees:
        t0 = time.perf_counter()
        pred = predicted_tensor_square(fld, n)
        T = tensor_trace_form(fld, n, n)
        w = quadform.witt_class(T)
        ok = w.arf == pred.arf and w.radical_dim == 0
        out.append(
            _report(
                "cor4",
                {"n": n},
                {"arf": fld.show(pred.arf)},
                witt_to_dict(w),
                ok,
                t0,
            )
        )
    return out


def _thm3_algebras(field, n):
    yield f"Mat({n})", csa.matrix_algebra(field, n)
    quat = csa.quaternion_algebra(field, field.one, field.nonresidue())
    if n == 2:
        yield "Quat", quat
    else:
        yield f"Quat*Mat({n // 2})", csa.tensor_product(quat, csa.matrix_algebra(field, n // 2))


def _run_thm3(params, seed):
    ns = params.get("n", (2, 4, 6, 8))
    field_names = params.get("fields", ("GF2", "GF4", "GF8"))
    out = []
    for name in field_names:
        fld = standard_field(name)
        for n in ns:
            pred = predicted_invariants(fld, n)
            for label, A in _thm3_algebras(fld, n):
                t0 = time.perf_counter()
                T = csa.second_trace_form(A)
                rep = quadform.arf(T)
                cls = quadform.clifford_invariant(T)
                ok = rep == pred.arf and cls == pred.clifford
                out.append(
                    _report(
                        "thm3",
                        {"field": name, "n": n, "algebra": label},
                        {"arf": fld.show(pred.arf), "clifford": "trivial"},
                        {
                            "arf": fld.show(rep),
                            "clifford": "trivial" if cls.is_trivial else str(cls.symbols),
                        },
                        ok,
                        t0,
                    )
                )
    return out


def _run_thm4(params, seed):
    fld = standard_field(params.get("field", "GF2"))
    pairs = params.get("pairs", THM2_PAIRS + ((5, 7),))
    out = []
    for n1, n2 in pairs:
        t0 = time.perf_counter()
        w1 = matrix_trace_witt(fld, n1)
        w2 = matrix_trace_witt(fld, n2)
        pred = predicted_tensor_invariants(fld, n1, n2, w1.arf, w2.arf)
        T = tensor_trace_form(fld, n1, n2)
        rep = quadform.arf(T)
        cls = quadform.clifford_invariant(T)
        ok = rep == pred.arf and cls.is_trivial
        out.append(
            _report(
                "thm4",
                {"n1": n1, "n2": n2},
                {"arf": fld.show(pred.arf), "clifford": "trivial", "label": pred.clifford.label},
                {"arf": fld.show(rep), "clifford": "trivial" if cls.is_trivial else str(cls.symbols)},
                ok,
                t0,
            )
        )
    return out


def _run_remark2(params, seed):
    fld = standard_field(params.get("field", "GF2"))
    t0 = time.perf_counter()
    T = tensor_trace_form(fld, 3, 3)
    w = quadform.witt_class(T)
    ok = T.dim == 80 and w == WittClass(fld, 80, fld.zero, 0)
    return [
        _report(
            "remark2",
            {"n1": 3, "n2": 3},
            {"dim": 80, "arf": "0", "planes": 40},
            witt_to_dict(w),
            ok,
            t0,
        )
    ]


def _run_remark3(params, seed):
    """Odd-degree algebras all land in the matrix-algebra class.

    Nontrivial cyclic cocycles need a wrap-around scalar in the base
    field, so those cases run over GF(4) where the unit group is larger.
    """
    out = []
    degrees = params.get("n", (3, 5))
    cases = [("GF2", "trivial"), ("GF4", "trivial"), ("GF4", "cyclic")]
    for n in degrees:
        for name, style in cases:
            base = standard_field(name)
            t0 = time.perf_counter()
            E = _ext_of_degree(base, n, seed)
            if style == "trivial":
                A = csa.crossed_product(E, base)
            else:
                A = csa.crossed_product(E, base, csa.cyclic_cocycle(E, base, base.gen))
            w = quadform.witt_class(csa.second_trace_form(A))
            wm = matrix_trace_witt(base, n)
            ok = same_witt_class(w, wm)
            out.append(
                _report(
                    "remark3",
                    {"field": name, "n": n, "cocycle": style},
                    witt_to_dict(wm),
                    witt_to_dict(w),
                    ok,
                    t0,
                )
            )
    return out


def _run_example1(params, seed):
    t0 = time.perf_counter()
    rep = example1_audit()
    ok = rep["verdict"] == "documented-discrepancy" and "a+1" in rep.get("roots", [])
    return [
        _report(
            "example1",
            {"field": "GF4", "poly": "x^3+x+a"},
            {"verdict": "documented-discrepancy", "claimed_form": "[1,a]"},
            rep,
            ok,
            t0,
            verdict="documented-discrepancy" if ok else "fail",
        )
    ]


_RUNNERS = {
    "prop1": _run_prop1,
    "thm1": _run_thm1,
    "cor1": _run_cor1,
    "cor2": _run_cor2,
    "thm2": _run_thm2,
    "cor3": _run_cor3,
    "cor4": _run_cor4,
    "thm3": _run_thm3,
    "thm4": _run_thm4,
    "remark2": _run_remark2,
    "remark3": _run_remark3,
    "example1": _run_example1,
}


def run_verification(claim, params=None, seed=0):
    """Run one claim (or ``all``) over its parameter grid; returns the
    reports sorted by (claim, params) so aggregation is order
    independent."""
    params = params or {}
    if claim == "all":
        out = []
        for cid in CLAIM_IDS:
            out.extend(_RUNNERS[cid](params if params else {}, seed))
    elif claim in _RUNNERS:
        out = _RUNNERS[claim](params, seed)
    else:
        raise ValueError(f"unknown claim {claim!r}")
    return sorted(out, key=lambda r: (r.claim, sorted(r.params.items()).__repr__()))
