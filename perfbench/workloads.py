"""The three benchmark workloads and their correctness checks.

Each workload is a ``run(env, rec, seed)`` that returns JSON-ready output
rows, timed as one pass, and a ``check(env, rows, seed)`` that runs after
timing and returns ``(attempted, failed, wrong, problems)``.  Rows carry
the field ``spec_string()``, the chosen polynomials and the elements, so
each row can be rebuilt from its own JSON (``cli.parse_field_spec``
reads the specs back).

* ``verify-all`` is ``t2forms --cmd verify --claim all``, one job per
  claim id so that per-claim times are taken from outside.
* ``form-core`` is the quadratic-form core on three tensor algebras.
* ``field-tower`` is the field layer and crossed products, all inputs
  drawn from the seed through ``fields.find_irreducible`` and
  ``Level.extend``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from spans import NullRecorder
from t2forms import cli, csa, fields, quadform, rational, theorems

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "verify_all_reference.json").read_text()
)


def setup():
    """What every CLI call pays before its first operation: the import
    (done by the caller) and the GF(4) and GF(8) table-backed towers."""
    return {
        "GF2": fields.GF2,
        "GF4": fields.GF2.extend("a^2+a+1"),
        "GF8": fields.GF2.extend("a^3+a+1"),
    }


def cold_cache_problems():
    """Caches a measured pass must not inherit from earlier work."""
    problems = []
    for attr in ("_tensor_cache", "_scale_tables"):
        if hasattr(fields.GF2, attr):
            problems.append(f"GF2 already has {attr}")
    if quadform._split_cache:
        problems.append("quadform._split_cache is not empty")
    return problems


def digest(doc):
    """sha256 of the document as ``t2forms`` prints it with --format json."""
    text = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# -- verify-all ------------------------------------------------------------


def claim_seed(seed):
    """The CLI seed for a benchmark seed: one with a captured reference."""
    return seed % len(REFERENCE["sha256"])


def run_verify_all(env, rec, seed):
    rows = []
    for cid in theorems.CLAIM_IDS:
        with rec.span(f"theorems.claim.{cid}"):
            job = cli.parse_spec(f"cmd=verify claim={cid} seed={claim_seed(seed)}")
            doc, _ = cli.execute(job)
        rows.extend(doc)
    return rows


def check_verify_all(env, rows, seed):
    problems = [
        f"{r['claim']} {r['params']}: verdict {r['verdict']}"
        for r in rows
        if r["verdict"] not in ("pass", "documented-discrepancy")
    ]
    # the order run_verification gives the merged claim set
    merged = sorted(rows, key=lambda r: (r["claim"], repr(sorted(r["params"].items()))))
    want = REFERENCE["sha256"][str(claim_seed(seed))]
    if digest(merged) != want:
        problems.append(f"merged reports differ from the captured --claim all output (seed {claim_seed(seed)})")
    return len(rows), 0, len(problems), problems


# -- form-core -------------------------------------------------------------

# Mat(5)xMat(7) has odd degree and goes through the trace-zero
# restriction, Mat(6)xMat(6) does not, and the GF(4) case takes the
# non-GF(2) paths of t2_form and block_decompose.
FORM_CORE = (("GF2", 5, 7), ("GF2", 6, 6), ("GF4", 5, 5))


def run_form_core(env, rec, seed):
    rows = []
    for name, n1, n2 in FORM_CORE:
        F = env[name]
        A = csa.tensor_product(csa.matrix_algebra(F, n1), csa.matrix_algebra(F, n2))
        q = csa.second_trace_form(A)
        w = quadform.witt_class(q)
        rep = quadform.arf(q)
        cls = quadform.clifford_invariant(q)
        rows.append({
            "op": "tensor_form",
            "field": F.spec_string(),
            "n1": n1,
            "n2": n2,
            "dim": q.dim,
            "witt": theorems.witt_to_dict(w),
            "arf": F.show(rep),
            "clifford": [[F.show(a), F.show(b)] for a, b in cls.symbols],
        })
    return rows


def check_form_core(env, rows, seed):
    problems = []
    for row, (name, n1, n2) in zip(rows, FORM_CORE):
        F = env[name]
        w1, w2 = (
            quadform.witt_class(csa.second_trace_form(csa.matrix_algebra(F, n)))
            for n in (n1, n2)
        )
        pred = theorems.predicted_tensor(w1, w2, n1, n2).witt
        inv = theorems.predicted_tensor_invariants(F, n1, n2, w1.arf, w2.arf)
        label = f"{name} Mat({n1})xMat({n2})"
        if row["witt"] != theorems.witt_to_dict(pred):
            problems.append(f"{label}: Witt class {row['witt']} != predicted {theorems.witt_to_dict(pred)}")
        if row["witt"]["radical_dim"] != 0:
            problems.append(f"{label}: radical {row['witt']['radical_dim']}")
        if row["arf"] != F.show(inv.arf) or row["clifford"]:
            problems.append(f"{label}: Arf {row['arf']} / Clifford {row['clifford']} off the table")
    if len(rows) != len(FORM_CORE):
        problems.append(f"{len(rows)} rows for {len(FORM_CORE)} algebras")
    return len(FORM_CORE), 0, len(problems), problems


# -- field-tower -----------------------------------------------------------

CROSSED_GF2 = (3, 5, 7, 9, 11)
IRREDUCIBLE_DEGREES = range(16, 21)
IRREDUCIBLE_PER_DEGREE = 3
ARITH_BATCH = {"mul": 200, "inv": 50, "trace": 200, "artin_schreier": 50}
LARGE_FORMS = 40
CUBICS = 40


def _extend(F, degree, rng):
    """A random extension of the given relative degree and its row."""
    poly = fields.find_irreducible(F, degree, rng)
    E = F.extend(poly, fields.fresh_gen_name(F))
    return E, {"op": "find_irreducible", "field": F.spec_string(), "degree": degree,
               "poly": list(poly), "extension": E.spec_string()}


# Row builders: the pass calls them on inputs drawn from the seed, and
# replay() calls them on the inputs a row records.


def _crossed_row(F, E, gamma):
    """Witt class of the crossed product of E/F: trivial cocycle, or the
    cyclic one with wrap-around value gamma."""
    cocycle = "trivial" if gamma is None else csa.cyclic_cocycle(E, F, gamma)
    w = quadform.witt_class(csa.second_trace_form(csa.crossed_product(E, F, cocycle)))
    return {"op": "crossed_product", "base": F.spec_string(), "ext": E.spec_string(),
            "poly": list(E.poly), "n": E.degree_over(F), "cyclic_gamma": gamma,
            "witt": theorems.witt_to_dict(w)}


def _arith_row(E, x, y, sizes):
    """One batch of mul, inv, trace and Artin-Schreier solves."""
    return {
        "op": "arith", "field": E.spec_string(), "x": x, "y": y,
        "mul": [E.mul(a, b) for a, b in zip(x, y)],
        "inv": [E.inv(a) for a in x[: sizes["inv"]]],
        "trace": [E.trace(a) for a in y[: sizes["trace"]]],
        "artin_schreier": [E.artin_schreier_solve(a) for a in y[: sizes["artin_schreier"]]],
    }


def _binary_form_row(E, c, rec):
    """Witt class of [1,c]; a FieldError is recorded as a failed operation."""
    row = {"op": "binary_form_witt", "field": E.spec_string(), "c": c, "witt": None, "error": None}
    try:
        row["witt"] = theorems.witt_to_dict(
            quadform.witt_class(quadform.QuadraticForm.binary(E, 1, c)))
    except fields.FieldError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        rec.count("fields.failed")
    return row


def _cubic_row(ff, low):
    """Galois obstruction of x^3 + c2 x^2 + c1 x + c0 over GF(2)(t), and the
    split-in-E oracle when the cubic is irreducible."""
    coeffs = tuple(ff.make(tuple(p)) for p in low) + (ff.one,)
    rep = theorems.galois_obstruction(ff, coeffs)
    splits = None if rep["reducible"] else theorems.cubic_second_root_oracle(ff, coeffs[:3])
    return {"op": "cubic", "field": "GF2(t)", "low_coeffs": [list(fields.poly_trim(p)) for p in low],
            "verdict": rep["verdict"], "splits": splits}


def _half_trace_one(E, count, rng):
    """``count`` random nonzero elements of E, half of them of trace 1,
    in random order."""
    traces = [k % 2 for k in range(count)]
    rng.shuffle(traces)
    out = []
    for t in traces:
        c = E.random_nonzero(rng)
        while E.trace(c) != t:
            c = E.random_nonzero(rng)
        out.append(c)
    return out


def run_field_tower(env, rec, seed):
    rng = random.Random(seed)
    GF2, GF4, GF8 = env["GF2"], env["GF4"], env["GF8"]
    rows = []
    # GF(8^5) = GF(2^15) is above the table limit: recursive multiplication
    for F, n, cyclic in [(GF2, n, False) for n in CROSSED_GF2] + [(GF4, 5, True), (GF8, 5, False)]:
        E, _ = _extend(F, n, rng)
        rows.append(_crossed_row(F, E, F.gen if cyclic else None))
    for d in IRREDUCIBLE_DEGREES:
        for _ in range(IRREDUCIBLE_PER_DEGREE):
            poly = fields.find_irreducible(GF2, d, rng)
            rows.append({"op": "find_irreducible", "field": GF2.spec_string(), "degree": d,
                         "poly": list(poly), "extension": None})
    E13, row13 = _extend(GF2, 13, rng)
    E16, row16 = _extend(GF4, 8, rng)
    rows += [row13, row16]
    for E in (E13, E16):
        x = [E.random_nonzero(rng) for _ in range(ARITH_BATCH["mul"])]
        y = [E.random_nonzero(rng) for _ in range(ARITH_BATCH["mul"])]
        with rec.span("fields.arith"):
            rows.append(_arith_row(E, x, y, ARITH_BATCH))
        rec.count("fields.arith.ops", sum(ARITH_BATCH.values()))
    # [1,c] forms with trace(c) = 1 hit the table-free nonresidue defect;
    # they are counted as failed operations, never skipped.  Half of the
    # c have trace 1, as over the whole field, so that every seed fails
    # the same number of operations.
    rows += [_binary_form_row(E13, c, rec) for c in _half_trace_one(E13, LARGE_FORMS, rng)]
    ff = rational.FunctionField(GF2)
    rows += [_cubic_row(ff, [[rng.randrange(2) for _ in range(4)] for _ in range(3)])
             for _ in range(CUBICS)]
    return rows


def replay(row):
    """Recompute a field-tower row from its own JSON alone.

    A row is replayable when the result equals the recorded row.
    ``find_irreducible`` rows record the search's outcome, so replaying
    one rebuilds its extension from the spec.
    """
    op = row["op"]
    spec = cli.parse_field_spec
    if op == "crossed_product":
        return _crossed_row(spec(row["base"]), spec(row["ext"]), row["cyclic_gamma"])
    if op == "find_irreducible":
        if row["extension"] is None:
            return row
        E = spec(row["extension"])
        return {**row, "poly": list(E.poly), "extension": E.spec_string()}
    if op == "arith":
        sizes = {k: len(row[k]) for k in ("inv", "trace", "artin_schreier")}
        return _arith_row(spec(row["field"]), row["x"], row["y"], sizes)
    if op == "binary_form_witt":
        return _binary_form_row(spec(row["field"]), row["c"], NullRecorder())
    if op == "cubic":
        return _cubic_row(rational.FunctionField(fields.GF2), row["low_coeffs"])
    raise ValueError(f"unknown op {op!r}")


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]


def rabin_irreducible(F, poly):
    """Rabin's criterion, independent of ``poly_factor_witness``: monic f
    of degree d over GF(q) is irreducible iff x^(q^d) = x mod f and
    gcd(x^(q^(d/r)) - x, f) = 1 for every prime r dividing d."""
    poly = tuple(poly)
    d = fields.poly_deg(poly)
    x = (F.zero, F.one)
    powers = [x]  # powers[k] = x^(q^k) mod f
    for _ in range(d):
        h = powers[-1]
        for _ in range(F.bits):  # q = 2^bits, so x -> x^q is bits squarings
            h = fields.poly_mod(F, fields.poly_mul(F, h, h), poly)
        powers.append(h)
    if powers[d] != x:
        return False
    return all(
        fields.poly_deg(fields.poly_gcd(F, fields.poly_add(F, powers[d // r], x), poly)) == 0
        for r in _prime_divisors(d)
    )


def check_field_tower(env, rows, seed):
    levels = {}

    def level(spec):
        if spec not in levels:
            levels[spec] = cli.parse_field_spec(spec)
        return levels[spec]

    problems = []
    attempted = failed = 0
    for i, row in enumerate(rows):
        op = row["op"]
        if op == "crossed_product":
            attempted += 1
            F = level(row["base"])
            n = row["n"]
            if row["cyclic_gamma"] is None:
                pred = theorems.predicted_crossed_odd(F, n).witt
            else:
                pred = theorems.predicted_matrix_class(F, n).witt
            got = row["witt"]
            if (got["arf"], got["radical_dim"]) != (F.show(pred.arf), 0):
                problems.append(f"row {i}: crossed product n={n} over {row['base']} is {got}")
            if not rabin_irreducible(F, row["poly"]):
                problems.append(f"row {i}: extension polynomial {row['poly']} fails Rabin's test")
        elif op == "find_irreducible":
            attempted += 1
            F = level(row["field"])
            if fields.poly_deg(tuple(row["poly"])) != row["degree"] or not rabin_irreducible(F, row["poly"]):
                problems.append(f"row {i}: {row['poly']} fails Rabin's test")
        elif op == "arith":
            problems += [f"row {i}: {p}" for p in _arith_problems(level(row["field"]), row)]
        elif op == "binary_form_witt":
            attempted += 1
            E = level(row["field"])
            if row["error"] is not None:
                failed += 1
                # the known defect: the table-free nonresidue for trace(c) = 1
                if E.trace(row["c"]) != 1:
                    problems.append(f"row {i}: [1,c] with trace(c) = 0 raised {row['error']}")
                continue
            w = row["witt"]
            if (w["dim"], w["radical_dim"], w["arf_bit"]) != (2, 0, E.trace(row["c"])):
                problems.append(f"row {i}: [1,c] with c={row['c']} classified as {w}")
        elif op == "cubic":
            attempted += 1
            if row["verdict"] == "not Galois" and row["splits"] is not False:
                problems.append(f"row {i}: cubic declared not Galois but the oracle says it splits")
        else:
            problems.append(f"row {i}: unknown op {op!r}")
    return attempted, failed, len(problems), problems


def _arith_problems(E, row):
    out = []
    for a, b, ab in zip(row["x"], row["y"], row["mul"]):
        if E.mul(b, a) != ab:
            out.append(f"mul({a},{b}) is not commutative")
    for a, ai in zip(row["x"], row["inv"]):
        if E.mul(a, ai) != 1:
            out.append(f"inv({a}) = {ai} is not an inverse")
    ys = row["y"]
    for k, t in enumerate(row["trace"]):
        a, b = ys[k], ys[k - 1]
        if t not in (0, 1) or t ^ E.trace(b) != E.trace(a ^ b):
            out.append(f"trace({a}) = {t} is not additive")
    for c, s in zip(ys, row["artin_schreier"]):
        if (s is None) != (E.trace(c) == 1) or (s is not None and E.mul(s, s) ^ s != c):
            out.append(f"artin_schreier_solve({c}) = {s}")
    return out


WORKLOADS = {
    "verify-all": (run_verify_all, check_verify_all),
    "form-core": (run_form_core, check_form_core),
    "field-tower": (run_field_tower, check_field_tower),
}
