"""Seeded fuzz over ``cli.main``.

Jobs are drawn from the spec grammar: field towers, nested Tensor and
Crossed algebras whose ``ext`` may be written with products such as
``b^2*b^3``, form literals with ``k*H``, verify grids, and galois-check
polynomials.  Every job runs in-process under ``--max-degree 12``.  A
generated job knows whether it names a degree above the cap; every other
part of such a job is well formed, so it must be refused with exit 2 and
"exceeds --max-degree".  A second pass corrupts one argument of each job
and asks only for an exit code in {0, 1, 2} within the time budget.
"""

import contextlib
import io
import random
import time

from t2forms import cli, fields

CAP = 12
BUDGET_S = 5.0
# the largest degree each claim builds on its default grid
DEFAULT_TOP = {
    "prop1": 9, "thm1": 9, "cor1": 9, "cor2": 9, "cor3": 8, "cor4": 16,
    "thm3": 8, "remark3": 5, "thm2": 21, "thm4": 35, "remark2": 9, "example1": 3,
}
N_READERS = {
    "prop1": (2, None), "thm1": (2, None), "cor1": (3, 1), "cor2": (3, 1),
    "cor3": (2, None), "cor4": (2, None), "thm3": (2, 0), "remark3": (2, None),
}
PAIR_READERS = ("thm2", "thm4")
FIELD_READERS = ("prop1", "cor2", "thm3")


def _written(rng, var, d, text):
    """``text`` with its leading term v^d written as a product."""
    if d >= 4 and rng.random() < 0.5:
        i = rng.randrange(2, d - 1)
        text = text.replace(f"{var}^{d}", f"{var}^{i}*{var}^{d - i}", 1)
    return text


def _irreducible(rng, level, var, d):
    poly = fields.find_irreducible(level, d, rng)
    return _written(rng, var, d, fields.poly_to_str(level, poly, var))


def _over_cap_poly(rng, var, d):
    # the cap refuses it before anything checks irreducibility
    return _written(rng, var, d, f"{var}^{d}+{var}+1")


_levels = {}


def _level(spec):
    if spec not in _levels:
        _levels[spec] = cli.parse_field_spec(spec)
    return _levels[spec]


def _field(rng):
    """(spec, level or None when the spec is over the cap)."""
    r = rng.random()
    if r < 0.4:
        return "GF2", fields.GF2
    if r < 0.85:
        d = rng.choice([2, 2, 3, 3, 4, 5, 6, 8, 12])
        spec = f'extend(GF2,"{_irreducible(rng, fields.GF2, "a", d)}")'
        if d <= 4 and rng.random() < 0.3:
            inner = _level(spec)
            d2 = rng.choice([2, 3])
            spec = f'extend({spec},"{_irreducible(rng, inner, "b", d2)}")'
        return spec, _level(spec)
    d = rng.choice([13, 16, 40])
    return f'extend(GF2,"{_over_cap_poly(rng, "a", d)}")', None


def _elements(level, nonzero):
    out = ["1"]
    for g in level.gen_map():
        out += [g, f"{g}+1", f"{g}^2"]
    return out if nonzero else out + ["0"]


def _algebra(rng, level, depth=0):
    """(spec, degree); a Crossed ext within the cap has degree at most 3
    over levels above 2^4 elements, so a job stays fast."""
    kinds = ["Mat", "Quat", "Crossed"] + (["Tensor"] * 2 if depth < 2 else [])
    kind = rng.choice(kinds)
    if kind == "Mat":
        n = rng.choice([2, 3, 4, 5, 13, 20])
        return f"Mat({n})", n
    if kind == "Quat":
        a = rng.choice(_elements(level, nonzero=True))
        b = rng.choice(_elements(level, nonzero=False))
        return f"Quat({a},{b})", 2
    if kind == "Tensor":
        s1, d1 = _algebra(rng, level, depth + 1)
        s2, d2 = _algebra(rng, level, depth + 1)
        return f"Tensor({s1},{s2})", d1 * d2
    var = fields.fresh_gen_name(level)
    if rng.random() < 0.25:
        d = rng.choice([13, 24, 41])
        return f'Crossed(ext="{_over_cap_poly(rng, var, d)}")', d
    d = rng.choice([2, 3, 4, 5] if level.bits <= 4 else [2, 3])
    return f'Crossed(ext="{_irreducible(rng, level, var, d)}")', d


def _form(rng, level):
    """(literal, dimension)."""
    atoms = []
    dim = 0
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(["H", "kH", "bin", "scaled"])
        if kind == "H":
            atoms.append("H")
            dim += 2
        elif kind == "kH":
            k = rng.choice([0, 1, 3, 10, 30, 71, 500])
            atoms.append(f"{k}*H")
            dim += 2 * k
        else:
            a, b = (rng.choice(_elements(level, nonzero=False)) for _ in range(2))
            scale = f"<{rng.choice(_elements(level, nonzero=True))}>" if kind == "scaled" else ""
            atoms.append(f"{scale}[{a},{b}]")
            dim += 2
    return "+".join(atoms), dim


def _verify_job(rng):
    """(argv, over): a verify job on GF2 whose grids are each admitted by
    the claim's rule, with at most one entry above the cap."""
    claim = rng.choice(list(DEFAULT_TOP) + ["all"] * 3)
    argv = ["--cmd", "verify", "--claim", claim]
    over = False
    has_n = has_pairs = False
    if (claim == "all" or claim in N_READERS) and rng.random() < 0.8:
        has_n = True
        if claim == "all":
            lo = rng.randrange(2, 7)
            n_text = f"{lo}..{lo + rng.randrange(0, 3)}"
            if rng.random() < 0.25:
                n_text += f",{rng.choice([13, 20, 1000000000])}"
                over = True
        else:
            least, parity = N_READERS[claim]
            top = 3 if claim == "cor4" else 9
            ok = [n for n in range(least, top + 1) if parity is None or n % 2 == parity]
            ns = rng.sample(ok, rng.randrange(1, min(3, len(ok)) + 1))
            if rng.random() < 0.25:
                big = [n for n in range(least, 42) if parity is None or n % 2 == parity]
                ns.append(rng.choice([n for n in big if (n * n if claim == "cor4" else n) > CAP]))
                over = True
            n_text = ",".join(map(str, ns))
        argv += ["--n", n_text]
    if (claim == "all" or claim in PAIR_READERS) and rng.random() < 0.8:
        has_pairs = True
        pairs = [rng.choice([(2, 2), (2, 3), (3, 2), (2, 5), (3, 4), (2, 6), (4, 3)])]
        if rng.random() < 0.25:
            pairs.append(rng.choice([(3, 5), (5, 7), (7, 9), (2, 7)]))
            over = True
        argv += ["--pairs", ",".join(f"{a}x{b}" for a, b in pairs)]
    if (claim == "all" or claim in FIELD_READERS) and rng.random() < 0.5:
        argv += ["--fields", ",".join(rng.sample(["GF2", "GF4", "GF8"], rng.randrange(1, 4)))]
    if claim == "all":
        over = over or not has_n or not has_pairs
    elif not has_n and not has_pairs:
        over = DEFAULT_TOP[claim] > CAP
    return argv, over


def _job(rng):
    """(argv, over): over when the job names a degree above the cap."""
    cmd = rng.choice(["form", "invariants", "witt", "witt", "galois-check", "verify", "verify"])
    if cmd == "verify":
        return _verify_job(rng)
    spec, level = _field(rng)
    argv = ["--cmd", cmd, "--field", spec]
    if level is None:
        return argv + ["--algebra", "Mat(2)"], True
    if cmd == "galois-check":
        d = rng.choice([1, 3, 5, 7, 9, 13, 31])
        terms = [f"x^{d}" if d > 1 else "x", rng.choice(_elements(level, nonzero=True))]
        ext = _written(rng, "x", d, "+".join(terms))
        return argv + ["--ext", ext], d > CAP
    if rng.random() < 0.5:
        literal, dim = _form(rng, level)
        return argv + ["--form", literal], dim > CAP * CAP
    spec, degree = _algebra(rng, level)
    return argv + ["--algebra", spec], degree > CAP


def _corrupt(rng, argv):
    argv = list(argv)
    i = rng.randrange(1, len(argv), 2)  # a value, never a flag name
    text = argv[i]
    pos = rng.randrange(len(text) + 1)
    op = rng.choice(["delete", "insert", "insert", "double"])
    if op == "delete" and text:
        text = text[:pos] + text[pos + 1:]
    elif op == "double" and text:
        text = text[:pos] + text[pos:pos + 1] * 2 + text[pos + 1:]
    else:
        text = text[:pos] + rng.choice('()[]<>",+*^=x.0123456789- ab') + text[pos:]
    argv[i] = text
    return argv


def _run(argv):
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--max-degree", str(CAP)])
        except SystemExit as exc:  # argparse refuses a bad flag value
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - t0


def test_cli_fuzz_respects_the_degree_cap():
    rng = random.Random(20261018)
    refused = 0
    for _ in range(300):
        argv, over = _job(rng)
        code, err, dt = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, argv
        assert dt < BUDGET_S, (argv, dt)
        if over:
            assert code == 2 and "exceeds --max-degree" in err, (argv, code, err)
            refused += 1
        else:
            assert "exceeds --max-degree" not in err, (argv, err)
        bad = _corrupt(rng, argv)
        code, err, dt = _run(bad)
        assert code in (0, 1, 2), (bad, code, err)
        assert "Traceback" not in err, bad
        assert dt < BUDGET_S, (bad, dt)
    assert refused >= 50
