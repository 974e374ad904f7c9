"""Config-driven command line front end.

Jobs are key=value lines (or the same keys inline as flags): declare a
field tower, an algebra or a form literal, pick a command, get JSON.

    field=extend(GF2,"a^2+a+1") algebra=Quat(a,a) cmd=form
    field=GF2 algebra=Tensor(Mat(3),Mat(3)) cmd=invariants
    field=extend(GF2,"a^2+a+1") ext="x^3+x+a" cmd=galois-check
    field=GF2 cmd=verify claim=prop1 n=2..9

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import csa, fields, quadform, theorems
from .records import Record


class ParseError(ValueError):
    pass


COMMANDS = ("form", "invariants", "witt", "galois-check", "verify")


class JobSpec(Record):
    """One parsed job; ``params`` is a new dict when not given."""

    __slots__ = ("cmd", "field_spec", "algebra_spec", "form_spec", "ext", "params", "seed")

    def __init__(self, cmd, field_spec="GF2", algebra_spec=None, form_spec=None,
                 ext=None, params=None, seed=0):
        self.cmd = cmd
        self.field_spec = field_spec
        self.algebra_spec = algebra_spec
        self.form_spec = form_spec
        self.ext = ext
        self.params = {} if params is None else params
        self.seed = seed

    def render(self):
        lines = [f"cmd={self.cmd}", f"field={self.field_spec}"]
        if self.algebra_spec:
            lines.append(f"algebra={self.algebra_spec}")
        if self.form_spec:
            lines.append(f"form={self.form_spec}")
        if self.ext:
            lines.append(f'ext="{self.ext}"')
        for k in sorted(self.params):
            lines.append(f"{k}={self.params[k]}")
        lines.append(f"seed={self.seed}")
        return "\n".join(lines) + "\n"


_PARAM_KEYS = ("claim", "n", "fields", "pairs")

# the keys each command reads besides field=, which they all read; a
# command refuses any other key it is given.  algebra= and form= name the
# same input, so a command takes one of them.
_COMMAND_KEYS = {
    "form": ("algebra", "form"),
    "invariants": ("algebra", "form"),
    "witt": ("algebra", "form"),
    "galois-check": ("ext",),
    "verify": ("claim", "n", "fields", "pairs", "seed"),
}


def parse_spec(text):
    """Parse key=value lines into a job."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for chunk in _split(line):
            if "=" not in chunk:
                raise ParseError(f"line {lineno}: expected key=value, got {chunk!r}")
            key, _, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if key in data:
                raise ParseError(f"line {lineno}: duplicate key {key!r}")
            data[key] = value
    return _job_from_dict(data)


def _split(text, sep=None, expected=None):
    """Split ``text`` at each ``sep`` (whitespace when None) outside
    quotes and brackets.  Pieces come back stripped; blank text gives
    none, and whitespace splitting drops empty pieces."""
    return [piece for _, piece in _split_at(text, sep, expected)]


def _split_at(text, sep=None, expected=None, at=0):
    """:func:`_split`, each piece paired with the offset of its first
    character, counted from ``at``, the offset of ``text`` itself."""
    pieces = []
    depth = 0
    quote = False
    start = 0
    for i, ch in enumerate(text):
        if ch == '"':
            quote = not quote
        elif quote:
            continue
        elif ch in "([<":
            depth += 1
        elif ch in ")]>":
            depth -= 1
        elif depth == 0 and (ch.isspace() if sep is None else ch == sep):
            pieces.append(_stripped_at(text, start, i, at))
            start = i + 1
    pieces.append(_stripped_at(text, start, len(text), at))
    if sep is None or not text.strip():
        pieces = [(i, p) for i, p in pieces if p]
    if expected is not None and len(pieces) != expected:
        raise ParseError(f"expected {expected} arguments in {text!r} at character {at}")
    return pieces


def _stripped_at(text, start, stop, at=0):
    raw = text[start:stop]
    return at + start + len(raw) - len(raw.lstrip()), raw.strip()


def _parsed_at(at, parse, *args):
    """``parse(*args)``, its FieldError naming the atom's offset ``at``."""
    try:
        return parse(*args)
    except fields.FieldError as exc:
        exc.args = (f"{exc} at character {at}",)
        raise


def _job_from_dict(data):
    data = dict(data)
    cmd = data.pop("cmd", None)
    if cmd not in COMMANDS:
        raise ParseError(f"cmd must be one of {COMMANDS}, got {cmd!r}")
    job = JobSpec(cmd=cmd)
    job.field_spec = data.pop("field", "GF2")
    job.algebra_spec = data.pop("algebra", None)
    job.form_spec = data.pop("form", None)
    ext = data.pop("ext", None)
    if ext is not None:
        job.ext = ext.strip('"')
    if "seed" in data:
        seed = data.pop("seed")
        job.seed = _int_atom(seed, f"seed={seed}: expected an integer")
    for k in list(data):
        if k in _PARAM_KEYS:
            job.params[k] = data.pop(k)
    if data:
        raise ParseError(f"unknown keys: {sorted(data)}")
    return job


# -- field / algebra / form spec parsing ----------------------------------
#
# Each parser takes an optional ``max_degree`` and checks every degree it
# learns against it before building anything of that degree: a level's
# absolute degree, an algebra's degree, a polynomial's degree, and a form
# literal's dimension against ``max_degree**2``.


def _check_cap(what, degree, cap):
    if cap is not None and degree > cap:
        raise ParseError(f"{what} {degree} exceeds --max-degree {cap}")


def parse_field_spec(text, max_degree=None):
    return _field_at(*_stripped_at(text, 0, len(text)), max_degree)


def _field_at(at, text, max_degree):
    """The level ``text`` names, found stripped at character offset
    ``at`` of the whole spec, which every ParseError names."""
    if text == "GF2":
        return fields.GF2
    if text.startswith("extend(") and text.endswith(")"):
        (base_at, base_text), (poly_at, poly) = _split_at(text[7:-1], ",", 2, at + 7)
        base = _field_at(base_at, base_text, max_degree)
        if not (len(poly) > 1 and poly.startswith('"') and poly.endswith('"')):
            raise ParseError(f"defining polynomial {poly!r} at character {poly_at} must be quoted")
        var, coeffs = _parsed_at(poly_at + 1, fields.parse_poly, base, poly[1:-1])
        _check_cap("field degree", base.bits * fields.poly_deg(coeffs), max_degree)
        return base.extend(coeffs, var)
    raise ParseError(f"bad field spec {text!r} at character {at}")


def parse_algebra_spec(level, text, max_degree=None):
    return _algebra_at(level, *_stripped_at(text, 0, len(text)), max_degree)


def _algebra_at(level, at, text, max_degree):
    """The algebra ``text`` names, found stripped at character offset
    ``at`` of the whole spec, which every ParseError names."""
    where = f"bad algebra spec {text!r}"
    if text.startswith("Mat(") and text.endswith(")"):
        n = _int_atom(
            text[4:-1],
            f"{where}: the degree must be an integer, got {text[4:-1]!r} at character {at + 4}",
        )
        _check_cap("algebra degree", n, max_degree)
        return csa.matrix_algebra(level, n)
    if text.startswith("Quat(") and text.endswith(")"):
        a, b = (_parsed_at(i, level.parse, s) for i, s in _split_at(text[5:-1], ",", 2, at + 5))
        _check_cap("algebra degree", 2, max_degree)
        return csa.quaternion_algebra(level, a, b)
    if text.startswith("Tensor(") and text.endswith(")"):
        A, B = (
            _algebra_at(level, i, s, max_degree)
            for i, s in _split_at(text[7:-1], ",", 2, at + 7)
        )
        _check_cap("algebra degree", A.degree * B.degree, max_degree)
        return csa.tensor_product(A, B)
    if text.startswith("Crossed(") and text.endswith(")"):
        ext_text = None
        cocycle = "trivial"
        for arg_at, arg in _split_at(text[8:-1], ",", at=at + 8):
            key, _, raw = arg.partition("=")
            key = key.strip()
            value = raw.strip()
            if key == "ext":
                ext_at, ext_text = arg_at + len(arg) - len(value.lstrip('"')), value.strip('"')
            elif key == "cocycle" and value == "trivial":
                cocycle = "trivial"
            elif key == "table":
                cocycle = (arg_at + arg.index("=") + 1, raw)
            else:
                raise ParseError(f"bad Crossed argument {arg!r} at character {arg_at}")
        if ext_text is None:
            raise ParseError(f"{where} at character {at}: Crossed needs ext=\"...\"")
        var, coeffs = _parsed_at(ext_at, fields.parse_poly, level, ext_text)
        _check_cap("algebra degree", fields.poly_deg(coeffs), max_degree)
        E = level.extend(coeffs, var)
        if cocycle != "trivial":
            cocycle = _parse_cocycle_table(E, *cocycle)
        return csa.crossed_product(E, level, cocycle)
    raise ParseError(f"{where} at character {at}")


def _parse_cocycle_table(E, at, text):
    """The cocycle table ``text`` spells, found at character offset ``at``
    of the algebra spec."""
    at, text = _stripped_at(text, 0, len(text), at)
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"cocycle table {text!r} at character {at} must be [[...],[...]]")
    rows = []
    for row_at, row_text in _split_at(text[1:-1], ",", at=at + 1):
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(f"cocycle table row {row_text!r} at character {row_at} must be bracketed")
        entries = _split_at(row_text[1:-1], ",", at=row_at + 1)
        rows.append([_parsed_at(i, E.parse, v) for i, v in entries])
    return rows


def parse_form_literal(level, text, max_degree=None):
    """Form literals: [a,b], H, k*H, <c>[a,b], and + for orthogonal sums.
    The whole dimension is checked before any summand is built."""
    atoms = [_form_atom(part, at) for at, part in _split_at(text, "+")]
    if not atoms:
        raise ParseError("empty form literal")
    dim = sum(2 * planes for _, planes, _ in atoms)
    if max_degree is not None and dim > max_degree**2:
        raise ParseError(f"form dimension {dim} exceeds --max-degree {max_degree} squared")
    total = None
    for scale, planes, entries in atoms:
        if entries is None:
            q = quadform.QuadraticForm.hyperbolic(level, planes)
        else:
            a, b = (_parsed_at(i, level.parse, e) for i, e in entries)
            q = quadform.QuadraticForm.binary(level, a, b)
        if scale is not None:
            q = q.scale(_parsed_at(scale[0], level.parse, scale[1]))
        total = q if total is None else quadform.direct_sum(total, q)
    return total


def _form_atom(atom, at):
    """One summand, found at character offset ``at`` of the literal, as
    (scale or None, hyperbolic plane count, and the two entries of a
    binary form or None), the scale and entries as (offset, text)."""
    where = f"bad form literal {atom!r} at character {at}"
    text = atom
    scale = None
    if text.startswith("<"):
        close = text.find(">")
        if close < 0:
            raise ParseError(f"{where}: '<' without closing '>'")
        scale = _stripped_at(text, 1, close, at)
        at, text = _stripped_at(text, close + 1, len(text), at)
    if text == "H":
        return scale, 1, None
    if "*" in text and text.endswith("H"):
        k_text = text.partition("*")[0].strip()
        if not k_text.isdecimal():
            raise ParseError(f"{where}: plane count must be a whole number")
        return scale, int(k_text), None
    if text.startswith("[") and text.endswith("]"):
        return scale, 1, _split_at(text[1:-1], ",", 2, at + 1)
    raise ParseError(where)


# -- command execution ------------------------------------------------------


def _int_atom(text, error):
    """The integer ``text`` spells: an optional '-' and then the ASCII
    digits 0-9 only, blanks around it ignored.  Anything else, such as
    '_', '+' or another script's digits, raises a ParseError ``error``."""
    text = str(text).strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(error)
    return int(text)


def _refuse_repeats(key, values, show=str):
    """``values``, unless one of them comes twice: a grid runs each value
    once, so a repeat is refused rather than run again or dropped."""
    seen = set()
    for v in values:
        if v in seen:
            raise ParseError(f"{key}={show(v)}: repeated grid value")
        seen.add(v)
    return values


def _int_list(text, cap=None):
    """A comma list of integers and lo..hi ranges; with a cap, a value
    or range end above it in size is refused before a range expands."""
    out = []
    for part in _split(str(text), ","):
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        error = f"n={part}: expected an integer or a lo..hi range"
        lo = _int_atom(lo, error)
        hi = _int_atom(hi, error) if dots else lo
        if lo > hi:
            raise ParseError(f"n={part}: empty range, write lo..hi with lo <= hi")
        if cap is not None and max(abs(lo), abs(hi)) > cap:
            raise ParseError(f"n={part} exceeds --max-degree {cap}")
        out.extend(range(lo, hi + 1))
    return _refuse_repeats("n", out)


def _pair_list(text):
    out = []
    for part in _split(str(text), ","):
        if not part:
            continue
        a, _, b = part.partition("x")
        error = f"pairs={part}: expected n1xn2"
        out.append((_int_atom(a, error), _int_atom(b, error)))
    return _refuse_repeats("pairs", out, lambda p: f"{p[0]}x{p[1]}")


def _form_to_dict(level, q, include_polar=True):
    dec = quadform.block_decompose(q)
    out = {
        "dim": q.dim,
        "diag": [level.show(v) for v in q.diag],
        "blocks": [[level.show(a), level.show(b)] for a, b in dec.blocks],
        "radical_dim": dec.radical_dim,
    }
    if include_polar:
        out["polar"] = [[level.show(v) for v in q.polar_row(i)] for i in range(q.dim)]
    return out


def _invariants_dict(level, q):
    w = quadform.witt_class(q)
    out = {"witt": theorems.witt_to_dict(w)}
    if w.radical_dim == 0:
        rep = quadform.arf(q)
        cls = quadform.clifford_invariant(q)
        out["arf"] = level.show(rep)
        out["arf_bit"] = level.trace(rep)
        out["clifford"] = {
            "symbols": [[level.show(a), level.show(b)] for a, b in cls.symbols],
            "trivial": cls.is_trivial,
        }
    return out


def _refuse_unread_keys(job):
    reads = _COMMAND_KEYS[job.cmd]
    # the keys the job sets besides cmd= and field=; seed 0 is the default
    given = {"algebra": job.algebra_spec, "form": job.form_spec, "ext": job.ext}
    given = {key: value for key, value in given.items() if value is not None}
    given.update(job.params)
    if job.seed:
        given["seed"] = job.seed
    for key, value in given.items():
        if key not in reads:
            readers = ", ".join(c for c, keys in _COMMAND_KEYS.items() if key in keys)
            raise ParseError(
                f"{key}={value}: {job.cmd} does not read {key}=; {key}= is read by {readers}"
            )
    if "algebra" in given and "form" in given:
        raise ParseError(
            f"algebra={job.algebra_spec}: {job.cmd} reads form= or algebra=, not both "
            f"(form={job.form_spec})"
        )


def _job_quadratic_form(job, level, cap):
    """The form the job names: its form literal, or its algebra's second
    trace form."""
    if job.form_spec:
        return parse_form_literal(level, job.form_spec, cap)
    if job.algebra_spec:
        return csa.second_trace_form(parse_algebra_spec(level, job.algebra_spec, cap))
    raise ParseError(f"{job.cmd} command needs algebra= or form=")


def _job_form(job, level, cap):
    q = _job_quadratic_form(job, level, cap)
    return _form_to_dict(level, q, include_polar=q.dim <= 64)


def _job_invariants(job, level, cap):
    return _invariants_dict(level, _job_quadratic_form(job, level, cap))


def _job_witt(job, level, cap):
    w = quadform.witt_class(_job_quadratic_form(job, level, cap))
    out = theorems.witt_to_dict(w)
    out["planes"] = w.dim // 2
    return out


def _job_galois(job, level, cap):
    if not job.ext:
        raise ParseError("galois-check needs ext=\"poly\"")
    var, coeffs = fields.parse_poly(level, job.ext)
    _check_cap("ext degree", fields.poly_deg(coeffs), cap)
    return theorems.galois_obstruction(level, coeffs)


def _claim_readers(key):
    return ", ".join(c for c, spec in theorems.CLAIMS.items() if key in spec.reads)


def _job_verify(job, level, cap):
    claim = job.params.get("claim", "all")
    if level != fields.GF2:
        raise ParseError(
            f"field={job.field_spec}: claim {claim} does not read field=; verify takes "
            f"its fields from fields=, which {_claim_readers('fields')} and all read"
        )
    # ``all`` reads every key; an unknown claim id is rejected by the harness
    spec = theorems.CLAIMS.get(claim)
    for key in ("n", "fields", "pairs"):
        if key in job.params and spec is not None and key not in spec.reads:
            raise ParseError(
                f"{key}={job.params[key]}: claim {claim} does not read {key}=; "
                f"{key}= is read by {_claim_readers(key)} and all"
            )
    params = {}
    if "n" in job.params:
        params["n"] = _int_list(job.params["n"], cap)
    if "pairs" in job.params:
        params["pairs"] = _pair_list(job.params["pairs"])
    if "fields" in job.params:
        params["fields"] = _refuse_repeats("fields", tuple(str(job.params["fields"]).split(",")))
    return theorems.run_verification(claim, params, job.seed, max_degree=cap)


_JOBS = {
    "form": _job_form,
    "invariants": _job_invariants,
    "witt": _job_witt,
    "galois-check": _job_galois,
}


def execute(job, include_ms=False, max_degree=None):
    """Run a job; returns (jsonable document, exit code).  With
    ``max_degree``, every degree the job names is checked against it
    before anything of that degree is built, and a key the command does
    not read is refused."""
    level = parse_field_spec(job.field_spec, max_degree)
    if job.cmd not in _COMMAND_KEYS:
        raise ParseError(f"unhandled command {job.cmd!r}")
    _refuse_unread_keys(job)
    if job.cmd == "verify":
        reports = _job_verify(job, level, max_degree)
        doc = [r.to_json(include_ms=include_ms) for r in reports]
        code = 0 if all(r.verdict in ("pass", "documented-discrepancy") for r in reports) else 1
        return doc, code
    return _JOBS[job.cmd](job, level, max_degree), 0


def _render_table(doc):
    if isinstance(doc, list):
        lines = []
        for row in doc:
            if isinstance(row, dict) and "claim" in row:
                lines.append(
                    f"{row['verdict']:<24} {row['claim']:<9} {json.dumps(row['params'])}"
                )
            else:
                lines.append(json.dumps(row))
        return "\n".join(lines)
    return "\n".join(f"{k}: {json.dumps(v)}" for k, v in doc.items())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="t2forms",
        description="Second trace forms of central simple algebras in characteristic two.",
    )
    parser.add_argument("--spec", help="job file with key=value lines")
    parser.add_argument("--field", help="field tower spec, e.g. extend(GF2,\"a^2+a+1\")")
    parser.add_argument("--algebra", help="algebra spec, e.g. Mat(3) or Tensor(Mat(3),Mat(3))")
    parser.add_argument("--form", help="form literal, e.g. [1,1]+2*H")
    parser.add_argument("--ext", help="defining polynomial for galois-check")
    parser.add_argument("--cmd", choices=COMMANDS)
    parser.add_argument("--claim", help="claim id for verify, or 'all'")
    parser.add_argument("--n", help="degree grid, e.g. 2..9 or 3,5,7")
    parser.add_argument("--fields", help="comma list of field shorthands (GF2,GF4,GF8)")
    parser.add_argument("--pairs", help="tensor pairs, e.g. 3x5,2x7")
    parser.add_argument("--seed", help="integer seed for verify")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--timings", action="store_true", help="include wall times in reports")
    parser.add_argument(
        "--max-degree", type=int, default=35,
        help="largest degree a job may name: algebra degree, absolute field degree, "
        "polynomial degree, verify degrees (n^2 for cor4, n1*n2 for pairs); "
        "form literals may reach dimension max-degree^2",
    )
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)

    try:
        if args.spec:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read spec file {args.spec}: {exc.strerror}") from None
            job = parse_spec(text)
        else:
            data = {}
            for key in ("field", "algebra", "form", "ext", "cmd", "claim", "n", "fields", "pairs"):
                value = getattr(args, key)
                if value is not None:
                    data[key] = value
            data.setdefault("cmd", None)
            if args.seed is not None:
                data["seed"] = args.seed
            job = _job_from_dict(data)
        doc, code = execute(job, include_ms=args.timings, max_degree=args.max_degree)
    except (ParseError, fields.FieldError, quadform.FormError, csa.AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    else:
        text = _render_table(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
