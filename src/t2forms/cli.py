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
from dataclasses import dataclass, field as _dfield

from . import csa, fields, quadform, theorems


class ParseError(ValueError):
    pass


COMMANDS = ("form", "invariants", "witt", "galois-check", "verify")


@dataclass
class JobSpec:
    cmd: str
    field_spec: str = "GF2"
    algebra_spec: str | None = None
    form_spec: str | None = None
    ext: str | None = None
    params: dict = _dfield(default_factory=dict)
    seed: int = 0

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


def parse_spec(text):
    """Parse key=value lines into a job."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for chunk in _split_top_level(line):
            if "=" not in chunk:
                raise ParseError(f"line {lineno}: expected key=value, got {chunk!r}")
            key, _, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if key in data:
                raise ParseError(f"line {lineno}: duplicate key {key!r}")
            data[key] = value
    return _job_from_dict(data)


def _split_top_level(line):
    """Split a line into key=value chunks at top-level whitespace."""
    out = []
    depth = 0
    quote = False
    cur = []
    for ch in line:
        if ch == '"':
            quote = not quote
        elif ch in "([<" and not quote:
            depth += 1
        elif ch in ")]>" and not quote:
            depth -= 1
        if ch.isspace() and depth == 0 and not quote:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


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
        job.seed = int(data.pop("seed"))
    for k in list(data):
        if k in _PARAM_KEYS:
            job.params[k] = data.pop(k)
    if data:
        raise ParseError(f"unknown keys: {sorted(data)}")
    return job


# -- field / algebra / form spec parsing ----------------------------------


def parse_field_spec(text):
    text = text.strip()
    if text == "GF2":
        return fields.GF2
    if text.startswith("extend(") and text.endswith(")"):
        inner = text[len("extend(") : -1]
        base_text, poly_text = _split_args(inner, 2)
        base = parse_field_spec(base_text)
        poly = poly_text.strip()
        if not (poly.startswith('"') and poly.endswith('"')):
            raise ParseError("defining polynomial must be quoted")
        return base.extend(poly[1:-1])
    raise ParseError(f"bad field spec {text!r}")


def _split_args(text, expected=None):
    args = []
    depth = 0
    quote = False
    cur = []
    for ch in text:
        if ch == '"':
            quote = not quote
        elif ch in "([" and not quote:
            depth += 1
        elif ch in ")]" and not quote:
            depth -= 1
        if ch == "," and depth == 0 and not quote:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur or args:
        args.append("".join(cur).strip())
    if expected is not None and len(args) != expected:
        raise ParseError(f"expected {expected} arguments in {text!r}")
    return args


def parse_algebra_spec(level, text):
    text = text.strip()
    if text.startswith("Mat(") and text.endswith(")"):
        return csa.matrix_algebra(level, int(text[4:-1]))
    if text.startswith("Quat(") and text.endswith(")"):
        a_text, b_text = _split_args(text[5:-1], 2)
        return csa.quaternion_algebra(level, level.parse(a_text), level.parse(b_text))
    if text.startswith("Tensor(") and text.endswith(")"):
        s1, s2 = _split_args(text[7:-1], 2)
        return csa.tensor_product(parse_algebra_spec(level, s1), parse_algebra_spec(level, s2))
    if text.startswith("Crossed(") and text.endswith(")"):
        ext_text = None
        cocycle = "trivial"
        for arg in _split_args(text[8:-1]):
            key, _, value = arg.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "ext":
                ext_text = value.strip('"')
            elif key == "cocycle" and value == "trivial":
                cocycle = "trivial"
            elif key == "table":
                cocycle = value
            else:
                raise ParseError(f"bad Crossed argument {arg!r}")
        if ext_text is None:
            raise ParseError("Crossed needs ext=\"...\"")
        E = level.extend(ext_text)
        if cocycle != "trivial":
            cocycle = _parse_cocycle_table(E, cocycle)
        return csa.crossed_product(E, level, cocycle)
    raise ParseError(f"bad algebra spec {text!r}")


def _parse_cocycle_table(E, text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("cocycle table must be [[...],[...]]")
    rows = []
    for row_text in _split_args(text[1:-1]):
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError("cocycle table rows must be bracketed")
        rows.append([E.parse(v) for v in _split_args(row_text[1:-1])])
    return rows


def parse_form_literal(level, text):
    """Form literals: [a,b], H, k*H, <c>[a,b], and + for orthogonal sums."""
    total = None
    for part in _split_args(_plus_to_commas(text)):
        q = _parse_form_atom(level, part.strip())
        total = q if total is None else quadform.direct_sum(total, q)
    if total is None:
        raise ParseError("empty form literal")
    return total


def _plus_to_commas(text):
    out = []
    depth = 0
    for ch in text:
        if ch in "[<(":
            depth += 1
        elif ch in "]>)":
            depth -= 1
        out.append("," if ch == "+" and depth == 0 else ch)
    return "".join(out)


def _parse_form_atom(level, text):
    atom = text
    scale = None
    if text.startswith("<"):
        close = text.find(">")
        if close < 0:
            raise ParseError(f"bad form literal {atom!r}: '<' without closing '>'")
        scale = level.parse(text[1:close])
        text = text[close + 1 :].strip()
    if "*" in text and text.endswith("H"):
        k_text = text.partition("*")[0].strip()
        if not k_text.isdecimal():
            raise ParseError(f"bad form literal {atom!r}: plane count must be a whole number")
        q = quadform.QuadraticForm.hyperbolic(level, int(k_text))
    elif text == "H":
        q = quadform.QuadraticForm.hyperbolic(level, 1)
    elif text.startswith("[") and text.endswith("]"):
        a_text, b_text = _split_args(text[1:-1], 2)
        q = quadform.QuadraticForm.binary(level, level.parse(a_text), level.parse(b_text))
    else:
        raise ParseError(f"bad form literal {atom!r}")
    if scale is not None:
        q = q.scale(scale)
    return q


# -- command execution ------------------------------------------------------


def _int_list(text):
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _pair_list(text):
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        a, _, b = part.partition("x")
        out.append((int(a), int(b)))
    return out


def _form_to_dict(level, q, include_polar=True):
    dec = quadform.block_decompose(q)
    out = {
        "dim": q.dim,
        "diag": [level.show(v) for v in q.diag],
        "blocks": [[level.show(a), level.show(b)] for a, b in dec.blocks],
        "radical_dim": dec.radical_dim,
    }
    if include_polar:
        out["polar"] = [[level.show(v) for v in row] for row in q.polar]
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


def _job_form(job, level):
    if job.form_spec:
        q = parse_form_literal(level, job.form_spec)
    elif job.algebra_spec:
        A = parse_algebra_spec(level, job.algebra_spec)
        q = csa.second_trace_form(A)
    else:
        raise ParseError("form command needs algebra= or form=")
    return _form_to_dict(level, q, include_polar=q.dim <= 64)


def _job_invariants(job, level):
    if job.form_spec:
        q = parse_form_literal(level, job.form_spec)
    elif job.algebra_spec:
        q = csa.second_trace_form(parse_algebra_spec(level, job.algebra_spec))
    else:
        raise ParseError("invariants command needs algebra= or form=")
    return _invariants_dict(level, q)


def _job_witt(job, level):
    if job.form_spec:
        q = parse_form_literal(level, job.form_spec)
    elif job.algebra_spec:
        q = csa.second_trace_form(parse_algebra_spec(level, job.algebra_spec))
    else:
        raise ParseError("witt command needs algebra= or form=")
    w = quadform.witt_class(q)
    out = theorems.witt_to_dict(w)
    out["planes"] = w.dim // 2
    return out


def _job_galois(job, level):
    if not job.ext:
        raise ParseError("galois-check needs ext=\"poly\"")
    var, coeffs = fields.parse_poly(level, job.ext)
    return theorems.galois_obstruction(level, coeffs)


def _claim_readers(key):
    return ", ".join(c for c, keys in theorems.CLAIM_PARAMS.items() if key in keys)


def _job_verify(job, level):
    claim = job.params.get("claim", "all")
    if level != fields.GF2:
        raise ParseError(
            f"field={job.field_spec}: claim {claim} does not read field=; verify takes "
            f"its fields from fields=, which {_claim_readers('fields')} and all read"
        )
    # ``all`` reads every key; an unknown claim id is rejected by the harness
    for key in ("n", "fields", "pairs"):
        if key in job.params and key not in theorems.CLAIM_PARAMS.get(claim, (key,)):
            raise ParseError(
                f"{key}={job.params[key]}: claim {claim} does not read {key}=; "
                f"{key}= is read by {_claim_readers(key)} and all"
            )
    params = {}
    if "n" in job.params:
        params["n"] = _int_list(job.params["n"])
    if "pairs" in job.params:
        params["pairs"] = _pair_list(job.params["pairs"])
    if "fields" in job.params:
        params["fields"] = tuple(str(job.params["fields"]).split(","))
    return theorems.run_verification(claim, params, job.seed)


def execute(job, include_ms=False):
    """Run a job; returns (jsonable document, exit code)."""
    level = parse_field_spec(job.field_spec)
    if job.cmd == "verify":
        reports = _job_verify(job, level)
        doc = [r.to_json(include_ms=include_ms) for r in reports]
        code = 0 if all(r.verdict in ("pass", "documented-discrepancy") for r in reports) else 1
        return doc, code
    if job.cmd == "form":
        return _job_form(job, level), 0
    if job.cmd == "invariants":
        return _job_invariants(job, level), 0
    if job.cmd == "witt":
        return _job_witt(job, level), 0
    if job.cmd == "galois-check":
        return _job_galois(job, level), 0
    raise ParseError(f"unhandled command {job.cmd!r}")


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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--timings", action="store_true", help="include wall times in reports")
    parser.add_argument("--max-degree", type=int, default=35)
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)

    try:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as fh:
                job = parse_spec(fh.read())
        else:
            data = {}
            for key in ("field", "algebra", "form", "ext", "cmd", "claim", "n", "fields", "pairs"):
                value = getattr(args, key.replace("-", "_"), None)
                if value is not None:
                    data[key] = value
            data.setdefault("cmd", None)
            if args.seed:
                data["seed"] = str(args.seed)
            job = _job_from_dict(data)
        _enforce_degree_cap(job, args.max_degree)
        doc, code = execute(job, include_ms=args.timings)
    except (ParseError, fields.FieldError, quadform.FormError, csa.AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    else:
        text = _render_table(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def _algebra_degree(text):
    text = text.strip()
    if text.startswith("Mat("):
        return int(text[4:-1])
    if text.startswith("Quat("):
        return 2
    if text.startswith("Tensor("):
        s1, s2 = _split_args(text[7:-1], 2)
        return _algebra_degree(s1) * _algebra_degree(s2)
    if text.startswith("Crossed("):
        for arg in _split_args(text[8:-1]):
            key, _, value = arg.partition("=")
            if key.strip() == "ext":
                return _poly_degree_guess(value.strip().strip('"'))
    return 1


def _poly_degree_guess(poly_text):
    import re

    degs = [int(m) for m in re.findall(r"\^(\d+)", poly_text)]
    return max(degs) if degs else 1


def _enforce_degree_cap(job, cap):
    if job.algebra_spec:
        deg = _algebra_degree(job.algebra_spec)
        if deg > cap:
            raise ParseError(f"combined degree {deg} exceeds --max-degree {cap}")


if __name__ == "__main__":
    sys.exit(main())
