import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import t2forms
from t2forms import cli, csa, linalg, theorems

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "verify_all_reference.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_roundtrip():
    jobs = [
        cli.JobSpec(cmd="form", field_spec='extend(GF2,"a^2+a+1")', algebra_spec="Quat(a,a)"),
        cli.JobSpec(cmd="invariants", field_spec="GF2", algebra_spec="Tensor(Mat(3),Mat(3))"),
        cli.JobSpec(cmd="witt", field_spec="GF2", form_spec="[1,1]+[1,1]"),
        cli.JobSpec(cmd="galois-check", field_spec='extend(GF2,"a^2+a+1")', ext="x^3+x+a"),
        cli.JobSpec(cmd="verify", params={"claim": "prop1", "n": "2..9"}, seed=7),
    ]
    for job in jobs:
        assert cli.parse_spec(job.render()) == job


def test_parse_spec_single_line():
    job = cli.parse_spec('field=extend(GF2,"a^2+a+1") algebra=Quat(a,a) cmd=form\n')
    assert job.cmd == "form" and job.algebra_spec == "Quat(a,a)"
    job2 = cli.parse_spec('field=extend(GF2,"a^2+a+1") ext="x^3+x+a" cmd=galois-check\n')
    assert job2.ext == "x^3+x+a"


def test_parse_spec_errors():
    with pytest.raises(cli.ParseError):
        cli.parse_spec("cmd=bogus\n")
    with pytest.raises(cli.ParseError):
        cli.parse_spec("cmd=form\nfield=GF2\nfield=GF2\n")
    with pytest.raises(cli.ParseError):
        cli.parse_spec("cmd=form\nwhatever=1\n")
    with pytest.raises(cli.ParseError):
        cli.parse_spec("cmd=verify\nclaim=thm2\nn1=3\n")


def test_field_spec_parsing(gf4):
    assert cli.parse_field_spec("GF2").order == 2
    lvl = cli.parse_field_spec('extend(extend(GF2,"a^2+a+1"),"b^3+b+1")')
    assert lvl.order == 64
    with pytest.raises(cli.ParseError):
        cli.parse_field_spec("GF3")
    with pytest.raises(cli.ParseError):
        cli.parse_field_spec("extend(GF2,a^2+a+1)")  # missing quotes


def test_algebra_spec_parsing(gf4):
    A = cli.parse_algebra_spec(gf4, "Tensor(Mat(2),Quat(a,a))")
    assert A.dim == 16 and A.degree == 4
    C = cli.parse_algebra_spec(cli.parse_field_spec("GF2"), 'Crossed(ext="b^2+b+1")')
    assert C.dim == 4
    table = 'Crossed(ext="b^2+b+1", table=[[1,1],[1,1]])'
    C2 = cli.parse_algebra_spec(cli.parse_field_spec("GF2"), table)
    assert C2.dim == 4
    with pytest.raises(cli.ParseError):
        cli.parse_algebra_spec(gf4, "Octonion(1)")


def test_form_literals(gf4):
    q = cli.parse_form_literal(gf4, "[1,a]+2*H+<a>[1,1]")
    assert q.dim == 8
    assert cli.parse_form_literal(gf4, "H").dim == 2
    with pytest.raises(cli.ParseError):
        cli.parse_form_literal(gf4, "triangle")


def test_cli_invariants_mat4(capsys):
    code, out, err = run_cli(capsys, "--field", "GF2", "--algebra", "Mat(4)", "--cmd", "invariants")
    assert code == 0
    doc = json.loads(out)
    assert doc["arf_bit"] == 1
    assert doc["clifford"]["trivial"] is True


def test_cli_tensor_over_unrelated_splitting_levels_takes_no_charpoly(capsys, monkeypatch):
    # the quaternions split over quadratic extensions and the crossed
    # product over a cubic one; the tensor reads its factors' trace values,
    # so no left-regular characteristic polynomial is taken
    calls = []
    charpoly = linalg.charpoly
    monkeypatch.setattr(linalg, "charpoly", lambda *args: calls.append(args) or charpoly(*args))
    code, out, _ = run_cli(
        capsys,
        "--field", 'extend(GF2,"a^6+a^5+a^2+a+1")',
        "--algebra", 'Tensor(Quat(a^2,1),Tensor(Quat(a+1,a^2),Crossed(ext="x^3+a")))',
        "--cmd", "invariants",
    )
    assert code == 0 and calls == []
    assert json.loads(out) == {
        "witt": {"dim": 144, "arf": "0", "arf_bit": 0, "radical_dim": 0},
        "arf": "0",
        "arf_bit": 0,
        "clifford": {"symbols": [], "trivial": True},
    }


def test_cli_witt_form_literal(capsys):
    code, out, _ = run_cli(capsys, "--field", "GF2", "--form", "[1,1]+[1,1]", "--cmd", "witt")
    assert code == 0
    doc = json.loads(out)
    assert doc["planes"] == 2 and doc["arf"] == "0"


def test_cli_galois_check_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "--field", 'extend(GF2,"a^2+a+1")',
        "--ext", "x^3+x+a",
        "--cmd", "galois-check",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "documented-discrepancy"
    assert "a+1" in doc["roots"]


def _witt(dim, arf):
    return {"dim": dim, "arf": str(arf), "arf_bit": arf, "radical_dim": 0}


def _split(degree, poly, dim, arf, **extra):
    return {
        "degree": degree, "poly": poly, "form_dim": dim, "form_radical_dim": 0,
        "computed_witt": _witt(dim, arf), "reducible": False,
        "predicted_witt": _witt(dim, arf), "verdict": "inconclusive", **extra,
    }


def _not_a_field(poly, factors, roots):
    return {
        "degree": 3, "poly": poly, "form_dim": 2, "form_radical_dim": 2,
        "verdict": "documented-discrepancy", "reducible": True,
        "factorization": factors, "roots": roots,
        "note": "quotient is not a field, a fortiori not a Galois field extension",
    }


GALOIS_CHECK_PINNED = [
    ("GF2", "x^3+x+1", _split(3, "x^3+x+1", 2, 1)),
    ("GF2", "x^5+x^2+1", _split(5, "x^5+x^2+1", 4, 1)),
    ("GF2", "x^3", _not_a_field("x^3", ["x", "x^2"], ["0", "0", "0"])),
    ("GF2", "x^3+x^2", _not_a_field("x^3+x^2", ["x", "x^2+x"], ["0", "0", "1"])),
    ('extend(GF2,"a^2+a+1")', "x^3+a", _split(
        3, "x^3+a", 2, 0,
        degenerate="both classes coincide over this field, the test cannot discriminate",
    )),
]


@pytest.mark.parametrize("field, ext, expected", GALOIS_CHECK_PINNED)
def test_cli_galois_check_output_is_pinned(capsys, field, ext, expected):
    # the Revoy forms of irreducible, repeated-root and reducible cubics
    # and a quintic: the whole JSON document, byte for byte
    code, out, _ = run_cli(capsys, "--field", field, "--ext", ext, "--cmd", "galois-check")
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_cli_galois_check_above_the_enumeration_limit(capsys):
    # GF(8^5) has 2^15 elements; the roots come from the factorization
    code, out, _ = run_cli(
        capsys,
        "--field", 'extend(extend(GF2,"a^3+a+1"),"b^5+b^2+1")',
        "--ext", "x^3+b",
        "--cmd", "galois-check",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "documented-discrepancy"
    assert doc["roots"] == ["b^4+b^3"]


def test_cli_galois_check_refuses_degree_below_three(capsys, monkeypatch):
    # the obstruction test names itself and the degree, and refuses before
    # it builds the Revoy form or runs the factor witness
    def unreachable(*args):
        raise AssertionError("ran before the degree check")

    monkeypatch.setattr(theorems, "revoy_trace_form", unreachable)
    monkeypatch.setattr(theorems.fields, "poly_factor_witness", unreachable)
    for ext in ("x", "x+1"):
        code, out, err = run_cli(capsys, "--cmd", "galois-check", "--ext", ext)
        assert code == 2 and out == ""
        assert "obstruction test" in err and "degree 1" in err
        assert "cor1" not in err


def test_cli_huge_exponent_exits_2_at_once(capsys):
    # poly_pow would build a polynomial of degree 999999999; the parser
    # refuses the factor before that.  Timed in-process, so interpreter
    # start-up does not count against the bound.
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "--cmd", "galois-check", "--ext", "x^999999999")
    assert time.perf_counter() - t0 < 2
    assert code == 2
    assert "above the limit" in err


def test_cli_huge_exponent_exit_code_without_traceback():
    src = str(Path(t2forms.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "t2forms.cli", "--cmd", "galois-check", "--ext", "x^999999999"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "above the limit" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_verify_pass_and_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1", "--n", "2..3", "--fields", "GF2")
    assert code == 0
    doc = json.loads(out)
    assert [r["verdict"] for r in doc] == ["pass", "pass"]
    assert all("ms" not in r for r in doc)

    def fake_rows(grid, seed):
        yield {}, {}, {}, "fail"

    prop1 = theorems.CLAIMS["prop1"]
    fake = theorems.Claim(fake_rows, prop1.defaults, prop1.rule, prop1.degree)
    monkeypatch.setitem(theorems.CLAIMS, "prop1", fake)
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1")
    assert code == 1


def test_cli_verify_empty_run(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1", "--n", "", "--fields", "GF2")
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--claim", "thm4", "--pairs", "3x"), "pairs=3x: expected n1xn2"),
        (("--claim", "thm4", "--pairs", "3x5x7"), "pairs=3x5x7: expected n1xn2"),
        (("--claim", "prop1", "--n", "a"), "n=a: expected an integer or a lo..hi range"),
        (("--claim", "prop1", "--n", "2..1"), "n=2..1: empty range, write lo..hi with lo <= hi"),
    ],
)
def test_cli_malformed_grid_item_names_key_and_item(capsys, argv, message):
    code, out, err = run_cli(capsys, "--cmd", "verify", *argv)
    assert code == 2 and out == ""
    assert message in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--claim", "cor1", "--n", "3,3"), "n=3: repeated grid value"),
        (("--claim", "cor1", "--n", "3..5,4"), "n=4: repeated grid value"),
        (("--claim", "prop1", "--fields", "GF2,GF2", "--n", "2"),
         "fields=GF2: repeated grid value"),
        (("--claim", "thm2", "--pairs", "2x2,2x2"), "pairs=2x2: repeated grid value"),
    ],
)
def test_cli_refuses_repeated_grid_values(capsys, argv, message):
    code, out, err = run_cli(capsys, "--cmd", "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--cmd", "witt", "--algebra", "Mat(3_0)"), "'Mat(3_0)': the degree must be an integer"),
        (("--cmd", "witt", "--algebra", "Mat(+3)"), "'Mat(+3)': the degree must be an integer"),
        (("--cmd", "witt", "--algebra", "Mat(٣)"), "the degree must be an integer"),
        (("--cmd", "verify", "--claim", "cor1", "--n", "1_1"), "n=1_1: expected an integer"),
        (("--cmd", "verify", "--claim", "cor1", "--n", "3..+5"), "n=3..+5: expected an integer"),
        (("--cmd", "verify", "--claim", "thm2", "--pairs", "2x1_1"), "pairs=2x1_1: expected n1xn2"),
        (("--cmd", "verify", "--claim", "cor1", "--seed", "1_0"), "seed=1_0: expected an integer"),
        (("--cmd", "verify", "--claim", "cor1", "--seed", "３"), "expected an integer"),
    ],
)
def test_cli_integer_atoms_take_ascii_digits_only(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "invalid literal" not in err
    with pytest.raises(cli.ParseError, match="seed=1_0"):
        cli.parse_spec("cmd=verify seed=1_0")


def test_cli_malformed_seed_and_algebra_degree_name_the_key_or_atom(capsys, tmp_path):
    spec = tmp_path / "job.spec"
    spec.write_text("cmd=verify\nclaim=cor1\nseed=abc\n")
    cases = [
        (("--spec", str(spec)), "seed=abc: expected an integer"),
        (("--cmd", "witt", "--algebra", "Mat(x)"), "'Mat(x)': the degree must be an integer"),
        (("--cmd", "witt", "--algebra", "Tensor(Mat(2),Mat(x))"), "'Mat(x)'"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "invalid literal" not in err
    with pytest.raises(cli.ParseError, match="seed=abc"):
        cli.parse_spec("cmd=verify seed=abc")


def test_cli_verify_checks_pairs_and_fields_before_building(capsys, monkeypatch):
    built = []
    for name in ("tensor_product", "matrix_algebra"):
        real = getattr(csa, name)
        monkeypatch.setattr(csa, name, lambda *a, real=real: built.append(a) or real(*a))
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "thm2", "--pairs", "5x7,1x3")
    assert code == 2 and out == ""
    assert "pairs=1x3: thm2 admits n1, n2 >= 2" in err
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "prop1", "--fields", "GF2,GF16")
    assert code == 2 and out == ""
    assert "fields=GF16: unknown field shorthand 'GF16'" in err
    assert built == []


def test_cli_verify_timings_on_every_row_and_only_when_asked(capsys):
    for timings in ((), ("--timings",)):
        code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "all", *timings)
        assert code == 0, err
        doc = json.loads(out)
        if timings:
            assert all(isinstance(r["ms"], float) and r["ms"] >= 0 for r in doc)
        else:
            assert all("ms" not in r for r in doc)


def test_cli_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "--cmd", "form", "--field", "GF2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "--field", "nonsense", "--cmd", "form", "--algebra", "Mat(2)")
    assert code == 2


def test_cli_reducible_extension_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "--field", 'extend(GF2,"a^2+a")',
        "--algebra", "Mat(2)",
        "--cmd", "form",
    )
    assert code == 2 and "reducible" in err


def test_cli_max_degree_cap(capsys):
    code, _, err = run_cli(
        capsys,
        "--field", "GF2",
        "--algebra", "Tensor(Mat(6),Mat(6))",
        "--cmd", "form",
        "--max-degree", "35",
    )
    assert code == 2 and "exceeds" in err


def test_cli_determinism(capsys):
    args = ["--cmd", "verify", "--claim", "cor1", "--n", "3,5", "--seed", "0"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--cmd", "verify", "--claim", "prop1", "--n", "2", "--fields", "GF2", "--timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert "ms" in doc[0]


def test_cli_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "--cmd", "verify", "--claim", "prop1", "--n", "2", "--fields", "GF2",
        "--format", "table",
    )
    assert code == 0
    assert out.startswith("pass")


def test_cli_spec_file(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text('cmd=witt\nfield=GF2\nform=[1,0]\n')
    code, out, _ = run_cli(capsys, "--spec", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["planes"] == 1 and doc["arf"] == "0"


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--cmd", "verify", "--claim", "remark2", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc[0]["verdict"] == "pass"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_unreadable_spec_file_exits_2(tmp_path, capsys, where):
    path = tmp_path / "no-such.spec" if where == "missing" else tmp_path
    code, out, err = run_cli(capsys, "--spec", str(path))
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    assert code == 2 and out == ""
    assert err == f"error: cannot read spec file {path}: {reason}\n"


@pytest.mark.parametrize("where", ["missing-dir", "full-device"])
def test_cli_unwritable_out_file_exits_2(tmp_path, capsys, where):
    if where == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full device")
    path = tmp_path / "no-such-dir" / "x.json" if where == "missing-dir" else "/dev/full"
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "remark2", "--out", str(path))
    reason = "No such file or directory" if where == "missing-dir" else "No space left on device"
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: {reason}\n"


def test_cli_rejects_negative_plane_count(capsys):
    code, out, err = run_cli(capsys, "--field", "GF2", "--form", "[1,1]+-1*H", "--cmd", "witt")
    assert code == 2 and out == ""
    assert "'-1*H'" in err


def test_cli_rejects_unclosed_scale(capsys):
    code, out, err = run_cli(capsys, "--field", "GF2", "--form", "<1[1,1]", "--cmd", "witt")
    assert code == 2 and out == ""
    assert "'<1[1,1]'" in err


def test_cli_rejects_non_numeric_plane_count(capsys):
    code, out, err = run_cli(capsys, "--field", "GF2", "--form", "x*H", "--cmd", "witt")
    assert code == 2 and out == ""
    assert "'x*H'" in err


@pytest.mark.parametrize(
    "literal, atom, offset",
    [
        ("[1,1]+-1*H", "'-1*H'", 6),
        ("H + <1[1,1]", "'<1[1,1]'", 4),
        ("[1,0] +  x*H", "'x*H'", 9),
        ("H+H+Q", "'Q'", 4),
        ("H++H", "''", 2),
    ],
)
def test_cli_bad_form_literal_names_the_character_offset(capsys, literal, atom, offset):
    code, out, err = run_cli(capsys, "--field", "GF2", "--form", literal, "--cmd", "witt")
    assert code == 2 and out == ""
    assert f"bad form literal {atom} at character {offset}" in err
    assert literal[offset:].startswith(atom.strip("'"))


@pytest.mark.parametrize(
    "flag, spec, message, offset",
    [
        ("--field", 'extend(GF2,"a^2+a+1', "bad field spec 'extend(GF2,\"a^2+a+1'", 0),
        ("--field", 'extend( GF3,"a^2+a+1")', "bad field spec 'GF3'", 8),
        ("--field", "extend(GF2,a^2+a+1)", "defining polynomial 'a^2+a+1'", 11),
        ("--algebra", "Tensor(Mat(2),Mat(2)", "bad algebra spec 'Mat(2'", 14),
        ("--algebra", "Tensor(Mat(2), Mat(x))", "got 'x'", 19),
        ("--algebra", 'Crossed(ext="b^2+b+1", foo=1)', "bad Crossed argument 'foo=1'", 23),
        ("--algebra", 'Crossed(ext="b^2+b+1",table= [[1,1],1])', "cocycle table row '1'", 36),
    ],
)
def test_cli_bad_field_or_algebra_names_the_character_offset(capsys, flag, spec, message, offset):
    code, out, err = run_cli(capsys, flag, spec, "--cmd", "witt")
    assert code == 2 and out == ""
    assert message in err and f"at character {offset}" in err
    atom = message.split("'")[1].replace('\\"', '"')
    assert spec[offset:].startswith(atom)


@pytest.mark.parametrize(
    "flag, spec, message, offset, atom",
    [
        ("--algebra", "Quat(1,zz)", "unknown generator 'zz'", 7, "zz"),
        ("--algebra", "Quat( zz ,1)", "unknown generator 'zz'", 6, "zz"),
        ("--field", 'extend(GF2,"a^2+q+1")', "two unknown names 'a' and 'q'", 12, "a^2+q+1"),
        ("--algebra", 'Crossed(ext = "b^2+b+zz")', "two unknown names 'b' and 'zz'", 15, "b^2"),
        ("--algebra", 'Crossed(ext="b^2+b+1",table=[[1,1],[1, zz]])', "unknown generator 'zz'", 39, "zz"),
        ("--form", "[1,1] + <1>[1, zz]", "unknown generator 'zz'", 15, "zz"),
        ("--form", "[1,1] + < zz >[1,1]", "unknown generator 'zz'", 10, "zz"),
    ],
)
def test_cli_element_parse_errors_name_the_character_offset(capsys, flag, spec, message, offset, atom):
    # an element or polynomial inside a spec that does not parse names the
    # offset of the text it came from
    code, out, err = run_cli(capsys, flag, spec, "--cmd", "witt")
    assert code == 2 and out == ""
    assert f"error: {message} at character {offset}\n" == err
    assert spec[offset:].startswith(atom)


@pytest.mark.parametrize("seed", [-1, -2, 2**61 - 1, 10**20])
def test_cli_verify_takes_any_integer_seed(capsys, seed):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "cor1", "--n", "3", "--seed", str(seed))
    assert code == 0 and err == ""
    assert json.loads(out)[0]["verdict"] == "pass"


def test_cli_rejects_fields_for_fixed_field_claims(capsys):
    for claim in ("remark2", "thm2", "cor3", "cor4", "thm4"):
        code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", claim, "--fields", "GF4")
        assert code == 2 and out == "", claim
        assert "fields=GF4" in err and claim in err


@pytest.mark.parametrize("seed", range(16))
def test_cli_verify_all_matches_reference_digest(capsys, seed):
    # the claim-set output must stay byte-identical across refactors
    expected = json.loads(REFERENCE.read_text())["sha256"][str(seed)]
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--seed", str(seed))
    assert code == 0
    text = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_benchmark_selftest_passes():
    # the benchmark harness wraps and reads package names (linalg.solve_gf2,
    # rational.wp_member, quadform._split_cache, ...); a rename fails here
    selftest = REFERENCE.parent / "selftest.py"
    proc = subprocess.run(
        [sys.executable, str(selftest)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "argv, key, cmd",
    [
        (("--cmd", "witt", "--form", "H", "--algebra", "Mat(3)"), "algebra=Mat(3)", "witt"),
        (("--cmd", "verify", "--claim", "remark2", "--form", "H"), "form=H", "verify"),
        (("--cmd", "witt", "--form", "H", "--ext", "x^3+x+1"), "ext=x^3+x+1", "witt"),
        (("--cmd", "form", "--algebra", "Mat(3)", "--ext", "x^3+x+1"), "ext=x^3+x+1", "form"),
        (("--cmd", "invariants", "--algebra", "Mat(2)", "--n", "3"), "n=3", "invariants"),
        (("--cmd", "galois-check", "--ext", "x^3+x+1", "--seed", "4"), "seed=4", "galois-check"),
    ],
)
def test_cli_refuses_keys_the_command_does_not_read(capsys, argv, key, cmd):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert key in err and cmd in err


def test_cli_verify_rejects_field_other_than_gf2(capsys):
    # over GF(4) cor4 at n=2 has Arf class 0; the GF(2) answer "1" must not
    # come back under a field the claim never reads
    code, out, err = run_cli(
        capsys, "--field", 'extend(GF2,"a^2+a+1")', "--cmd", "verify", "--claim", "cor4", "--n", "2"
    )
    assert code == 2 and out == ""
    assert 'field=extend(GF2,"a^2+a+1")' in err and "cor4" in err and "fields=" in err


def test_cli_rejects_n_for_claims_without_degree_grid(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "remark2", "--n", "5")
    assert code == 2 and out == ""
    assert "n=5" in err and "remark2" in err


def test_cli_rejects_pairs_for_claims_without_pair_grid(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "cor1", "--pairs", "3x5")
    assert code == 2 and out == ""
    assert "pairs=3x5" in err and "cor1" in err


def _degree_reports(doc):
    return {(r["claim"], r["params"]["n"]) for r in doc if "n" in r["params"]}


def test_cli_verify_all_n5_runs_the_claims_admitting_5(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--n", "5")
    assert code == 0, err
    got = _degree_reports(json.loads(out))
    assert got == {(c, 5) for c in ("prop1", "thm1", "cor1", "cor2", "cor3", "cor4", "remark3")}


def test_cli_verify_all_n4_5_splits_by_degree_rule(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--n", "4,5")
    assert code == 0, err
    got = _degree_reports(json.loads(out))
    assert {n for c, n in got if c == "cor1"} == {5}
    assert {n for c, n in got if c == "thm3"} == {4}
    assert {n for c, n in got if c == "cor3"} == {4, 5}
    assert got == {
        (c, n)
        for c, claim in theorems.CLAIMS.items() if claim.rule
        for n in (4, 5) if theorems.admits_degree(c, n)
    }


def test_cli_verify_rejects_degrees_no_claim_admits(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--n", "1")
    assert code == 2 and out == ""
    assert "n=1" in err and "cor1 admits odd n >= 3" in err and "thm3 admits even n >= 2" in err
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "cor1", "--n", "3,4")
    assert code == 2 and out == ""
    assert "n=4: cor1 admits odd n >= 3" in err
    # n=0 is rejected before any runner starts (its field search never ends)
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "thm1", "--n", "0")
    assert code == 2 and "n=0: thm1 admits n >= 2" in err


def test_cli_verify_cor3_takes_odd_degrees(capsys):
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "cor3", "--n", "3")
    assert code == 0, err
    assert _degree_reports(json.loads(out)) == {("cor3", 3)}


# each of these named a degree far above the default cap of 35 and ran for
# tens of seconds or built a huge form; now the cap refuses it at once
_DEG40 = "+".join(f"b^{k}*b^{k}" for k in range(20, 0, -1)) + "+1"
_OVER_DEFAULT_CAP = {
    "crossed_ext_written_with_products": (
        "--cmd", "witt", "--algebra", f'Crossed(ext="{_DEG40}")'),
    "galois_ext": ("--cmd", "galois-check", "--ext", "x^1001+x+1"),
    "field_tower": (
        "--cmd", "form", "--field", 'extend(GF2,"a^1001+a^17+1")', "--form", "[a,1]"),
    "verify_degree": ("--cmd", "verify", "--claim", "cor1", "--n", "41"),
    "hyperbolic_planes": ("--cmd", "witt", "--form", "30000*H"),
    "verify_range": ("--cmd", "verify", "--claim", "prop1", "--n", "2..1000000000"),
    "thm4_pair": ("--cmd", "verify", "--claim", "thm4", "--pairs", "7x9"),
    "cor4_tensor_square": ("--cmd", "verify", "--claim", "cor4", "--n", "6"),
}


@pytest.mark.parametrize("case", sorted(_OVER_DEFAULT_CAP))
def test_cli_default_cap_refuses_at_once(capsys, case):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *_OVER_DEFAULT_CAP[case])
    assert time.perf_counter() - t0 < 2
    assert code == 2 and out == ""
    assert "exceeds --max-degree 35" in err


def test_cli_cap_reads_the_parsed_ext_degree(capsys):
    # b^2*b^3 is the degree-5 polynomial b^5; the cap sees the same degree
    for ext in ("b^5+b^2+1", "b^2*b^3+b^2+1"):
        algebra = f'Crossed(ext="{ext}")'
        code, _, err = run_cli(capsys, "--cmd", "witt", "--algebra", algebra, "--max-degree", "4")
        assert code == 2 and "algebra degree 5 exceeds --max-degree 4" in err, ext
        code, out, err = run_cli(capsys, "--cmd", "witt", "--algebra", algebra, "--max-degree", "5")
        assert code == 0, err
        assert json.loads(out)["planes"] == 12


def test_cli_cap_on_default_grids_and_under_all(capsys):
    # a claim's own default grid counts too: thm4's includes 5x7
    code, _, err = run_cli(capsys, "--cmd", "verify", "--claim", "thm4", "--max-degree", "12")
    assert code == 2 and "thm4 builds degree 35, which exceeds --max-degree 12" in err
    # under all, cor4 drops n=6 (its tensor square has degree 36) and the
    # other claims admitting 6 still run
    code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--n", "6")
    assert code == 0, err
    got = _degree_reports(json.loads(out))
    assert ("cor4", 6) not in got and {("prop1", 6), ("cor3", 6), ("thm3", 6)} <= got


def test_cli_invariants_over_a_level_above_the_norm_search(capsys):
    # the Artin-Schreier extension of GF(2^7) has 2^14 elements, beyond the
    # norm search; splitting over a finite level needs no search
    code, out, err = run_cli(
        capsys, "--field", 'extend(GF2,"a^7+a+1")', "--algebra", "Mat(4)", "--cmd", "invariants"
    )
    assert code == 0, err
    assert json.loads(out)["clifford"] == {"symbols": [], "trivial": True}
