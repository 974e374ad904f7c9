import hashlib
import json
from pathlib import Path

import pytest

from t2forms import cli, theorems

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


def test_cli_verify_pass_and_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1", "--n", "2..3", "--fields", "GF2")
    assert code == 0
    doc = json.loads(out)
    assert [r["verdict"] for r in doc] == ["pass", "pass"]
    assert all("ms" not in r for r in doc)

    def fake_runner(params, seed):
        rep = theorems.VerificationReport("prop1", {}, {}, {}, "fail", 1.0)
        return [rep]

    monkeypatch.setitem(theorems._RUNNERS, "prop1", fake_runner)
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1")
    assert code == 1


def test_cli_verify_empty_run(capsys):
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "prop1", "--n", "", "--fields", "GF2")
    assert code == 0
    assert json.loads(out) == []


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


def test_cli_rejects_fields_for_fixed_field_claims(capsys):
    for claim in ("remark2", "thm2", "cor3", "cor4", "thm4"):
        code, out, err = run_cli(capsys, "--cmd", "verify", "--claim", claim, "--fields", "GF4")
        assert code == 2 and out == "", claim
        assert "fields=GF4" in err and claim in err


def test_cli_verify_all_matches_reference_digest(capsys):
    # the claim-set output must stay byte-identical across refactors
    expected = json.loads(REFERENCE.read_text())["sha256"]["0"]
    code, out, _ = run_cli(capsys, "--cmd", "verify", "--claim", "all", "--seed", "0")
    assert code == 0
    text = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expected


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
