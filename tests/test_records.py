"""The plain record classes: fields, defaults, equality, hashing and
immutability; and what importing the package loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import t2forms
from t2forms import cli, csa, theorems
from t2forms.fields import GF2
from t2forms.quadform import BrauerClass, WittClass


def _frozen_records(gf4):
    return [
        WittClass(gf4, 4, gf4.gen, 1),
        BrauerClass(gf4, ((gf4.gen, 1),), "[A]"),
        csa.ReducedCharPoly(2, (gf4.gen, 1, 1)),
    ]


def test_equal_records_are_equal_and_hash_alike(gf4):
    for a, b in zip(_frozen_records(gf4), _frozen_records(gf4)):
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
        assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    assert WittClass(GF2, 2, 1) != WittClass(GF2, 2, 0)
    assert WittClass(GF2, 2, 1) != (GF2, 2, 1, 0)
    assert {WittClass(GF2, 2, 1), WittClass(GF2, 2, 1, 0)} == {WittClass(GF2, 2, 1)}
    assert theorems.Claim(len, {"n": (3,)}, (3, 1)) == theorems.Claim(len, {"n": (3,)}, (3, 1))
    assert theorems.Claim(len) != theorems.Claim(len, degree=3)


def test_records_keep_positional_order_and_defaults():
    w = WittClass(GF2, 2, 1)
    assert (w.field, w.dim, w.arf, w.radical_dim) == (GF2, 2, 1, 0)
    job = cli.JobSpec("verify")
    assert (job.cmd, job.field_spec, job.algebra_spec, job.form_spec, job.ext, job.params, job.seed) == (
        "verify", "GF2", None, None, None, {}, 0)
    claim = theorems.Claim(len)
    assert (claim.rows, claim.defaults, claim.rule, claim.degree) == (len, {}, None, None)
    p = theorems.Prediction("thm2", {"n1": 3})
    assert (p.witt, p.arf, p.clifford, p.notes) == (None, None, None, ())
    r = theorems.VerificationReport("cor1", {"n": 3}, {}, {}, "pass", 1.5)
    assert r.to_json(include_ms=True)["ms"] == 1.5
    assert r == theorems.VerificationReport("cor1", {"n": 3}, {}, {}, "pass", 1.5)


def test_brauer_label_takes_no_part_in_equality(gf4):
    a = BrauerClass(gf4, ((gf4.gen, 1),), "first")
    b = BrauerClass(gf4, ((gf4.gen, 1),), "second")
    assert a == b and hash(a) == hash(b) and a.label != b.label
    assert BrauerClass.trivial(gf4, label="[A]^2") == BrauerClass.trivial(gf4)
    assert a != BrauerClass.trivial(gf4, "first")


def test_frozen_records_refuse_assignment_and_deletion(gf4):
    for rec in _frozen_records(gf4) + [theorems.CLAIMS["cor1"]]:
        name = type(rec).__slots__[0]
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert getattr(rec, name) is before


def test_mutable_records_are_unhashable():
    for rec in (
        cli.JobSpec("verify"),
        theorems.Prediction("thm2", {}),
        theorems.VerificationReport("cor1", {}, {}, {}, "pass", 0.0),
        theorems.CLAIMS["cor1"],  # frozen, but its defaults are a dict
    ):
        with pytest.raises(TypeError):
            hash(rec)
    job = cli.JobSpec("verify")
    job.seed = 3
    assert job == cli.JobSpec("verify", seed=3)


def test_default_dicts_are_never_shared():
    a, b = cli.JobSpec("verify"), cli.JobSpec("verify")
    a.params["n"] = "3"
    assert b.params == {} and a.params is not b.params
    c, d = theorems.Claim(len), theorems.Claim(len)
    c.defaults["n"] = (3,)
    assert d.defaults == {} and c.defaults is not d.defaults


# names that serve only the tests and live in tests/support.py
_TEST_ONLY = {
    "fields": [
        "poly_roots", "Level.from_coords_over", "Level.artin_schreier_extension", "_poly_square",
        "TupleRing",
    ],
    "linalg": ["kernel", "sparse_trace", "sparse_second_coefficient"],
    "rational": ["semilinear_solve_by_rows"],
    "theorems": ["cubic_root_by_horner"],
    "quadform": [
        "SearchSpaceTooLarge", "DimensionTooLarge", "is_nonsingular", "isotropic_split_oracle",
        "CliffordWords", "clifford_algebra", "arf_via_even_clifford_center",
    ],
    "csa": [
        "SplittingRep", "Algebra.rep", "_rep_values", "Algebra.element_from", "sanity_check_csa",
        "_center_rank", "_first_nonassociative_triple", "b_t2", "t1_of", "splitting_matrix",
        "Algebra.mul", "Algebra.add", "Algebra.scalar_mul", "Algebra.random_element",
        "rep_trace_products",
    ],
}

_LOADED = f"""
import functools, sys
before = set(sys.modules)
import t2forms, t2forms.cli
print(" ".join(sorted(set(sys.modules) - before)))
found = []
for mod, names in {_TEST_ONLY!r}.items():
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), sys.modules["t2forms." + mod])
        except AttributeError:
            continue
        found.append(mod + "." + name)
print(" ".join(found))
"""


def test_import_loads_no_dataclasses_inspect_or_string():
    # a fresh interpreter: what the package itself pulls in at import
    src = str(Path(t2forms.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules, test_only = proc.stdout.split("\n")[:2]
    loaded = set(modules.split())
    assert {"t2forms", "t2forms.cli", "t2forms.theorems"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "string"}
    # and none of the test-only names is left on its old module
    assert test_only.split() == []


def test_constructed_algebras_carry_no_representation(gf4):
    # every constructor passes closed-form diagonals and polar rows, and no
    # images
    for A in (
        csa.matrix_algebra(GF2, 2),
        csa.quaternion_algebra(gf4, gf4.one, gf4.gen),
        csa.crossed_product(gf4, GF2),
        csa.commutative_quotient(GF2, (1, 1, 1)),
        csa.extension_algebra(gf4, GF2),
    ):
        assert not hasattr(A, "rep") and A.diagonals is not None, A
        assert A.trace_rows is not None, A
