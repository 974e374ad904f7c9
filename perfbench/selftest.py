"""Self-test of the benchmark's span recorder and checks.

    python3 perfbench/selftest.py

Every traced run also compares its traced and untraced outputs and
checks span nesting and self times; this file tests the same properties
on small inputs, plus the consistency of BENCHMARK.json with
``layers.json``, the independent irreducibility check, the scaling to
the reference speed and field-tower's seed-independent failure count.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from t2forms import cli, csa, fields, quadform  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _toy_module():
    """Two functions where the outer one calls the inner through the
    namespace, as the t2forms modules call each other."""
    ns = types.SimpleNamespace()

    def inner(x):
        _busy(0.002)
        return x + 1

    def outer(x):
        _busy(0.002)
        return ns.inner(x) * 2

    def broken():
        raise ValueError("boom")

    ns.inner, ns.outer, ns.broken = inner, outer, broken
    return ns


class RecorderTest(unittest.TestCase):
    def test_spans_nest_and_self_times_sum_to_wall(self):
        ns = _toy_module()
        rec = spans.Recorder()
        rec.wrap(ns, "inner", "toy.inner")
        rec.wrap(ns, "outer", "toy.outer")
        t0 = time.perf_counter()
        with rec.span("toy.batch"):
            results = [ns.outer(i) for i in range(3)]
        wall = time.perf_counter() - t0
        self.assertEqual(results, [2, 4, 6])
        self.assertEqual(rec.nesting_errors(), [])
        agg = rec.aggregate()
        self.assertEqual(agg["toy.inner"]["calls"], 3)
        self.assertEqual(agg["toy.outer"]["calls"], 3)
        # inner spans sit inside outer spans, which sit inside the batch
        by_idx = rec.spans
        for name, _, _, parent in by_idx:
            if name == "toy.inner":
                self.assertEqual(by_idx[parent][0], "toy.outer")
        outer = agg["toy.outer"]
        self.assertAlmostEqual(outer["self_s"] + agg["toy.inner"]["total_s"], outer["total_s"], places=9)
        self.assertLessEqual(sum(a["self_s"] for a in agg.values()), wall)

    def test_unwrap_restores_attributes(self):
        ns = _toy_module()
        before = (ns.inner, ns.outer)
        rec = spans.Recorder()
        rec.wrap(ns, "inner", "toy.inner")
        rec.wrap(ns, "outer", "toy.outer")
        self.assertIsNot(ns.inner, before[0])
        rec.unwrap_all()
        self.assertEqual((ns.inner, ns.outer), before)

    def test_exception_closes_span(self):
        ns = _toy_module()
        rec = spans.Recorder()
        rec.wrap(ns, "broken", "toy.broken")
        with self.assertRaises(ValueError):
            ns.broken()
        self.assertEqual(rec.nesting_errors(), [])
        self.assertEqual(rec.aggregate()["toy.broken"]["calls"], 1)

    def test_nesting_errors_catch_an_escaping_child(self):
        rec = spans.Recorder()
        rec.spans = [["a", 0.0, 1.0, -1], ["b", 0.5, 1.5, 0]]
        self.assertTrue(rec.nesting_errors())

    def test_install_then_unwrap_restores_t2forms(self):
        targets = [(fields.Level, "extend"), (fields, "poly_factor_witness"),
                   (csa, "t2_form"), (quadform, "block_decompose"), (cli, "execute")]
        before = [getattr(o, a) for o, a in targets]
        rec = spans.Recorder()
        spans.install(rec)
        self.assertTrue(all(getattr(o, a) is not b for (o, a), b in zip(targets, before)))
        rec.unwrap_all()
        self.assertEqual([getattr(o, a) for o, a in targets], before)


class WrappedOutputsTest(unittest.TestCase):
    """Wrapped and unwrapped calls give identical outputs, and inner
    calls are seen through module globals."""

    def _outputs(self):
        env = workloads.setup()
        rows = []
        for name, n in (("GF2", 3), ("GF4", 3), ("GF2", 4)):
            q = csa.second_trace_form(csa.matrix_algebra(env[name], n))
            rows.append([name, n, repr(quadform.witt_class(q))])
        job = cli.parse_spec("cmd=verify claim=remark2 seed=0")
        rows.append(cli.execute(job)[0])
        return rows

    def test_wrapped_equals_unwrapped(self):
        plain = self._outputs()
        rec = spans.Recorder()
        spans.install(rec)
        try:
            wrapped = self._outputs()
        finally:
            rec.unwrap_all()
        self.assertEqual(plain, wrapped)
        self.assertEqual(rec.nesting_errors(), [])
        agg = rec.aggregate()
        for name in ("csa.t2_form", "csa.trace_zero_subspace", "quadform.restricted",
                     "quadform.block_decompose.gf2", "quadform.block_decompose.ext",
                     "cli.execute", "fields.extend", "fields.poly_factor_witness"):
            self.assertIn(name, agg)
        parents = {rec.spans[p][0] for n, _, _, p in rec.spans if n == "csa.t2_form"}
        self.assertEqual(parents, {"csa.second_trace_form"})


class FieldTowerTest(unittest.TestCase):
    """field-tower on smaller inputs: rows replay, and every seed fails
    the same number of operations."""

    SMALLER = {"CROSSED_GF2": (3, 5), "IRREDUCIBLE_DEGREES": range(16, 18),
               "IRREDUCIBLE_PER_DEGREE": 1, "LARGE_FORMS": 8, "CUBICS": 8,
               "ARITH_BATCH": {"mul": 10, "inv": 5, "trace": 10, "artin_schreier": 5}}

    def _rows(self, seed):
        saved = {k: getattr(workloads, k) for k in self.SMALLER}
        for k, v in self.SMALLER.items():
            setattr(workloads, k, v)
        try:
            return json.loads(json.dumps(
                workloads.run_field_tower(workloads.setup(), spans.NullRecorder(), seed)))
        finally:
            for k, v in saved.items():
                setattr(workloads, k, v)

    def test_failures_do_not_depend_on_the_seed(self):
        env = workloads.setup()
        for seed in (1, 2):
            attempted, failed, wrong, problems = workloads.check_field_tower(env, self._rows(seed), seed)
            self.assertEqual((failed, wrong, problems), (self.SMALLER["LARGE_FORMS"] // 2, 0, []))

    def test_rows_replay_from_their_json(self):
        rows = self._rows(5)
        self.assertEqual({r["op"] for r in rows},
                         {"crossed_product", "find_irreducible", "arith", "binary_form_witt", "cubic"})
        for row in rows:
            self.assertEqual(workloads.replay(row), row)


class SpeedTest(unittest.TestCase):
    def test_reference_speed_scaling(self):
        ref = speed.REF_LOOP_S
        # at the reference speed only the loops' own time is taken off
        self.assertAlmostEqual(speed.at_ref_speed(1.0, [ref] * 4), 1.0 - 4 * ref)
        # at half the speed the same work counts half as long
        self.assertAlmostEqual(speed.at_ref_speed(1.0, [2 * ref] * 4), (1.0 - 8 * ref) / 2)

    def test_sampler_samples_while_started(self):
        sampler = speed.Sampler(0.01)
        sampler.start()
        _busy(0.1)
        sampler.stop()
        self.assertGreaterEqual(len(sampler.loops), 5)
        count = len(sampler.loops)
        _busy(0.03)
        self.assertEqual(len(sampler.loops), count)


class ConsistencyTest(unittest.TestCase):
    def test_benchmark_json_matches_layers_and_runner(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layers = [{k: m[k] for k in ("name", "unit", "better")} for m in run.layer_metrics()]
        self.assertEqual(bench["per_layer"], layers)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))

    def test_rabin_agrees_with_exhaustive_division(self):
        for F, top in ((fields.GF2, 9), (fields.GF2.extend("a^2+a+1"), 5)):
            monic = {
                k: [tuple(low) + (1,) for low in itertools.product(range(F.order), repeat=k)]
                for k in range(1, top // 2 + 1)
            }
            for d in range(2, top):
                for low in itertools.product(range(F.order), repeat=d):
                    p = tuple(low) + (1,)
                    has_factor = any(
                        not fields.poly_divmod(F, p, g)[1]
                        for k in range(1, d // 2 + 1) for g in monic[k]
                    )
                    self.assertEqual(workloads.rabin_irreducible(F, p), not has_factor, (F, p))


if __name__ == "__main__":
    unittest.main()
