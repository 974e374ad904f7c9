"""t2forms benchmark: end-to-end and per-layer metrics, cold caches.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every measured pass runs in a fresh interpreter (``worker.py``), so the
program's caches start cold; the worker asserts that before timing.  A
run repeats passes for ``--seconds`` and reports medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (one pass after set-up, median over the run's passes),
``setup_s`` (interpreter start to the first workload operation, median
over every process the run started) and ``peak_rss_mb`` (``ru_maxrss`` of
the pass process).  Both times are seconds at the reference speed of
``speed.py``, which samples the host's speed while they run: on a shared
host raw times of the same code drift by tens of percent from one minute
to the next.  The summary lines also give the raw medians.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``perfbench/layers.json``, from spans recorded around the package's
public functions (``spans.py``), plus ``trace_overhead_frac``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same figures for a reader, with ``failed_frac`` and ``wrong_outputs``.
``attempted`` and ``failed`` count the operations of one pass: every pass
of a run repeats the same operations and must give the same output.
The first pass's output rows go to ``.perfbench_out/`` so that any row
can be replayed from its own JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-all", "form-core", "field-tower")
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES_PER_PASS = 2
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class RunError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run one worker to completion; returns its result with setup_s."""
    started = time.monotonic()
    if started >= deadline:
        raise RunError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=deadline - started,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args} overran the time budget") from None
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["ready"] - started
    out["setup_s"] = speed.at_ref_speed(out["setup_raw_s"], out["setup_loops"])
    return out


def layer_metrics():
    return json.loads((HERE / "layers.json").read_text())["metrics"]


def layer_values(p):
    """Per-layer metric values of one traced pass (``run:`` ones excepted)."""
    values = {}
    for m in layer_metrics():
        kind, _, ref = m["from"].partition(":")
        if kind in ("self", "total", "calls"):
            span = p["spans"].get(ref)
            key = {"self": "self_s", "total": "total_s", "calls": "calls"}[kind]
            values[m["name"]] = span[key] if span else 0
        elif kind == "count":
            values[m["name"]] = p["counts"].get(ref, 0)
        elif kind == "ratio":
            num, den = (p["counts"].get(r, 0) for r in ref.split("/"))
            values[m["name"]] = num / den if den else 0.0
    return values


def run_workload(name, seed, seconds, trace):
    """All passes of one run; returns (result dict, summary lines)."""
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", name, "--seed", str(seed)]
    # first start compiles the bytecode, which users do not pay per call
    spawn(["--setup-only"], deadline)
    plain, traced, setups, rounds = [], [], [], []
    end = time.monotonic() + seconds
    # start another round only if it is expected to end within --seconds
    while not rounds or time.monotonic() + statistics.median(rounds) <= end:
        round_start = time.monotonic()
        first = not plain
        if trace:
            order = (0, 1) if len(plain) % 2 == 0 else (1, 0)
            for t in order:
                (traced if t else plain).append(spawn(base + ["--trace", str(t)], deadline))
        else:
            plain.append(spawn(base + ["--trace", "0"] + (["--rows"] if first else []), deadline))
            setups += [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES_PER_PASS)]
        if first and "rows" in plain[0]:
            write_rows(name, seed, plain[0].pop("rows"))
        rounds.append(time.monotonic() - round_start)
    passes = plain + traced
    setups += passes

    problems = [f"{name}: {msg}" for p in passes for msg in p["problems"]]
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"{name}: passes of one seed disagree ({len(digests)} distinct outputs"
                        + (", traced against untraced)" if trace else ")"))
    for p in traced:
        problems += [f"{name}: span nesting: {e}" for e in p["nesting_errors"]]
        self_sum = sum(s["self_s"] for s in p["spans"].values())
        if self_sum > p["wall_s"]:
            problems.append(f"{name}: span self times sum to {self_sum} s > wall {p['wall_s']} s")
    wrong = sum(p["wrong"] for p in passes) + (len(digests) - 1)
    attempted, failed = passes[0]["attempted"], passes[0]["failed"]

    own = [p["own_s"] for p in plain]
    lines = [f"{name}  seed {seed}  {len(plain)} untraced / {len(traced)} traced passes"]
    if trace:
        per_pass = [layer_values(p) for p in traced]
        twall = [p["wall_s"] for p in traced]
        metrics = {}
        for m in layer_metrics():
            if m["from"] == "run:trace_overhead_frac":
                value = statistics.median(twall) / statistics.median(own) - 1.0
            else:
                value = statistics.median(v[m["name"]] for v in per_pass)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines += [f"  {k:40s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        samples = {
            "wall_s": [p["ref_s"] for p in plain],
            "setup_s": [p["setup_s"] for p in setups],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        raw = {"wall_s": own, "setup_s": [p["setup_raw_s"] for p in setups]}
        metrics = {k: {"value": statistics.median(samples[k]), "unit": unit} for k, unit in END_TO_END}
        for k, unit in END_TO_END:
            lines.append(f"  {k:14s} {metrics[k]['value']:.4f} {unit}   median of {len(samples[k])}"
                         f" ({min(samples[k]):.4f} .. {max(samples[k]):.4f})"
                         + (f"; raw median {statistics.median(raw[k]):.4f} {unit}" if k in raw else ""))
    lines.append(f"  {'failed_frac':14s} {failed / attempted if attempted else 0.0:.4f}"
                 f"     {failed} failed / {attempted} attempted operations")
    lines.append(f"  {'wrong_outputs':14s} {wrong} count")
    lines += [f"  problem: {msg}" for msg in problems[:20]]
    result = {"correct": wrong == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def write_rows(name, seed, rows):
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}.rows.json").write_text(json.dumps(rows, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "t2forms" / "__init__.py").is_file():
        print(f"error: no t2forms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
