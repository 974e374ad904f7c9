"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1
    python3 perfbench/worker.py --setup-only

Prints one JSON object: the monotonic time at which set-up ended
(``ready``) and the host speed samples taken during set-up, and unless
``--setup-only`` the pass wall time, its own time without the speed
samples, its time at the reference speed of ``speed.py`` (untraced
passes), ``ru_maxrss``, the operation counts of the workload's check, a
digest of the output rows and, when traced, the span aggregates.
``run.py`` starts it; it is not meant to be run by hand except for
debugging.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# seconds between host speed samples: set-up lasts about 0.1 s, a pass seconds
SETUP_INTERVAL = 0.01
PASS_INTERVAL = 0.05


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--rows", action="store_true", help="include the output rows")
    args = parser.parse_args(argv)

    # -- set-up: import t2forms from this checkout and build the towers --
    if not (SRC / "t2forms" / "__init__.py").is_file():
        print(f"no t2forms sources under {SRC}", file=sys.stderr)
        return 2
    setup_speed = speed.Sampler(SETUP_INTERVAL)
    setup_speed.start()
    sys.path.insert(0, str(SRC))
    import workloads  # imports t2forms

    env = workloads.setup()
    setup_speed.stop()
    ready = time.monotonic()
    cold = workloads.cold_cache_problems()
    if cold:
        print("warm caches before the pass: " + "; ".join(cold), file=sys.stderr)
        return 3
    out = {"ready": ready, "setup_loops": setup_speed.loops}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    run, check = workloads.WORKLOADS[args.workload]
    import spans

    # Traced passes give self times, which the speed samples would skew;
    # they are compared with untraced ones by their own time.
    rec = spans.Recorder() if args.trace else spans.NullRecorder()
    pass_speed = speed.Sampler(PASS_INTERVAL)
    if args.trace:
        spans.install(rec)
    t0 = time.perf_counter()
    if not args.trace:
        pass_speed.start()
    rows = run(env, rec, args.seed)
    pass_speed.stop()
    wall = time.perf_counter() - t0
    if args.trace:
        rec.unwrap_all()

    attempted, failed, wrong, problems = check(env, rows, args.seed)
    out.update({
        "wall_s": wall,
        "own_s": wall - sum(pass_speed.loops),
        "ref_s": None if args.trace else speed.at_ref_speed(wall, pass_speed.loops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": problems[:20],
        "digest": workloads.digest(rows),
    })
    if args.trace:
        out["spans"] = rec.aggregate()
        out["counts"] = dict(rec.counts)
        out["nesting_errors"] = rec.nesting_errors()[:20]
    if args.rows:
        out["rows"] = rows
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
