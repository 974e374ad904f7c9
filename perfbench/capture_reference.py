"""Capture the reference output that the verify-all workload must match.

Runs ``t2forms --cmd verify --claim all --seed S`` for each seed in
``range(COUNT)`` and writes the sha256 of its standard output to
``perfbench/verify_all_reference.json``.  The benchmark maps its own
seed to one of these (seed mod COUNT) and requires the merged per-claim
reports to be byte-identical to the captured output.

Run it only on a commit whose verify output is known to be right:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

COUNT = 16
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    for seed in range(COUNT):
        out = subprocess.run(
            [sys.executable, "-m", "t2forms.cli", "--cmd", "verify", "--claim", "all",
             "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, check=True, timeout=600,
        ).stdout
        digests[str(seed)] = hashlib.sha256(out).hexdigest()
        print(f"seed {seed}: {digests[str(seed)]}", file=sys.stderr)
    doc = {
        "command": "t2forms --cmd verify --claim all --seed S",
        "sha256": digests,
    }
    (HERE / "verify_all_reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
