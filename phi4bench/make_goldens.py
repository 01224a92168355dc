"""Regenerate ``goldens.json`` from the phi4lab in ``src/``.

    PYTHONPATH=src python3 -m phi4bench.make_goldens

The goldens are each workload's checked output at seed 7.  The script then
traces every workload at seeds 7 and 11, records the counts of each seed (they
depend on the Lanczos start vector, so they are not gated), and fails unless
the seed-11 output also matches the goldens.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from . import goldens
from .spans import Tracer, counts, summarize
from .worker import call_cli
from .workloads import ROOT, WORKLOADS

GOLDEN_SEED = 7
SEEDS = (7, 11)


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {"generated_from": commit, "seed": GOLDEN_SEED, "workloads": {}, "counts": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            out = Path(tmp) / name
            code, _, error = call_cli(name, GOLDEN_SEED, out / "golden")
            if error is not None:
                print(error, file=sys.stderr)
                return 1
            golden = goldens.extract(workload, code, out / "golden")
            doc["workloads"][name] = golden
            doc["counts"][name] = {}
            for seed in SEEDS:
                tracer = Tracer()
                code, _, error = call_cli(name, seed, out / str(seed), tracer)
                misses = goldens.compare(workload, goldens.extract(workload, code, out / str(seed)), golden)
                if error is not None or misses:
                    print(f"{name} seed {seed}: {error or misses}", file=sys.stderr)
                    return 1
                doc["counts"][name][str(seed)] = counts(summarize(tracer.spans))
    goldens.GOLDENS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {goldens.GOLDENS} from {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
