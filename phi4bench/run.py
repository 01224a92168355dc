"""phi4lab benchmark: one CLI workload, one client in a closed loop.

    python3 phi4bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round is a fresh interpreter
(``phi4bench.worker``) that calls ``phi4lab.cli.main`` once with ``--seed N``;
the next round starts when the previous one has returned.  Rounds repeat
while the next one is expected to end within S seconds, and at least twice,
so that two same-seed outputs can be compared.  Every round's output is
checked against ``goldens.json`` and against the first round.

With ``--trace 0`` the rounds are untraced and give the end-to-end metrics.
With ``--trace 1`` traced and untraced rounds alternate (at least three) and
give the per-layer metrics and the tracing overhead.  Summary lines start with
``#``; the last line of standard output is the JSON result.  The exit code is
1, with no result, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from phi4bench import goldens, spans  # noqa: E402
from phi4bench.workloads import ROOT, SRC, WORKLOADS  # noqa: E402

OUT = ROOT / ".phi4bench_out"
SETUPS_PER_ROUND = 10
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread: the vectors are short, and a second OpenBLAS thread made the
# reference sweep about 40% slower on a 2-core machine.
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def run_worker(name: str, seed: int, traced: bool, setups: int, out_dir: Path, timeout: float) -> dict:
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath, **{var: str(THREAD_CAP) for var in THREAD_VARS})
    cmd = [sys.executable, "-m", "phi4bench.worker", name, str(seed), str(int(traced)), str(setups), str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    min_rounds = 3 if trace else 2
    setups = 0 if trace else SETUPS_PER_ROUND
    rounds: list[dict] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(rounds) % 2 == 0
        out_dir = base / f"seed{seed}-round{len(rounds)}"
        rounds.append(run_worker(name, seed, traced, setups, out_dir, DEADLINE_S - (began - start)))
        longest = max(longest, time.perf_counter() - began)
        if len(rounds) >= min_rounds and time.perf_counter() - start + longest > seconds:
            return rounds


def failures(rounds: list[dict]) -> list[list[str]]:
    """Misses of each round: golden misses, and any difference from the first
    round's output or the first traced round's counts (same seed)."""
    first = rounds[0]["observed"]
    first_counts = next((r["counts"] for r in rounds if r["traced"]), None)
    result = []
    for r in rounds:
        misses = list(r["misses"])
        if r["observed"] != first:
            misses.append("output differs from the first round with the same seed")
        if r["traced"] and r["counts"] != first_counts:
            misses.append("call or matvec counts differ from the first traced round")
        result.append(misses)
    return result


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, int]]:
    samples = {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [s for r in rounds for s in r["setup_s"]],
        "peak_mem_mb": [r["peak_mem_mb"] for r in rounds],
    }
    return {k: (statistics.median(v), len(v)) for k, v in samples.items()}


def per_layer(rounds: list[dict]) -> dict[str, tuple[float, int]]:
    traced = [r for r in rounds if r["traced"]]
    untraced_wall = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced_wall = statistics.median(r["stats"]["cli.main"]["s"] for r in traced)
    overhead = traced_wall / untraced_wall - 1.0
    values = [spans.layer_metrics(r["stats"], overhead) for r in traced]
    # counts must repeat exactly (failures() checks it), so the first round's stand for all
    return {
        m: (values[0][m] if spans.metric_unit(m) == "count" else statistics.median(v[m] for v in values), len(values))
        for m in spans.LAYER_METRICS
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if not (SRC / "phi4lab" / "cli.py").is_file():
            raise BenchError(f"no phi4lab sources under {SRC}")
        if not goldens.GOLDENS.is_file():
            raise BenchError(f"missing {goldens.GOLDENS}")
        golden_doc = goldens.load()
        rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    env = {
        "thread_cap": THREAD_CAP,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        **rounds[0]["versions"],
        "commit": commit(),
        "goldens_from": golden_doc["generated_from"],
    }
    print("# env " + json.dumps(env))
    misses = failures(rounds)
    for i, m in enumerate(misses):
        if m:
            print(f"# round {i} failed: " + "; ".join(m))
    failed = sum(1 for m in misses if m)
    if args.trace:
        metrics = per_layer(rounds)
        units = {m: spans.metric_unit(m) for m in metrics}
        recorded = golden_doc["counts"][args.workload].get(str(args.seed))
        if recorded is not None:
            same = recorded == next(r["counts"] for r in rounds if r["traced"])
            print(f"# counts {'match' if same else 'differ from'} those recorded for seed {args.seed}")
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END
    if not args.trace:
        print("# wall_s of each round: " + " ".join(f"{r['wall_s']:.4f}" for r in rounds))
    for name, (value, n) in metrics.items():
        samples = f"same in all {n} traced rounds" if units[name] == "count" else f"median of {n}"
        print(f"# {args.workload} {name} = {value:.6g} {units[name]} ({samples})")
    print(f"# {args.workload} failed_frac = {failed / len(rounds):.6g} ({failed} of {len(rounds)} rounds)")
    result = {
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
