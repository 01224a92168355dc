"""One benchmark round in a fresh interpreter, so that peak memory is per round.

    python3 -m phi4bench.worker WORKLOAD SEED TRACE SETUPS OUT_DIR

Times one call of ``phi4lab.cli.main`` (traced when TRACE is 1) and SETUPS
set-ups of the workload's model, half before and half after that call.  Checks
the report against the golden and prints one JSON object as the last line of
standard output.  The CLI's own output goes to ``OUT_DIR/console.txt``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from . import goldens
from .spans import Tracer, counts, summarize
from .workloads import WORKLOADS


def time_setup(config: Path) -> float:
    """Seconds to parse the config, build the model and H, and apply HI once."""
    from phi4lab.config import build_model, parse_config
    from phi4lab.hamiltonian import HamiltonianSet

    start = time.perf_counter()
    params = parse_config(config)
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    ham.hi(basis.vacuum())
    return time.perf_counter() - start


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def call_cli(name: str, seed: int, out_dir: Path, tracer: Tracer | None = None):
    """Run the workload once through phi4lab.cli.main: (exit code, wall s, error)."""
    from phi4lab import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    argv = WORKLOADS[name].argv(out_dir, seed)
    code, error = None, None
    with open(out_dir / "console.txt", "w") as console:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer:
                        code = cli.main(argv)
            except Exception:  # a crash of phi4lab is a failed round, not a benchmark error
                error = traceback.format_exc()
            wall_s = time.perf_counter() - start
    return code, wall_s, error


def run_round(name: str, seed: int, trace: bool, setups: int, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    # half the set-ups before the CLI call and half after: the machine's speed
    # drifts over seconds, and two blocks sample it at two moments per round
    setup_s = [time_setup(workload.config) for _ in range(setups // 2)]
    tracer = Tracer() if trace else None
    code, wall_s, error = call_cli(name, seed, out_dir, tracer)
    setup_s += [time_setup(workload.config) for _ in range(setups - setups // 2)]
    peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    observed = goldens.extract(workload, code, out_dir)
    misses = goldens.compare(workload, observed, goldens.load()["workloads"][name])
    if error is not None:
        misses.append(error)
    result = {
        "traced": trace,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_mem_mb": peak_mem_mb,
        "observed": observed,
        "misses": misses,
        "versions": versions(),
    }
    if tracer is not None:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
        result["stats"] = summarize(tracer.spans)
        result["counts"] = counts(result["stats"])
    return result


def main(argv: list[str]) -> None:
    name, seed, trace, setups, out_dir = argv
    result = run_round(name, int(seed), trace == "1", int(setups), Path(out_dir))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
