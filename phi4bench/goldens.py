"""Golden outputs of the workloads and the check of a round's outputs against them.

``extract`` reduces a round's report to the values that are checked; the same
reduction, made once at seed 7 by ``python3 -m phi4bench.make_goldens``, is
stored in ``goldens.json``.  ``compare`` lists every miss.  Values that depend
on the random Lanczos start vector, and so on the seed, are compared at
tolerances derived from the workload config's ``eig_tol`` and ``lin_tol``.
"""

from __future__ import annotations

import configparser
import json
import math
from pathlib import Path

from .workloads import HERE, Workload

GOLDENS = HERE / "goldens.json"

# The Ritz vector of a converged Lanczos run is off by about residual / gap, so
# quantities read off the vector (and the pull-through residual, which also
# carries the CG error at lin_tol) are compared at this multiple of the
# tolerances.  The gap of the deep-solve ground state is about 2.7.
VECTOR_SLACK = 100.0


def load() -> dict:
    return json.loads(GOLDENS.read_text())


def solver_tolerances(config: Path) -> tuple[float, float]:
    """(eig_tol, lin_tol) from the [solver] section of a workload config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(config)
    return parser.getfloat("solver", "eig_tol"), parser.getfloat("solver", "lin_tol")


def extract(workload: Workload, exit_code, out_dir: Path) -> dict:
    """The checked part of a round's output; equal dicts mean identical output."""
    observed = {"exit_code": exit_code}
    path = out_dir / workload.report
    if not path.exists():
        observed["error"] = f"{workload.report} was not written"
        return observed
    doc = json.loads(path.read_text())
    if workload.command == "solve":
        observed["e0"] = doc["ground_state"]["e0"]
        observed["residual"] = doc["ground_state"]["residual"]
    observed["checks"] = [[c["name"], c["status"], c["measured"]] for c in doc["checks"]]
    return observed


def _close(value: float, golden: float, atol: float, rtol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - golden) <= atol + rtol * abs(golden)


def _compare_checks(observed, golden, eig_tol, lin_tol) -> list[str]:
    names = [c[0] for c in observed["checks"]]
    if names != [c[0] for c in golden["checks"]]:
        return [f"checks {names} differ from the golden list"]
    misses = [f"{name}: {status}" for name, status, _ in observed["checks"] if status != "pass"]
    misses += [f"{name}: measured {m!r}" for name, _, m in observed["checks"] if not math.isfinite(m)]
    vector_tol = VECTOR_SLACK * (eig_tol + lin_tol)
    for (name, _, value), (_, _, ref) in zip(observed["checks"], golden["checks"]):
        if name.startswith("pull-through") and not _close(value, ref, vector_tol, vector_tol):
            misses.append(f"{name}: residual {value!r}, golden {ref!r}")
    return misses


def compare(workload: Workload, observed: dict, golden: dict) -> list[str]:
    """Every way a round's output misses its golden; empty when it matches."""
    misses = []
    if observed["exit_code"] != golden["exit_code"]:
        misses.append(f"exit code {observed['exit_code']}, expected {golden['exit_code']}")
    if "error" in observed:
        return misses + [observed["error"]]
    eig_tol, lin_tol = solver_tolerances(workload.config)
    if workload.command == "solve":
        if not _close(observed["e0"], golden["e0"], eig_tol):
            misses.append(f"e0 = {observed['e0']!r}, golden {golden['e0']!r}")
        if not (math.isfinite(observed["residual"]) and observed["residual"] <= eig_tol):
            misses.append(f"ground-state residual {observed['residual']!r} above eig_tol")
    return misses + _compare_checks(observed, golden, eig_tol, lin_tol)
