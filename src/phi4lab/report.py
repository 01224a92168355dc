"""Report rendering and persistence: CSV sweeps and full-fidelity JSON.

Floating-point numbers are written with 17 significant digits in the CSV so
that reruns with identical configuration and seed are byte-identical; JSON
numbers use Python's shortest round-trip representation, which preserves the
exact double value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ModelParams, render_config
from .spectral import SpectralResult
from .theory import TheoryConstants
from .verify import CheckOutcome, SweepReport, SweepRow


def fmt17(x) -> str:
    return f"{float(x):.17g}"


def to_jsonable(obj):
    """Recursively convert numpy scalars to the Python numbers JSON writes."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_sweep_csv(report: SweepReport, params: ModelParams, path) -> None:
    """Fixed-column CSV: config echo as '#' comments, then one row per kappa."""
    lines = ["# phi4lab sweep report"]
    for echo_line in render_config(params).rstrip("\n").split("\n"):
        lines.append(f"# {echo_line}" if echo_line else "#")
    lines.append(",".join(SweepRow.CSV_FIELDS))
    for row in report.rows:
        lines.append(",".join(fmt17(getattr(row, name)) for name in SweepRow.CSV_FIELDS))
    Path(path).write_text("\n".join(lines) + "\n")


def _fields(record, *drop: str) -> dict:
    return {key: value for key, value in vars(record).items() if key not in drop}


def document(
    kind: str,
    params: ModelParams,
    *,
    state: SpectralResult | None = None,
    constants: TheoryConstants | None = None,
    outcomes: list[CheckOutcome] | None = None,
    sweep: SweepReport | None = None,
) -> dict:
    """The stored report of one ``solve``, ``verify`` or ``sweep`` run.

    After the run header come the parts given, in this order: ``kappa``
    (``params.coupling``) and ``ground_state`` (the ``SpectralResult`` without
    its vector), ``constants``, ``checks`` (one ``CheckOutcome`` each) and
    ``all_passed``, ``rows`` (each ``SweepRow`` with ``extras`` last) and
    ``summary`` (the ``SweepReport`` without rows and constants).  Every record
    keeps its dataclass's field names in declared order.
    """
    doc = {
        "kind": kind,
        "versions": {"phi4lab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "config_echo": render_config(params),
        "seed": params.seed,
    }
    if state is not None:
        doc["kappa"] = params.coupling
        doc["ground_state"] = _fields(state, "vector")
    if constants is not None:
        doc["constants"] = vars(constants)
    if outcomes is not None:
        doc["checks"] = [vars(o) for o in outcomes]
        doc["all_passed"] = all(o.status == "pass" for o in outcomes)
    if sweep is not None:
        doc["rows"] = [{**_fields(row, "extras"), "extras": row.extras} for row in sweep.rows]
        doc["summary"] = _fields(sweep, "rows", "constants")
    return to_jsonable(doc)


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def render_text(doc: dict) -> str:
    """Human-readable rendering of a stored report document."""
    lines = [f"phi4lab {doc.get('kind', 'report')} report"]
    if "kappa" in doc:
        lines.append(f"  kappa = {doc['kappa']}")
    if "ground_state" in doc:
        gs = doc["ground_state"]
        lines.append(
            f"  e0 = {gs['e0']!r}  residual = {gs['residual']:.3e}  "
            f"iterations = {gs['iterations']}  restarts = {gs['restarts']}  "
            f"even-sector gap = {gs['gap_estimate']:.3e}"
        )
    if "constants" in doc:
        consts = doc["constants"]
        lines.append("  constants:")
        for key, val in consts.items():
            lines.append(f"    {key} = {val!r}")
    if "checks" in doc:
        lines.append("  checks:")
        for chk in doc["checks"]:
            lines.append(
                f"    [{chk['status'].upper()}] {chk['name']}: measured {chk['measured']:.6e} "
                f"vs threshold {chk['threshold']:.6e}"
            )
            if chk.get("caveat"):
                lines.append(f"           caveat: {chk['caveat']}")
            if chk["status"] == "skipped" and "reason" in chk["context"]:
                lines.append(f"           reason: {chk['context']['reason']}")
    if "rows" in doc:
        lines.append(
            "  kappa        e0             e/kappa       overlap      pull_resid"
        )
        for row in doc["rows"]:
            lines.append(
                f"  {row['kappa']:<12.6g} {row['e0']:<14.10g} {row['e_over_kappa']:<13.6g} "
                f"{row['overlap']:<12.8g} {row['pullthrough_resid']:.3e}"
            )
    if "summary" in doc:
        summary = doc["summary"]
        lines.append("  summary:")
        for key, val in summary.items():
            lines.append(f"    {key} = {val!r}")
    return "\n".join(lines) + "\n"
