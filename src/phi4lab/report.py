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

from .config import ModelParams, render_config
from .verify import CheckOutcome, SweepReport, SweepRow


def fmt17(x) -> str:
    return f"{float(x):.17g}"


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _versions() -> dict:
    from . import __version__

    return {"phi4lab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def outcome_dict(outcome: CheckOutcome) -> dict:
    return to_jsonable(
        {
            "name": outcome.name,
            "status": outcome.status,
            "measured": outcome.measured,
            "threshold": outcome.threshold,
            "context": outcome.context,
            "caveat": outcome.caveat,
        }
    )


def write_sweep_csv(report: SweepReport, params: ModelParams, path) -> None:
    """Fixed-column CSV: config echo as '#' comments, then one row per kappa."""
    lines = ["# phi4lab sweep report"]
    for echo_line in render_config(params).rstrip("\n").split("\n"):
        lines.append(f"# {echo_line}" if echo_line else "#")
    lines.append(",".join(SweepRow.CSV_FIELDS))
    for row in report.rows:
        lines.append(",".join(fmt17(getattr(row, name)) for name in SweepRow.CSV_FIELDS))
    Path(path).write_text("\n".join(lines) + "\n")


def sweep_document(report: SweepReport, params: ModelParams) -> dict:
    rows = []
    for row in report.rows:
        entry = {name: getattr(row, name) for name in SweepRow.CSV_FIELDS}
        entry["failed"] = row.failed
        entry["extras"] = row.extras
        rows.append(entry)
    return to_jsonable(
        {
            "kind": "sweep",
            "versions": _versions(),
            "config_echo": render_config(params),
            "seed": params.seed,
            "constants": vars(report.constants),
            "rows": rows,
            "summary": {
                "tail_ratios_decreasing": report.tail_ratios_decreasing,
                "ratio_final_over_first": report.ratio_final_over_first,
                "quadratic_fit": report.quadratic_fit,
                "fit_over_a": report.fit_over_a,
                "fit_within_factor3": report.fit_within_factor3,
                "degraded": report.degraded,
                "failures": report.failures,
            },
        }
    )


def solve_document(
    params: ModelParams,
    kappa: float,
    state,
    constants,
    outcomes: list[CheckOutcome],
) -> dict:
    return to_jsonable(
        {
            "kind": "solve",
            "versions": _versions(),
            "config_echo": render_config(params),
            "seed": params.seed,
            "kappa": kappa,
            "ground_state": {
                "e0": state.e0,
                "residual": state.residual,
                "iterations": state.iterations,
                "restarts": state.restarts,
                "gap_estimate": state.gap_estimate,
                "near_degenerate": state.near_degenerate,
                "top_grade_weight": state.top_grade_weight,
            },
            "constants": vars(constants),
            "checks": [outcome_dict(o) for o in outcomes],
            "all_passed": all(o.status == "pass" for o in outcomes),
        }
    )


def verify_document(params: ModelParams, outcomes: list[CheckOutcome]) -> dict:
    return to_jsonable(
        {
            "kind": "verify",
            "versions": _versions(),
            "config_echo": render_config(params),
            "seed": params.seed,
            "checks": [outcome_dict(o) for o in outcomes],
            "all_passed": all(o.status == "pass" for o in outcomes),
        }
    )


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
            f"iterations = {gs['iterations']}  even-sector gap = {gs['gap_estimate']:.3e}"
        )
    if "constants" in doc:
        consts = doc["constants"]
        lines.append("  constants:")
        for key, val in consts.items():
            lines.append(f"    {key} = {val!r}")
    if "checks" in doc:
        lines.append("  checks:")
        for chk in doc["checks"]:
            mark = "PASS" if chk["status"] == "pass" else chk["status"].upper()
            lines.append(
                f"    [{mark}] {chk['name']}: measured {chk['measured']:.6e} "
                f"vs threshold {chk['threshold']:.6e}"
            )
            if chk.get("caveat"):
                lines.append(f"           caveat: {chk['caveat']}")
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
