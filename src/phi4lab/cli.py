"""Command-line entry point: info / solve / sweep / verify / report.

Exit status: 0 when every check passes, 1 when any check failed (a skipped
check does not count) or a sweep is degraded, 2 on configuration or runtime
errors.  ``solve``, ``verify`` and ``sweep`` print the ``report`` rendering of
the document they write.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ModelParams, build_model, parse_config
from .errors import Phi4LabError
from .fock import save_vector
from .grid import cutoff_norm
from .hamiltonian import HamiltonianSet
from .report import document, load_json, render_text, write_json, write_sweep_csv
from .spectral import ground_state
from .theory import compute_constants, first_order_coefficient, hbound_constants
from .verify import command_outcomes, sweep_kappa, top_grade_weight


def _build(params: ModelParams) -> HamiltonianSet:
    grid, quad, basis = build_model(params)
    return HamiltonianSet(basis, grid, quad)


def cmd_info(params: ModelParams) -> int:
    grid, quad, basis = build_model(params)
    c_bos, d_bos = hbound_constants(grid, quad)
    print(f"modes: {grid.num_modes}  n_max: {params.n_max}  basis dimension: {basis.dim}")
    print(f"mass: {params.mass}  min omega: {grid.omega.min():.12g}  max omega: {grid.omega.max():.12g}")
    for p, label in ((0.0, "chib"), (0.5, "chib/sqrt(omega)"), (1.0, "chib/omega"), (1.5, "chib/omega^1.5")):
        print(f"||{label}|| = {cutoff_norm(grid, p):.12g}")
    print(f"chi_I L1 mass = {quad.chi_l1:.12g}  quadrature nodes = {quad.num_nodes}")
    if quad.truncation_error:
        print(f"gaussian support truncation error = {quad.truncation_error:.3e}")
    print(f"c_bos = {c_bos:.12g}  d_bos = {d_bos:.12g}")
    print(f"c1 = {first_order_coefficient(grid, quad):.12g}")
    return 0


def cmd_solve(params: ModelParams, out_dir: Path) -> int:
    kappa = params.coupling
    ham = _build(params)
    basis = ham.basis
    consts = compute_constants(ham)
    even = ham.even
    state = ground_state(
        even.hkappa(kappa), even.dim, tol=params.eig_tol, max_iter=params.max_iter, seed=params.seed
    )
    state.vector = even.embed(state.vector)
    state.top_grade_weight = top_grade_weight(basis, state.vector)
    outcomes = command_outcomes(ham, params, state)
    doc = document("solve", params, kappa=kappa, state=state, constants=consts, outcomes=outcomes)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(doc, out_dir / "solve.json")
    if params.dump_vectors:
        save_vector(out_dir / f"ground_kappa{kappa!r}.f4vec", basis, state.vector)
    print(render_text(doc), end="")
    print(f"report written to {out_dir / 'solve.json'}")
    return int(any(o.status == "fail" for o in outcomes))


def cmd_sweep(params: ModelParams, out_dir: Path) -> int:
    ham = _build(params)
    report = sweep_kappa(ham, compute_constants(ham), params)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(report, params, out_dir / "sweep.csv")
    doc = document("sweep", params, constants=report.constants, sweep=report)
    write_json(doc, out_dir / "sweep.json")
    print(render_text(doc), end="")
    print(f"CSV written to {out_dir / 'sweep.csv'}")
    if report.failures:
        for failure in report.failures:
            print(f"failed: {failure}", file=sys.stderr)
    return 1 if report.degraded else 0


def cmd_verify(params: ModelParams, out_dir: Path) -> int:
    outcomes = command_outcomes(_build(params), params)
    doc = document("verify", params, outcomes=outcomes)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(doc, out_dir / "verify.json")
    print(render_text(doc), end="")
    return int(any(o.status == "fail" for o in outcomes))


def cmd_report(params: ModelParams, out_dir: Path, input_path: str | None) -> int:
    """Render ``input_path``, else the newest stored report in ``out_dir``."""
    if input_path is not None:
        candidates = [Path(input_path)]
    else:
        candidates = [out_dir / f"{kind}.json" for kind in ("sweep", "solve", "verify")]
    stored = [c for c in candidates if c.exists()]
    if not stored:
        raise Phi4LabError(f"no stored report found among {[str(c) for c in candidates]}")
    newest = max(stored, key=lambda c: c.stat().st_mtime_ns)
    try:
        text = render_text(load_json(newest))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise Phi4LabError(f"{newest} is not a phi4lab report ({type(exc).__name__}: {exc})") from None
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phi4lab",
        description="Desk-scale laboratory for a cutoff quartic boson Hamiltonian",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("info", "print basis dimension, norms, and constants without solving"),
        ("solve", "ground state at one coupling plus the full check suite"),
        ("sweep", "coupling sweep with per-row checks and CSV/JSON output"),
        ("verify", "identity and inequality suites on random vectors only"),
        ("report", "re-render a stored JSON report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "report":
            p.add_argument("--input", default=None, help="stored report JSON to render")
    args = parser.parse_args(argv)
    try:
        params = parse_config(args.config).with_overrides(seed=args.seed, output_dir=args.out)
        out_dir = Path(params.output_dir)
        if args.command == "info":
            return cmd_info(params)
        if args.command == "solve":
            return cmd_solve(params, out_dir)
        if args.command == "sweep":
            return cmd_sweep(params, out_dir)
        if args.command == "verify":
            return cmd_verify(params, out_dir)
        return cmd_report(params, out_dir, args.input)
    except Phi4LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
