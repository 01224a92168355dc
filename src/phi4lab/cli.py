"""Command-line entry point: info / solve / sweep / verify / report.

Exit status: 0 when every check passes, 1 when any check failed (a skipped
check does not count) or a sweep is degraded, 2 on configuration or runtime
errors.  ``solve``, ``verify`` and ``sweep`` print the ``report`` rendering of
the document they write.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from .config import ModelParams, build_model, parse_config
from .errors import Phi4LabError
from .fock import save_vector
from .grid import cutoff_norm
from .hamiltonian import HamiltonianSet
from .report import document, load_json, render_text, write_json, write_sweep_csv
from .spectral import ground_state
from .theory import (
    MIN_TRUNCATION_FOR_CUBIC,
    compute_constants,
    epsilon_family,
    epsilon_upper_limit,
    first_order_coefficient,
    hbound_constants,
)
from .verify import (
    check_ccr,
    check_double_commutator,
    check_free_commutators,
    check_hbound,
    check_ladder_bounds,
    check_phi3_bound,
    check_state,
    check_weak_commutator,
    draw_interior_vectors,
    sweep_kappa,
    top_grade_weight,
)


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
    with _beside(lambda: check_ccr(ham, seed=params.seed)) as ccr:
        consts = compute_constants(ham)
        even = ham.even
        state = ground_state(
            even.hkappa(kappa), even.dim, tol=params.eig_tol, max_iter=params.max_iter, seed=params.seed
        )
        state.vector = even.embed(state.vector)
        state.top_grade_weight = top_grade_weight(basis, state.vector)
        fam, outcomes = check_state(state, kappa, ham, params)
        outcomes += _identity_outcomes(params, ham, ccr, fam, state=state)
    doc = document("solve", params, kappa=kappa, state=state, constants=consts, outcomes=outcomes)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(doc, out_dir / "solve.json")
    if params.dump_vectors:
        save_vector(out_dir / f"ground_kappa{kappa!r}.f4vec", basis, state.vector)
    print(render_text(doc), end="")
    print(f"report written to {out_dir / 'solve.json'}")
    return int(any(o.status == "fail" for o in outcomes))


@contextlib.contextmanager
def _beside(job):
    """Yield a call that returns ``job()``'s result, or raises its error, from a child forked
    to run it beside the ``with`` body; with one allowed CPU (or outside Linux), ``job``.
    Keep ``job`` to a quarter of the command's work or less: the command's wall time then
    holds while the child runs at a third of the command's speed or more, whatever else
    loads the child's CPU (README, "Processes")."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(allowed) < 2:
        yield job
        return
    # the child keeps off the command's current CPU: left free, the scheduler often ran both there
    here = int(Path("/proc/thread-self/stat").read_text().rsplit(")", 1)[1].split()[36])
    receive, send = multiprocessing.Pipe(duplex=False)
    def answer():
        os.sched_setaffinity(0, allowed - {here})
        try:
            send.send((True, job()))
        except Exception as exc:
            send.send((False, exc))
    def result():
        try:
            ok, value = receive.recv()
        except EOFError:
            child.join()
            ok, value = False, Phi4LabError(f"check process exited with code {child.exitcode} before answering")
        if not ok:
            raise value
        return value
    child = multiprocessing.get_context("fork").Process(target=answer, daemon=True)
    child.start()
    send.close()
    try:
        yield result
    finally:
        child.terminate()
        child.join()
        receive.close()


def _identity_outcomes(params, ham, ccr, fam=None, state=None):
    """The identity suite, then, given the epsilon family ``fam`` (which needs
    n_max >= MIN_TRUNCATION_FOR_CUBIC), the two inequality checks at it. The
    CCR check's outcome comes from the call ``ccr``, asked for last."""
    basis, quad, seed = ham.basis, ham.quadrature, params.seed
    outcomes = [
        check_free_commutators(ham, seed=seed),
        check_ladder_bounds(ham, seed=seed),
        check_double_commutator(ham.grid.rho.astype(complex), ham, seed=seed),
        check_weak_commutator(ham, quad.nodes[quad.num_nodes // 2], seed=seed),
    ]
    if fam is not None:
        if fam.kappa > 0:
            outcomes.append(check_hbound(fam, ham, seed=seed))
        psi = np.zeros(basis.dim, dtype=complex) if state is None else state.vector.copy()
        psi[~basis.interior_mask(8)] = 0.0
        nrm = np.linalg.norm(psi)
        psi = psi / nrm if nrm > 0 else draw_interior_vectors(basis, 8, 1, seed)[0]
        outcomes.append(check_phi3_bound(psi, fam, ham))
    return [ccr()] + outcomes


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
    ham = _build(params)
    fam = None
    if params.n_max >= MIN_TRUNCATION_FOR_CUBIC:
        # no state to judge at: the family at e0 = 0, at epsilon_value under the
        # fixed policy, else at half the admissible interval (1 if unbounded)
        kappa, eps = params.coupling, params.epsilon_value
        if params.epsilon_policy != "fixed":
            limit = epsilon_upper_limit(kappa, hbound_constants(ham.grid, ham.quadrature)[0])
            eps = 1.0 if math.isinf(limit) else 0.5 * limit
        fam = epsilon_family(eps, kappa, 0.0, ham.grid, ham.quadrature)
    with _beside(lambda: check_ccr(ham, seed=params.seed)) as ccr:
        outcomes = _identity_outcomes(params, ham, ccr, fam)
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
