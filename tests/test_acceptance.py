"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one printed pass/fail
line per criterion.

The first-order-expansion verdicts 5b and 5c presuppose the asymptotic
window, where the second-order correction is small against the first-order
term; each asserts that precondition, kappa_1 * a / c1 <= 0.1 at the largest
coupling, before judging the sweep of configs/weak_coupling.ini.  5a, 7 and 8
judge the reference sweep (configs/reference.ini), whose top coupling sits at
kappa_1 * a / c1 = 7.5.

The pull-through identity of 6a is exact only without truncation.  At depth
10 its closed-form residual (~4e-2) is the truncation defect alone; 6a
asserts the exact split of check_pull_through: the solver part is within
1e-6 and the defect vanishes on the interior grades.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import DenseModel, handle_matrix, rayleigh_quotient

from phi4lab import (
    check_ccr,
    check_double_commutator,
    check_free_commutators,
    check_hbound,
    check_ladder_bounds,
    check_number_bound,
    check_overlap,
    check_phi3_bound,
    check_pull_through,
    check_weak_commutator,
    enumerate_basis,
    ground_state,
    optimize_epsilon,
    rayleigh_upper_bound,
    sweep_kappa,
)
from phi4lab.cli import main
from phi4lab.config import ModelParams, build_model, parse_config
from phi4lab.fock import OperatorHandle, apply_h0perp_inverse
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.theory import compute_constants

from conftest import field_handle, make_reference, make_single_mode, make_two_mode

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_CONFIG = CONFIG_DIR / "reference.ini"
WEAK_CONFIG = CONFIG_DIR / "weak_coupling.ini"
ASYMPTOTIC_WINDOW = 0.1  # largest admissible kappa_1 * a / c1
KAPPA_SWEEP = tuple(0.2 * 0.5**i for i in range(7))


def record(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def reference():
    grid, quad, basis = make_reference(n_max=8)
    ham = HamiltonianSet(basis, grid, quad)
    consts = compute_constants(ham)
    return grid, quad, basis, ham, consts


@pytest.fixture(scope="module")
def reference_sweep(reference):
    grid, quad, basis, ham, consts = reference
    start = time.perf_counter()
    params = ModelParams(kappa_list=KAPPA_SWEEP, eig_tol=1e-10, lin_tol=1e-12, seed=7)
    report = sweep_kappa(ham, consts, params)
    report_elapsed = time.perf_counter() - start
    return report, report_elapsed


@pytest.fixture(scope="module")
def weak_sweep():
    """Sweep of configs/weak_coupling.ini, run as the CLI runs it."""
    params = parse_config(WEAK_CONFIG)
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    return sweep_kappa(ham, compute_constants(ham), params)


def assert_asymptotic_window(report):
    """The expansion verdicts need the second-order term small at kappa_1."""
    consts = report.constants
    window = report.rows[0].kappa * consts.a / consts.c1
    assert window <= ASYMPTOTIC_WINDOW, (
        f"kappa_1 * a / c1 = {window:.3f} > {ASYMPTOTIC_WINDOW}: the sweep starts "
        "outside the asymptotic window of the first-order expansion"
    )


class TestCriterion1OracleEquivalence:
    """Matrix-free operators vs an independent dense construction."""

    def _compare(self, grid, quad, n_max, kappa):
        basis = enumerate_basis(grid.num_modes, n_max)
        ham = HamiltonianSet(basis, grid, quad)
        dense = DenseModel(grid, quad, n_max)
        xs = [quad.nodes[0], quad.nodes[quad.num_nodes // 2]]
        number_handle = OperatorHandle(apply=lambda v: basis.grades * v, dim=basis.dim)
        pairs = [
            ("H0", ham.h0, dense.h0()),
            ("N", number_handle, dense.number()),
            ("HI", ham.hi, dense.hi()),
            ("H(kappa)", ham.hkappa(kappa), dense.hk(kappa)),
        ]
        pairs += [
            (f"phi({x})", field_handle(basis, grid, x), dense.phi(x)) for x in xs
        ]
        worst = 0.0
        for name, handle, mat in pairs:
            free = handle_matrix(handle)
            diff = float(np.abs(free - mat).max())
            worst = max(worst, diff)
        e_dense, _, _ = dense.ground(kappa)
        e_free = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-12, seed=7).e0
        return worst, abs(e_free - e_dense)

    def test_oracle_equivalence(self):
        start = time.perf_counter()
        grid1, quad1, _ = make_single_mode(n_max=12, chib=0.4)
        worst1, ediff1 = self._compare(grid1, quad1, 12, 0.1)
        grid2, quad2, _ = make_two_mode(n_max=4, chib=0.5)
        worst2, ediff2 = self._compare(grid2, quad2, 4, 0.3)
        elapsed = time.perf_counter() - start
        ok = (
            worst1 <= 1e-14
            and worst2 <= 1e-14
            and ediff1 <= 1e-10
            and ediff2 <= 1e-10
            and elapsed < 10.0
        )
        assert record(
            "1 oracle-equivalence",
            ok,
            f"entrywise max {max(worst1, worst2):.2e} (<=1e-14), "
            f"energy diff max {max(ediff1, ediff2):.2e} (<=1e-10), {elapsed:.1f}s (<10s)",
        )


class TestCriterion2IdentitySuite:
    def test_identity_suite(self, reference):
        grid, quad, basis, ham, consts = reference
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        outcomes = [
            check_ccr(ham, count=100, seed=1, tol=1e-10),
            check_free_commutators(ham, count=100, seed=2, tol=1e-10),
            check_double_commutator(f, ham, count=100, seed=3, tol=1e-10),
            check_weak_commutator(ham, 0.25, count=100, seed=4, tol=1e-10),
        ]
        elapsed = time.perf_counter() - start
        worst = max(o.measured for o in outcomes)
        ok = all(o.passed for o in outcomes) and elapsed < 30.0
        assert record(
            "2 identity-suite",
            ok,
            f"worst residual {worst:.2e} (<=1e-10), {elapsed:.1f}s (<30s)",
        )


class TestCriterion3InequalitySuite:
    def test_inequality_suite(self, reference):
        grid, quad, basis, ham, consts = reference
        start = time.perf_counter()
        # ladder/field bounds on the reference model
        outcomes = [check_ladder_bounds(ham, count=100, seed=5)]
        # interior reach 8 needs a deeper truncation for substance
        dgrid, dquad, dbasis = make_reference(n_max=12)
        dham = HamiltonianSet(dbasis, dgrid, dquad)
        kappa = 0.05
        state12 = ground_state(dham.hkappa(kappa), dbasis.dim, tol=1e-11, seed=7)
        fam12 = optimize_epsilon(kappa, state12.e0, dgrid, dquad)
        outcomes.append(
            check_hbound(fam12, dham, count=100, seed=6)
        )
        psi = state12.vector.copy()
        psi[dbasis.grade_end(dbasis.n_max - 8) :] = 0.0
        psi /= np.linalg.norm(psi)
        outcomes.append(check_phi3_bound(psi, fam12, dham))
        # number bound and overlap on the reference model at its coupling
        state8 = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=7)
        choice = optimize_epsilon(kappa, state8.e0, grid, quad)
        outcomes.append(check_number_bound(state8, choice, ham))
        outcomes.append(check_overlap(state8, basis, c_number=choice.c_number))
        # at a weak coupling the number ceiling drops below 1 and the
        # stronger overlap display becomes active; exercise it for real
        weak_kappa = 1e-4
        weak_state = ground_state(ham.hkappa(weak_kappa), basis.dim, tol=1e-12, seed=7)
        weak_choice = optimize_epsilon(weak_kappa, weak_state.e0, grid, quad)
        assert weak_choice.c_number < 1.0
        weak_overlap = check_overlap(weak_state, basis, c_number=weak_choice.c_number)
        assert "stronger_slack" in weak_overlap.context
        outcomes.append(weak_overlap)
        elapsed = time.perf_counter() - start
        ok = all(o.passed for o in outcomes) and elapsed < 120.0
        fails = [o.name for o in outcomes if not o.passed]
        assert record(
            "3 inequality-suite",
            ok,
            f"{len(outcomes)} checks, violations {fails or 'none'}, {elapsed:.1f}s (<2min)",
        )


class TestCriterion4VariationalBound:
    def test_variational_upper_bound(self, reference):
        grid, quad, basis, ham, consts = reference
        w = ham.hi(basis.vacuum())
        r = apply_h0perp_inverse(ham.esum, w)
        worst_slack = math.inf
        worst_quotient = 0.0
        for kappa in KAPPA_SWEEP:
            bound = rayleigh_upper_bound(kappa, consts)
            e0 = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=7).e0
            worst_slack = min(worst_slack, bound - e0)
            trial = basis.vacuum() - kappa * r
            direct = rayleigh_quotient(ham.hkappa(kappa), trial)
            worst_quotient = max(
                worst_quotient, abs(bound - direct) / max(abs(direct), 1e-300)
            )
        ok = worst_slack >= -1e-10 and worst_quotient <= 1e-12
        assert record(
            "4 variational-bound",
            ok,
            f"min slack {worst_slack:.3e} (>=-1e-10), "
            f"trial-quotient mismatch {worst_quotient:.2e} (<=1e-12)",
        )


class TestCriterion5FirstOrderExpansion:
    def test_5a_tail_ratios_strictly_decrease(self, reference_sweep):
        report, elapsed = reference_sweep
        for row in report.rows:  # variational sandwich on every row
            assert 0.0 <= row.e0 <= row.c1_kappa
        ratios = [row.e_over_kappa for row in report.rows]
        tail = ratios[-5:]
        ok = all(a > b for a, b in zip(tail, tail[1:])) and elapsed < 300.0
        assert record(
            "5a expansion-ratio-monotone",
            ok,
            f"last-5 ratios {['%.4f' % r for r in tail]}, sweep {elapsed:.1f}s (<5min)",
        )

    def test_5b_final_ratio_below_ten_percent(self, weak_sweep):
        assert_asymptotic_window(weak_sweep)
        ratio = weak_sweep.ratio_final_over_first
        ok = ratio < 0.10
        assert record(
            "5b expansion-ratio-final",
            ok,
            f"final/first = {ratio:.4f} (required < 0.10) on the weak-coupling sweep",
        ), "the error ratio does not fall to 10% over the asymptotic window"

    def test_5c_quadratic_fit_within_factor3(self, weak_sweep):
        assert_asymptotic_window(weak_sweep)
        ok = weak_sweep.fit_within_factor3
        assert record(
            "5c expansion-quadratic-fit",
            ok,
            f"fit/a = {weak_sweep.fit_over_a:.4f} (required within [1/3, 3]) "
            "on the weak-coupling sweep",
        ), "the quadratic error envelope misses the second-order coefficient a"


class TestCriterion6PullThrough:
    def test_6a_residual_at_stated_depth(self):
        kappa = 0.05
        grid, quad, basis = make_reference(n_max=10)
        ham = HamiltonianSet(basis, grid, quad)
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=7)
        outcomes = check_pull_through(
            state, kappa, ham, tol=1e-6, lin_tol=1e-12
        )
        worst = max(o.measured for o in outcomes)
        unexplained = max(o.context["unexplained"] for o in outcomes)
        interior = max(o.context["interior_defect"] for o in outcomes)
        ok = all(o.passed for o in outcomes) and unexplained <= 1e-6 and interior <= 1e-12
        assert record(
            "6a pull-through-residual",
            ok,
            f"solver part {unexplained:.2e} (required <= 1e-6), interior truncation "
            f"defect {interior:.1e} (required <= 1e-12); closed-form residual "
            f"{worst:.3e} is truncation-limited",
        ), (
            "the pull-through residual is not explained by the truncation defect: "
            "either the solver part exceeds 1e-6 or the defect reaches interior grades"
        )

    def test_6b_residual_decreases_with_depth(self):
        kappa = 0.05
        residuals = []
        for n_max in (8, 10, 12):
            grid, quad, basis = make_reference(n_max=n_max)
            ham = HamiltonianSet(basis, grid, quad)
            state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=7)
            outcomes = check_pull_through(state, kappa, ham)
            residuals.append(max(o.measured for o in outcomes))
        ok = residuals[0] > residuals[1] > residuals[2]
        assert record(
            "6b pull-through-monotone",
            ok,
            "residuals " + " > ".join(f"{r:.3e}" for r in residuals),
        )


class TestCriterion7EigenprojectionIdentities:
    def test_identities_on_eligible_sweep_rows(self, reference_sweep, reference):
        grid, quad, basis, ham, consts = reference
        report, _ = reference_sweep
        min_omega = float(grid.omega.min())
        worst_energy = 0.0
        worst_vector = 0.0
        eligible = 0
        for row in report.rows:
            if not (row.kappa > 0 and row.e0 < min_omega):
                continue
            eligible += 1
            [arai] = [
                c["context"] for c in row.extras["checks"] if c["name"] == "eigenprojection-identities"
            ]
            worst_energy = max(worst_energy, arai["energy_residual"] / max(1.0, row.e0))
            worst_vector = max(worst_vector, arai["vector_residual"])
        tilde_norms = [
            c["context"]["tilde_norm"]
            for row in report.rows
            for c in row.extras.get("checks", ())
            if "tilde_norm" in c["context"]
        ]
        monotone = all(a > b for a, b in zip(tilde_norms, tilde_norms[1:]))
        ok = (
            eligible >= 5
            and worst_energy <= 1e-9
            and worst_vector <= 1e-8
            and monotone
            and abs(tilde_norms[-1] - 1.0) < abs(tilde_norms[0] - 1.0)
        )
        assert record(
            "7 eigenprojection-identities",
            ok,
            f"{eligible} eligible rows, energy residual {worst_energy:.2e} (<=1e-9), "
            f"vector residual {worst_vector:.2e} (<=1e-8), norm monotone {monotone}",
        )


class TestCriterion8Determinism:
    def test_byte_identical_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        code1 = main(["sweep", "--config", str(REFERENCE_CONFIG), "--out", str(out)])
        first = (out / "sweep.csv").read_bytes()
        code2 = main(["sweep", "--config", str(REFERENCE_CONFIG), "--out", str(out)])
        second = (out / "sweep.csv").read_bytes()
        capsys.readouterr()
        data = [l for l in first.decode().splitlines() if not l.startswith("#")]
        header = data[0].split(",")
        ratios = [float(line.split(",")[header.index("e_over_kappa")]) for line in data[1:]]
        csv_shape_ok = len(data) == 8 and all(
            a > b for a, b in zip(ratios, ratios[1:])
        )
        ok = first == second and code1 == code2 and csv_shape_ok
        assert record(
            "8 determinism",
            ok,
            f"two sweep runs, {len(first)} bytes, byte-identical: {first == second}, "
            f"7 rows with decreasing error ratio: {csv_shape_ok}",
        )
