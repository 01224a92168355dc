import copy
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from oracles import DenseModel

from phi4lab import (
    ConfigError,
    CutoffSpec,
    NoConvergence,
    SpectralConditionViolated,
    apply_smeared,
    build_grid,
    build_spatial_quadrature,
    check_arai_identities,
    check_ccr,
    check_double_commutator,
    check_free_commutators,
    check_hbound,
    check_ladder_bounds,
    check_number_bound,
    check_overlap,
    check_phi3_bound,
    check_pull_through,
    check_state,
    check_weak_commutator,
    enumerate_basis,
    epsilon_family,
    ground_state,
    optimize_epsilon,
    sweep_kappa,
)
from phi4lab import verify
from phi4lab.config import ModelParams, build_model, parse_config
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.spectral import SpectralResult
from phi4lab.theory import compute_constants

from conftest import make_reference, make_single_mode

DEEP_SOLVE = Path(__file__).resolve().parent.parent / "phi4bench" / "configs" / "deep_solve.ini"

@pytest.fixture(scope="module")
def deep_reference():
    grid, quad, basis = make_reference(n_max=12)
    return grid, quad, basis, HamiltonianSet(basis, grid, quad)


def make_planar():
    grid = build_grid(2, 1.0, CutoffSpec("indicator", (10.0,)), kmax=1.0, modes_per_axis=2)
    quad = build_spatial_quadrature(2, CutoffSpec("indicator", (1.0,)), 3)
    basis = enumerate_basis(grid.num_modes, 4)
    return HamiltonianSet(basis, grid, quad)


def interior_vector(basis, reach, seed):
    """The first interior vector of the checks' draw, a basis prefix."""
    return next(verify._interior_blocks(basis, reach, 1, seed))[0]


def ccr_one_call_per_product(ham, count, seed):
    """check_ccr's measure with each of its twelve ladder products a single-vector call
    on the whole basis: the drawn interior rows zero-padded to ``basis.dim``.  Each
    difference is exactly zero beyond the length the check gives it, and every norm,
    the row's too, is taken on the check's prefix, so that both sides sum the same
    entries."""
    basis, grid = ham.basis, ham.grid
    n = basis.n_max
    lengths = (basis.grade_end(n - 2), basis.grade_end(n - 4), basis.dim)  # mixed, same_a, same_c
    rng = np.random.default_rng(seed)
    rows = np.concatenate(list(verify._interior_blocks(basis, 2, count, seed + 1)))
    worst = 0.0
    for row in rows:
        v = np.zeros(basis.dim, complex)
        v[: len(row)] = row
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        g = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        pairing = np.sum(grid.weights * np.conj(f) * g)

        def a(fn, u):
            return apply_smeared(basis, grid, fn, u, "annihilate")

        def c(fn, u):
            return apply_smeared(basis, grid, fn, u, "create")

        mixed = a(f, c(g, v)) - c(g, a(f, v)) - pairing * v
        same_a = a(f, a(g, v)) - a(g, a(f, v))
        same_c = c(f, c(g, v)) - c(g, c(f, v))
        scale = abs(pairing) * np.linalg.norm(row) + np.linalg.norm(f) * np.linalg.norm(g)
        for d, end in zip((mixed, same_a, same_c), lengths):
            assert not d[end:].any()
            worst = max(worst, np.linalg.norm(d[:end]) / (scale + 1e-300))
    return worst


class TestIdentitySuite:
    def test_ccr(self, reference_model):
        grid, quad, basis, ham = reference_model
        assert check_ccr(ham, count=100, seed=0).passed

    @pytest.mark.parametrize("model", ["reference", "planar", "deep-solve"])
    def test_ccr_measures_what_one_call_per_product_does(self, model, reference_model, monkeypatch):
        # check_ccr applies each product to its operand's basis prefix: 10 calls
        # per vector, equal bit for bit to full-length calls on the padded vector
        seed = 3
        if model == "deep-solve":  # n_max 20, where whole-basis norms differ in the last bit
            grid, quad, basis = build_model(parse_config(DEEP_SOLVE))
            ham, seed = HamiltonianSet(basis, grid, quad), 19
        else:
            ham = reference_model[3] if model == "reference" else make_planar()
        expected = ccr_one_call_per_product(ham, 12, seed)
        calls = []
        monkeypatch.setattr(verify, "apply_smeared", lambda *a: calls.append(a) or apply_smeared(*a))
        outcome = check_ccr(ham, count=12, seed=seed)
        assert outcome.measured == expected > 0.0
        assert len(calls) == 10 * 12

    def test_ccr_applies_no_product_beyond_the_grades_it_reaches(self, monkeypatch):
        # the interior is grades <= n_max - 2 and no product raises a grade twice
        # before lowering it: every operand lies in grades <= n_max - 1
        grid, quad, basis = make_reference(n_max=6)
        ham = HamiltonianSet(basis, grid, quad)
        lengths = []
        monkeypatch.setattr(
            verify, "apply_smeared", lambda *a: lengths.append(np.shape(a[3])[-1]) or apply_smeared(*a)
        )
        assert check_ccr(ham, count=10, seed=4).passed
        assert max(lengths) == basis.grade_end(5) == 56 < basis.dim == 84

    def test_free_commutators(self, reference_model):
        grid, quad, basis, ham = reference_model
        assert check_free_commutators(ham, count=100, seed=0).passed

    def test_ladder_bounds(self, reference_model):
        grid, quad, basis, ham = reference_model
        assert check_ladder_bounds(ham, count=100, seed=0).passed

    def test_double_commutator_zero_smearing(self, reference_model):
        grid, quad, basis, ham = reference_model
        outcome = check_double_commutator(
            np.zeros(basis.num_modes, dtype=complex), ham, count=5, seed=1
        )
        assert outcome.passed
        assert outcome.measured == 0.0

    def test_double_commutator_single_mode_dense(self):
        grid, quad, basis = make_single_mode(n_max=8)
        outcome = check_double_commutator(
            np.array([0.8 + 0.3j]), HamiltonianSet(basis, grid, quad), count=20, seed=2
        )
        assert outcome.passed
        # dense route: commutators as explicit matrices on the vacuum
        dense = DenseModel(grid, quad, 8)
        f = np.array([0.8 + 0.3j])
        phi2 = np.linalg.matrix_power(dense.smeared(f, "segal"), 2)
        h0 = dense.h0()
        inner = phi2 @ h0 - h0 @ phi2
        lhs = phi2 @ inner - inner @ phi2
        f_omega = float(np.real(np.sum(grid.weights * np.conj(f) * grid.omega * f)))
        rhs = -4.0 * f_omega * phi2
        vac = np.zeros(dense.dim, dtype=complex)
        vac[0] = 1.0
        mask = np.arange(dense.dim) < np.searchsorted(
            [sum(s) for s in dense.states], 8 - 4 + 1
        )
        diff = (lhs - rhs)[:, mask]
        assert np.abs(diff).max() < 1e-12

    def test_double_commutator_three_modes(self, reference_model):
        grid, quad, basis, ham = reference_model
        rng = np.random.default_rng(6)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        outcome = check_double_commutator(f, ham, count=100, seed=3, tol=1e-10)
        assert outcome.passed
        assert outcome.measured <= 1e-10

    def test_weak_commutator(self, reference_model):
        grid, quad, basis, ham = reference_model
        assert check_weak_commutator(ham, 0.25, count=100, seed=4).passed

    def test_interior_vectors_match_the_one_at_a_time_draw(self, reference_model):
        # only the interior is drawn: per vector, its real parts, then its imaginary parts
        grid, quad, basis, _ = reference_model
        end = basis.grade_end(basis.n_max - 4)
        rng = np.random.default_rng(5)
        rows = np.concatenate(list(verify._interior_blocks(basis, 4, 23, seed=5)))
        assert rows.shape == (23, end)
        for v in rows:
            u = rng.standard_normal(end) + 1j * rng.standard_normal(end)
            u /= np.linalg.norm(u)
            assert np.array_equal(v, u)

    @pytest.mark.parametrize("reach", [1, 2, 4, 8])
    def test_interior_blocks_hold_the_interior_only(self, reach, monkeypatch):
        monkeypatch.setattr(verify, "BLOCK_ROWS", 7)
        basis = enumerate_basis(3, 8)
        end = basis.grade_end(8 - reach)
        blocks = list(verify._interior_blocks(basis, reach, 23, seed=2))
        assert [b.shape for b in blocks] == [(7, end)] * 3 + [(2, end)]
        assert np.allclose(np.linalg.norm(np.concatenate(blocks), axis=1), 1.0)
        assert end == np.count_nonzero(basis.grades <= 8 - reach)

    def test_batched_checks_do_not_depend_on_the_block_size(self, reference_model, monkeypatch):
        # blocks of one row are the single-vector calls (block rows equal them
        # bit for bit, see test_fock); 7 leaves a short last block
        grid, quad, basis, ham = reference_model
        f = grid.rho.astype(complex)

        results = []
        for rows in (1, 7, 23):
            monkeypatch.setattr(verify, "BLOCK_ROWS", rows)
            double = check_double_commutator(f, ham, count=23, seed=5)
            weak = check_weak_commutator(ham, 0.25, count=23, seed=5)
            results.append((double.measured, double.context, weak.measured))
        assert results[1] == results[0] and results[2] == results[0]

    def test_suite_builds_each_ladder_matrix_once(self, monkeypatch):
        # machine-independent work: every smeared action after the first of its
        # kind refills a matrix in place, so the five identity checks build one
        # per action and dtype (creation applies annihilation's transpose),
        # however many smearings they draw.  Every other matrix built is a
        # prefix view that shares its slot's data, one per action and grade
        grid, quad, basis = make_reference(n_max=6)
        ham = HamiltonianSet(basis, grid, quad)
        built = []
        for name in ("csr_matrix", "csc_matrix"):
            kind = getattr(scipy.sparse, name)
            monkeypatch.setattr(
                scipy.sparse, name, lambda *a, kind=kind, **k: built.append(kind(*a, **k)) or built[-1]
            )
        v = np.random.default_rng(8).standard_normal(basis.dim) + 0j
        before = ham.hi(v)
        hi_slot = basis._smeared["segal", np.dtype(np.float64)]
        rng = np.random.default_rng(9)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        outcomes = [
            check_ccr(ham, count=10, seed=1),
            check_free_commutators(ham, count=10, seed=2),
            check_ladder_bounds(ham, count=10, seed=3),
            check_double_commutator(f, ham, count=10, seed=4),
            check_weak_commutator(ham, 0.25, count=10, seed=5),
        ]
        assert all(o.passed for o in outcomes)
        slots = basis._smeared.values()
        assert 0 < len(slots) <= 4
        matrices = {id(op): op for _, op, _, _ in slots}
        views = {  # a prefix that reaches the whole basis is served by the matrix itself
            id(view): (op, view)
            for _, op, op_t, held in slots
            for view in held.values()
            if view is not op and view is not op_t
        }
        assert len(built) == len(matrices) + len(views) and views
        assert {id(m) for m in built} == matrices.keys() | views.keys()
        for op, view in views.values():
            assert np.shares_memory(view.data, op.data) and view.shape != op.shape
        # the complex smearings of the suite leave H's real field matrix alone
        assert np.array_equal(ham.hi(v), before)
        assert basis._smeared["segal", np.dtype(np.float64)] is hi_slot

    @pytest.mark.parametrize("first", [0, 1])
    def test_checks_on_one_basis_match_fresh_bases(self, first):
        # both checks apply complex Segal fields to prefixes of the same grades,
        # so the second reuses the views the first built, and must see its own
        # smearing in them: a view holding a copy of the data would keep the first's
        grid, quad, basis = make_reference(n_max=6)
        f = np.array([0.7 + 0.2j, -0.4 + 0.9j, 0.3 - 0.5j])

        def run(i, ham):
            if i == 0:
                return check_double_commutator(f, ham, count=10, seed=4)
            return check_weak_commutator(ham, 0.25, count=10, seed=5)

        shared = HamiltonianSet(basis, grid, quad)
        for i in (first, 1 - first):
            fresh = HamiltonianSet(enumerate_basis(basis.num_modes, basis.n_max), grid, quad)
            assert vars(run(i, shared)) == vars(run(i, fresh))


def test_verify_wide_keeps_the_benchmark_goldens(tmp_path, capsys):
    # the benchmark's golden statuses and exit code, read and compared, not rewritten
    from phi4bench import goldens
    from phi4bench.workloads import WORKLOADS

    from phi4lab.cli import main

    workload, recorded = WORKLOADS["verify-wide"], goldens.load()
    code = main(workload.argv(tmp_path, recorded["seed"]))
    observed = goldens.extract(workload, code, tmp_path)
    assert goldens.compare(workload, observed, recorded["workloads"]["verify-wide"]) == []
    assert [status for _, status, _ in observed["checks"]] == ["pass"] * 5


class TestInequalitySuite:
    def test_hbound_on_vacuum_only(self, reference_model):
        # n_max = 8 leaves only the vacuum interior at reach 8: the bound
        # reduces to kappa^2 ||HI vac||^2 <= same + positive terms
        grid, quad, basis, ham = reference_model
        outcome = check_hbound(epsilon_family(1e-3, 0.1, 0.0, grid, quad), ham, count=10, seed=5)
        assert outcome.passed
        assert outcome.context["min_slack"] >= 0.0

    def test_bounds_judged_at_the_family_given(self, deep_reference):
        # the checks read only lam and mu, which do not depend on the family's
        # e0: the family of a state and the state-free one at e0 = 0 agree
        grid, quad, basis, ham = deep_reference
        psi = interior_vector(basis, 8, seed=11)
        at_state, state_free = (epsilon_family(1e-3, 0.05, e0, grid, quad) for e0 in (0.5, 0.0))
        assert at_state.c_number != state_free.c_number
        for outcome, again in (
            (check_hbound(at_state, ham, count=5, seed=12), check_hbound(state_free, ham, count=5, seed=12)),
            (check_phi3_bound(psi, at_state, ham), check_phi3_bound(psi, state_free, ham)),
        ):
            assert outcome.passed and outcome == again
            assert (outcome.context["epsilon"], outcome.context["kappa"]) == (1e-3, 0.05)

    def test_hbound_zero_coupling_is_equality(self, deep_reference):
        grid, quad, basis, ham = deep_reference
        outcome = check_hbound(epsilon_family(1.0, 0.0, 0.0, grid, quad), ham, count=20, seed=6)
        assert outcome.passed

    def test_hbound_deep_truncation(self, deep_reference):
        grid, quad, basis, ham = deep_reference
        outcome = check_hbound(epsilon_family(9e-4, 0.1, 0.0, grid, quad), ham, count=100, seed=7)
        assert outcome.passed, outcome.context

    def test_phi3_bound_vacuum_zero_coupling(self, reference_model):
        grid, quad, basis, ham = reference_model
        outcome = check_phi3_bound(basis.vacuum(), epsilon_family(1.0, 0.0, 0.0, grid, quad), ham)
        assert outcome.passed

    def test_phi3_bound_single_node_reduces_to_pointwise(self):
        grid, quad, basis = make_single_mode(n_max=10)
        ham = HamiltonianSet(basis, grid, quad)
        assert quad.num_nodes == 1
        psi = interior_vector(basis, 8, seed=8)
        outcome = check_phi3_bound(psi, epsilon_family(1e-3, 0.05, 0.0, grid, quad), ham)
        assert outcome.passed

    def test_phi3_bound_on_interior_ground_state(self, deep_reference):
        grid, quad, basis, ham = deep_reference
        kappa = 0.05
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-10, seed=9)
        psi = state.vector.copy()
        psi[basis.grade_end(basis.n_max - 8) :] = 0.0
        psi /= np.linalg.norm(psi)
        outcome = check_phi3_bound(psi, optimize_epsilon(kappa, state.e0, grid, quad), ham)
        assert outcome.passed, outcome.context

    def test_number_bound_zero_coupling(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.0), basis.dim, tol=1e-10, seed=10)
        outcome = check_number_bound(state, epsilon_family(1.0, 0.0, state.e0, grid, quad), ham)
        assert outcome.passed
        assert outcome.measured == pytest.approx(0.0, abs=1e-18)

    def test_number_bound_reference(self, reference_model):
        grid, quad, basis, ham = reference_model
        kappa = 0.05
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=11)
        fam = optimize_epsilon(kappa, state.e0, grid, quad)
        outcome = check_number_bound(state, fam, ham)
        assert outcome.passed
        assert outcome.context["slack"] > 0
        assert outcome.context["crosscheck_rel"] <= 1e-12

    def test_overlap_vacuum(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = SpectralResult(
            e0=0.0, vector=basis.vacuum(), residual=0.0,
            iterations=0, restarts=0, gap_estimate=1.0,
        )
        outcome = check_overlap(state, basis)
        assert outcome.passed
        assert outcome.measured == 1.0

    def test_overlap_one_particle_equality_case(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = SpectralResult(
            e0=1.0, vector=basis.unit((1, 0, 0)), residual=0.0,
            iterations=0, restarts=0, gap_estimate=1.0,
        )
        outcome = check_overlap(state, basis)
        assert outcome.passed  # 0 >= 1 - 1
        assert outcome.measured == 0.0

    def test_overlap_reference(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-11, seed=12)
        outcome = check_overlap(state, basis)
        assert outcome.passed
        assert outcome.context["slack"] >= 0


class TestPullThrough:
    def test_zero_coupling_zero_residual(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.0), basis.dim, tol=1e-11, seed=13)
        outcomes = check_pull_through(state, 0.0, ham)
        assert all(o.passed for o in outcomes)
        assert all(o.measured <= 1e-9 for o in outcomes)

    def test_residual_matches_dense_oracle(self, reference_model):
        grid, quad, basis, ham = reference_model
        kappa = 0.05
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-12, seed=14)
        outcomes = check_pull_through(
            state, kappa, ham, tol=1e-6, lin_tol=1e-13
        )
        dense = DenseModel(grid, quad, basis.n_max)
        hk = dense.hk(kappa)
        _, ann, _ = __import__("oracles").ladder_matrices(3, basis.n_max)
        gs = state.vector
        for i, outcome in enumerate(outcomes):
            lhs = (ann[i] @ gs) / math.sqrt(grid.weights[i])
            src = np.zeros(dense.dim, dtype=complex)
            coefs = quad.weights * quad.chi_values
            for j in range(quad.num_nodes):
                phase = np.exp(-1j * float(grid.modes[i] @ quad.nodes[j]))
                src += coefs[j] * phase * (
                    np.linalg.matrix_power(dense.phi(quad.nodes[j]), 3) @ gs
                )
            y = np.linalg.solve(
                hk + (grid.omega[i] - state.e0) * np.eye(dense.dim), src
            )
            resid = np.linalg.norm(lhs + 2 * math.sqrt(2) * kappa * grid.rho[i] * y)
            expected = resid / (np.linalg.norm(lhs) + 1e-300)
            assert outcome.measured == pytest.approx(expected, rel=1e-6)

    def test_residual_decreases_with_truncation_depth(self):
        kappa = 0.05
        residuals = []
        for n_max in (8, 10, 12):
            grid, quad, basis = make_reference(n_max=n_max)
            ham = HamiltonianSet(basis, grid, quad)
            state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=15)
            outcomes = check_pull_through(state, kappa, ham)
            residuals.append(max(o.measured for o in outcomes))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_caveat_engages_at_reference(self, reference_model):
        # at the reference coupling the residual is the truncation defect alone:
        # the solver part is at roundoff and the defect sits in the top grades
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-11, seed=16)
        outcomes = check_pull_through(state, 0.05, ham, tol=1e-6)
        assert all(o.passed for o in outcomes)
        assert all(o.caveat is not None for o in outcomes)
        for o in outcomes:
            assert o.measured > 1e-6
            assert o.context["unexplained"] <= 1e-9
            assert o.context["interior_defect"] <= 1e-12
            assert o.measured <= o.context["caveat_bound"]

    def test_caveat_refuses_a_perturbed_ground_state(self, reference_model):
        # 1e-3 of an interior vector is an error no truncation explains: the
        # solver part of the split reports it and the check fails
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-11, seed=16)
        noise = interior_vector(basis, 4, seed=5)
        vec = state.vector.copy()
        vec[: len(noise)] += 1e-3 * noise
        perturbed = SpectralResult(
            e0=state.e0,
            vector=vec / np.linalg.norm(vec),
            residual=state.residual,
            iterations=state.iterations,
            restarts=state.restarts,
            gap_estimate=state.gap_estimate,
        )
        outcomes = check_pull_through(perturbed, 0.05, ham, tol=1e-6)
        assert all(o.status == "fail" for o in outcomes)
        for o in outcomes:
            assert o.context["unexplained"] > 1e-6
            assert o.context["interior_defect"] <= 1e-12
            assert o.measured <= o.context["caveat_bound"]

    def test_interior_defect_detects_a_misscaled_source(self, reference_model):
        # the defect vanishes on interior grades only for the true commutator
        # [a_i, HI] = 2 sqrt2 sqrt(w_i) rho_i sum_j c_j e^{-i k_i.x_j} phi_j^3
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-11, seed=16)
        grid_off = copy.copy(grid)
        object.__setattr__(grid_off, "rho", 1.01 * grid.rho)
        ham_off = copy.copy(ham)
        ham_off.grid = grid_off
        outcomes = check_pull_through(state, 0.05, ham_off, tol=1e-6)
        assert all(o.status == "fail" for o in outcomes)
        assert all(o.context["interior_defect"] > 1e-3 for o in outcomes)


class TestAraiIdentities:
    def test_zero_coupling(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = ground_state(ham.hkappa(0.0), basis.dim, tol=1e-11, seed=17)
        outcome = check_arai_identities(state, 0.0, ham)
        assert outcome.passed
        assert outcome.context["energy_residual"] <= 1e-10

    def test_reference_small_coupling(self, reference_model):
        grid, quad, basis, ham = reference_model
        kappa = 0.05
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=18)
        outcome = check_arai_identities(state, kappa, ham)
        assert outcome.passed, outcome.context
        assert outcome.context["energy_residual"] <= 1e-9 * max(1.0, state.e0)
        assert outcome.context["vector_residual"] <= 1e-8

    def test_spectral_condition_violation(self, reference_model):
        grid, quad, basis, ham = reference_model
        kappa = 0.2  # ground energy exceeds min omega = 1 here
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-10, seed=19)
        assert state.e0 > grid.omega.min()
        with pytest.raises(SpectralConditionViolated):
            check_arai_identities(state, kappa, ham)


class TestCheckState:
    def test_report_order_and_spectral_skip(self, reference_model):
        grid, quad, basis, ham = reference_model
        kappa = 0.2  # ground energy exceeds min omega = 1 here
        state = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-10, seed=19)
        fam, outcomes = check_state(state, kappa, ham, ModelParams())
        assert fam == optimize_epsilon(kappa, state.e0, grid, quad)
        assert [o.name for o in outcomes] == [
            f"pull-through[mode {i}]" for i in range(basis.num_modes)
        ] + ["boson-number-bound", "vacuum-overlap", "eigenprojection-identities"]
        assert outcomes[-1].status == "skipped"
        assert "reduced free spectrum" in outcomes[-1].context["reason"]

    def test_fixed_epsilon_and_vanishing_overlap_skip(self, reference_model):
        grid, quad, basis, ham = reference_model
        state = SpectralResult(
            e0=0.5, vector=basis.unit((0, 1, 0)), residual=0.0,
            iterations=0, restarts=0, gap_estimate=1.0,
        )
        params = ModelParams(epsilon_policy="fixed", epsilon_value=1e-3)
        fam, outcomes = check_state(state, 0.05, ham, params)
        assert fam == epsilon_family(1e-3, 0.05, 0.5, grid, quad)
        number = outcomes[-3]
        assert number.context["epsilon"] == 1e-3 and number.threshold == fam.c_number
        assert outcomes[-1].status == "skipped"
        assert "vacuum overlap vanishes" in outcomes[-1].context["reason"]


class TestSweep:
    def test_single_zero_row(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        report = sweep_kappa(ham, consts, ModelParams(kappa_list=(0.0,), seed=20))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.e0 == pytest.approx(0.0, abs=1e-10)
        assert row.e_abs == pytest.approx(0.0, abs=1e-10)
        assert row.e_over_kappa == 0.0
        assert not row.failed

    def test_rejects_unsorted_list(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        with pytest.raises(ConfigError):
            sweep_kappa(ham, consts, ModelParams(kappa_list=(0.1, 0.2)))
        with pytest.raises(ConfigError):
            sweep_kappa(ham, consts, ModelParams(kappa_list=(-0.1,)))

    def test_failed_row_keeps_closed_form_columns(self, reference_model, monkeypatch):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        params = ModelParams(kappa_list=(0.1, 0.05, 0.025), seed=26)
        clean = sweep_kappa(ham, consts, params)
        calls = []

        def fails_at_second_coupling(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise NoConvergence("injected")
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(verify, "ground_state", fails_at_second_coupling)
        report = sweep_kappa(ham, consts, params)
        row = report.rows[1]
        for name in (
            "e0", "residual", "e_abs", "e_over_kappa", "n_expect", "c_eps_kappa",
            "overlap", "pullthrough_resid", "top_grade_weight",
        ):
            assert math.isnan(getattr(row, name)), name
        for name in ("c1_kappa", "rayleigh_bound", "paper_bound"):
            assert math.isfinite(getattr(row, name)), name
            assert getattr(row, name) == getattr(clean.rows[1], name), name
        assert row.failed and row.kappa == 0.05 and row.extras == {}
        assert "kappa=0.05: injected" in report.failures
        assert report.degraded
        assert report.rows[0] == clean.rows[0] and report.rows[2] == clean.rows[2]

    def test_fixed_epsilon_policy_reaches_every_row(self, reference_model):
        grid, quad, basis, ham = reference_model
        params = ModelParams(
            kappa_list=(0.05, 0.025), seed=25, epsilon_policy="fixed", epsilon_value=1e-3
        )
        report = sweep_kappa(ham, compute_constants(ham), params)
        assert len(report.rows) == 2
        for row in report.rows:
            assert not row.failed
            assert row.extras["epsilon_star"] == 1e-3
            fam = epsilon_family(1e-3, row.kappa, row.e0, grid, quad)
            assert row.c_eps_kappa == fam.c_number

    def test_rows_match_dense_energies(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        kappas = (0.1, 0.05, 0.025)
        report = sweep_kappa(ham, consts, ModelParams(kappa_list=kappas, eig_tol=1e-11, seed=21))
        dense = DenseModel(grid, quad, basis.n_max)
        for row, kappa in zip(report.rows, kappas):
            e_dense, _, _ = dense.ground(kappa)
            assert row.e0 == pytest.approx(e_dense, abs=1e-10)
            assert 0.0 <= row.e0 <= row.c1_kappa
            assert row.e0 <= row.rayleigh_bound + 1e-10

    def test_failures_name_each_failed_check(self, reference_model):
        # below the solver's own accuracy no pull-through mode may pass, not
        # even with the truncation caveat
        grid, quad, basis, ham = reference_model
        params = ModelParams(kappa_list=(0.05,), pull_tol=1e-30, seed=27)
        report = sweep_kappa(ham, compute_constants(ham), params)
        assert report.failures == [f"kappa=0.05: pull-through[mode {i}]" for i in range(3)]
        assert report.degraded and not report.rows[0].failed

    def test_sweep_deterministic(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        params = ModelParams(kappa_list=(0.05, 0.025), seed=22)
        r1 = sweep_kappa(ham, consts, params)
        r2 = sweep_kappa(ham, consts, params)
        for a, b in zip(r1.rows, r2.rows):
            assert a.e0 == b.e0
            assert a.n_expect == b.n_expect
            assert a.pullthrough_resid == b.pullthrough_resid

    def test_very_weak_sweep_final_ratio_below_one_percent(self, reference_model):
        # the absolute ratio e/kappa ~ a*kappa dips below 1e-2 only once
        # kappa < 1e-2 / a ~ 1.2e-5 on this grid
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        kappas = tuple(1e-5 * 0.5**i for i in range(3))
        report = sweep_kappa(ham, consts, ModelParams(kappa_list=kappas, eig_tol=1e-13, seed=24))
        assert report.rows[-1].e_over_kappa < 1e-2

    def test_weak_coupling_sweep_confirms_first_order_expansion(self, reference_model):
        # in the asymptotic window the expansion verdicts all hold
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        kappas = tuple(0.002 * 0.5**i for i in range(7))
        report = sweep_kappa(ham, consts, ModelParams(kappa_list=kappas, eig_tol=1e-12, seed=23))
        assert report.tail_ratios_decreasing
        assert report.ratio_final_over_first < 0.10
        assert report.fit_within_factor3, report.fit_over_a
        overlaps = [r.overlap for r in report.rows]
        assert all(a < b for a, b in zip(overlaps, overlaps[1:]))
        tilde_norms = [
            c["context"]["tilde_norm"]
            for r in report.rows
            for c in r.extras["checks"]
            if "tilde_norm" in c["context"]
        ]
        assert all(a > b for a, b in zip(tilde_norms, tilde_norms[1:]))
        assert tilde_norms[-1] == pytest.approx(1.0, abs=1e-4)
