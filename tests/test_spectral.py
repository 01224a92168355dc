import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles import DenseModel, rayleigh_quotient

from phi4lab import (
    CutoffSpec,
    IndefiniteShift,
    NearDegenerateWarning,
    NoConvergence,
    build_grid,
    build_spatial_quadrature,
    enumerate_basis,
    ground_state,
    solve_shifted,
)
from phi4lab.config import build_model, parse_config
from phi4lab.fock import OperatorHandle
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.spectral import BLOCK_STEPS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def overflowing_model():
    """Mode weights of 1e300 (``[grid] modes = -2 ; 0 ; 2``, ``weights = 1e300 1e300 1e300``)
    at depth 6: valid inputs whose H v overflows to inf and NaN."""
    uv = CutoffSpec("indicator", (-10.0, 10.0))
    grid = build_grid(1, 1.0, uv, modes=np.array([[-2.0], [0.0], [2.0]]), weights=np.full(3, 1e300))
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 9)
    return HamiltonianSet(enumerate_basis(3, 6), grid, quad)


def diag_handle(values):
    values = np.asarray(values, dtype=float)
    return OperatorHandle(apply=lambda v: values * v, dim=len(values))


class TestGroundState:
    def test_free_hamiltonian_ground_is_vacuum(self, reference_model):
        grid, quad, basis, ham = reference_model
        res = ground_state(ham.hkappa(0.0), basis.dim, tol=1e-10, seed=3)
        assert res.e0 == pytest.approx(0.0, abs=1e-10)
        assert abs(res.vector[0]) == pytest.approx(1.0, abs=1e-9)
        assert res.residual <= 1e-10

    def test_single_mode_matches_dense_diagonalization(self, single_mode_model):
        grid, quad, basis, ham = single_mode_model
        dense = DenseModel(grid, quad, basis.n_max)
        e_dense, _, _ = dense.ground(0.1)
        res = ground_state(ham.hkappa(0.1), basis.dim, tol=1e-12, seed=0)
        assert res.e0 == pytest.approx(e_dense, abs=1e-10)
        # one block spans the whole space: no restart
        assert basis.dim < BLOCK_STEPS and res.restarts == 0

    def test_reference_matches_dense(self, reference_model):
        grid, quad, basis, ham = reference_model
        dense = DenseModel(grid, quad, basis.n_max)
        for kappa in (0.05, 0.2):
            e_dense, _, _ = dense.ground(kappa)
            res = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=1)
            assert res.e0 == pytest.approx(e_dense, abs=1e-10)
        assert res.restarts >= 2  # kappa 0.2 needs at least two thick restarts

    def test_energy_monotone_in_coupling(self, single_mode_model):
        grid, quad, basis, ham = single_mode_model
        energies = [
            ground_state(ham.hkappa(k), basis.dim, tol=1e-11, seed=2).e0
            for k in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_determinism(self, reference_model):
        grid, quad, basis, ham = reference_model
        a = ground_state(ham.hkappa(0.1), basis.dim, tol=1e-10, seed=42)
        b = ground_state(ham.hkappa(0.1), basis.dim, tol=1e-10, seed=42)
        assert a.e0 == b.e0
        assert np.array_equal(a.vector, b.vector)

    def test_phase_convention(self, reference_model):
        grid, quad, basis, ham = reference_model
        res = ground_state(ham.hkappa(0.1), basis.dim, tol=1e-10, seed=11)
        assert res.vector[0].imag == pytest.approx(0.0, abs=1e-12)
        assert res.vector[0].real > 0

    def test_near_degenerate_warning(self):
        handle = diag_handle([1.0, 1.0 + 1e-12, 3.0])
        with pytest.warns(NearDegenerateWarning):
            res = ground_state(handle, 3, tol=1e-10, seed=0)
        assert res.near_degenerate

    def test_no_convergence(self, reference_model):
        grid, quad, basis, ham = reference_model
        with pytest.raises(NoConvergence):
            ground_state(ham.hkappa(0.1), basis.dim, tol=1e-14, max_iter=3, seed=0)

    def test_stops_at_the_roundoff_floor(self):
        # weak_coupling.ini at depth 20 and kappa 0.5: ||H|| is about 6.6e3, so
        # the residual stalls near 1.8e-12 (eps ||H|| = 1.5e-12), above eig_tol
        params = dataclasses.replace(parse_config(CONFIGS / "weak_coupling.ini"), n_max=20)
        grid, quad, basis = build_model(params)
        even = HamiltonianSet(basis, grid, quad).even
        h, matvecs = even.hkappa(0.5), []
        counted = OperatorHandle(lambda v: matvecs.append(1) or h(v), even.dim)
        with pytest.raises(NoConvergence, match="roundoff floor"):
            ground_state(counted, even.dim, tol=params.eig_tol, max_iter=params.max_iter, seed=params.seed)
        assert len(matvecs) <= 1000

    def test_stops_at_a_residual_that_is_not_finite(self, overflowing_model):
        # a NaN residual fails every comparison of the stall test, so the run stops on it
        # where it first appears, at the end of the first block
        even, matvecs = overflowing_model.even, []
        h = even.hkappa(0.05)
        counted = OperatorHandle(lambda v: matvecs.append(1) or h(v), even.dim, real=h.real)
        with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="residual is nan .* not finite"):
            ground_state(counted, even.dim, tol=1e-10, max_iter=20_000, seed=7)
        assert len(matvecs) <= BLOCK_STEPS + 1

    def test_gap_estimate(self):
        handle = diag_handle([0.0, 2.5, 7.0])
        res = ground_state(handle, 3, tol=1e-12, seed=4)
        assert res.gap_estimate == pytest.approx(2.5, rel=1e-9)

    def test_gap_estimate_matches_the_dense_gap(self, reference_model):
        # thick restart keeps the second Ritz vector, so it converges to e1
        grid, quad, basis, ham = reference_model
        dense = DenseModel(grid, quad, basis.n_max)
        for kappa in (0.05, 0.2):
            e0, _, evals = dense.ground(kappa)
            for seed in (3, 7, 11):
                res = ground_state(ham.hkappa(kappa), basis.dim, seed=seed)
                assert abs(res.gap_estimate - (evals[1] - e0)) <= 1e-8, (kappa, seed)

    def test_breakdown_on_invariant_subspace(self):
        # three distinct eigenvalues: the Krylov space closes after three steps
        values = np.repeat([0.5, 2.0, 3.5], 20)
        res = ground_state(diag_handle(values), len(values), tol=1e-12, seed=5)
        assert res.e0 == pytest.approx(0.5, abs=1e-14)
        assert res.gap_estimate == pytest.approx(1.5, abs=1e-13)
        assert res.iterations == 4 and res.restarts == 0
        # a tolerance below roundoff cannot be met on the invariant subspace
        with pytest.raises(NoConvergence):
            ground_state(diag_handle(values), len(values), tol=1e-20, seed=5)


class TestSolveShifted:
    def test_free_vacuum_fixed_point(self, reference_model):
        grid, quad, basis, ham = reference_model
        out, _, _ = solve_shifted(
            ham.h0, 1.0, basis.vacuum(), precond=ham.esum + 1.0, tol=1e-13, emin=0.0
        )
        assert np.linalg.norm(out - basis.vacuum()) < 1e-12

    def test_diagonal_oracle(self):
        values = np.array([0.5, 1.0, 2.0, 5.0])
        handle = diag_handle(values)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out, _, _ = solve_shifted(handle, 0.7, rhs, precond=np.ones(4), tol=1e-14, emin=0.5)
        assert np.allclose(out, rhs / (values + 0.7), atol=1e-12)

    def test_exact_preconditioner_takes_one_iteration(self):
        values = np.array([0.5, 1.0, 2.0, 5.0])
        rhs = np.array([1.0, -2.0j, 0.5 + 0.5j, 3.0])
        out, iterations, residual = solve_shifted(
            diag_handle(values), 0.7, rhs, precond=values + 0.7, tol=1e-12, emin=0.5
        )
        assert iterations == 1 and residual <= 1e-12
        assert np.allclose(out, rhs / (values + 0.7), atol=1e-14)

    def test_round_trip_residual(self, reference_model):
        # at kappa 0.2, e0 exceeds omega_min, so the preconditioner esum + omega
        # must not carry the -e0 of the shift (its vacuum entry would go negative)
        grid, quad, basis, ham = reference_model
        omega = grid.omega.min()
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        for kappa in (0.05, 0.2):
            hk = ham.hkappa(kappa)
            state = ground_state(hk, basis.dim, tol=1e-11, seed=5)
            shift = omega - state.e0
            out, _, residual = solve_shifted(
                hk, shift, rhs, precond=ham.esum + omega, tol=1e-12, emin=state.e0
            )
            back = hk(out) + shift * out
            assert residual <= 1e-12
            assert np.linalg.norm(back - rhs) <= 1e-11 * np.linalg.norm(rhs)
        assert state.e0 > omega

    def test_stops_at_a_residual_that_is_not_finite(self, overflowing_model):
        odd, matvecs = overflowing_model.odd, []
        h = odd.hkappa(0.05)
        counted = OperatorHandle(lambda v: matvecs.append(1) or h(v), odd.dim, real=h.real)
        with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="residual is nan after 1 iterations"):
            solve_shifted(counted, 1.0, np.ones(odd.dim), precond=odd.esum + 1.0, emin=0.0)
        assert len(matvecs) == 1

    def test_indefinite_shift_rejected(self):
        handle = diag_handle([1.0, 2.0])
        with pytest.raises(IndefiniteShift):
            solve_shifted(handle, -1.5, np.ones(2, dtype=complex), precond=np.ones(2), emin=1.0)

    def test_nonpositive_preconditioner_rejected(self):
        handle = diag_handle([1.0, 2.0])
        for precond in ([1.0, 0.0], [-1.0, 2.0]):
            with pytest.raises(ValueError):
                solve_shifted(
                    handle, 0.5, np.ones(2, dtype=complex), precond=np.array(precond), emin=1.0
                )

    def test_zero_rhs(self):
        handle = diag_handle([1.0, 2.0])
        out, iterations, _ = solve_shifted(
            handle, 0.5, np.zeros(2, dtype=complex), precond=np.ones(2), emin=1.0
        )
        assert np.all(out == 0.0) and iterations == 0


class TestRayleigh:
    def test_vacuum_quotient_is_first_order_energy(self, reference_model):
        grid, quad, basis, ham = reference_model
        from phi4lab.theory import first_order_coefficient

        kappa = 0.07
        q = rayleigh_quotient(ham.hkappa(kappa), basis.vacuum())
        assert q == pytest.approx(kappa * first_order_coefficient(grid, quad), rel=1e-12)

    def test_ground_vector_quotient(self, reference_model):
        grid, quad, basis, ham = reference_model
        hk = ham.hkappa(0.1)
        res = ground_state(hk, basis.dim, tol=1e-11, seed=6)
        assert rayleigh_quotient(hk, res.vector) == pytest.approx(res.e0, abs=1e-10)

    def test_variational_principle(self, reference_model):
        grid, quad, basis, ham = reference_model
        hk = ham.hkappa(0.1)
        e0 = ground_state(hk, basis.dim, tol=1e-11, seed=7).e0
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            assert rayleigh_quotient(hk, v) >= e0 - 1e-10
