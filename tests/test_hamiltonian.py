import math
import weakref

import numpy as np
import pytest

from oracles import DenseModel

from phi4lab import (
    BasisTooLarge,
    ConfigError,
    CutoffSpec,
    apply_interaction,
    apply_total,
    assemble_sparse,
    build_field,
    build_grid,
    build_spatial_quadrature,
    enumerate_basis,
)
from phi4lab.fock import apply_dgamma_omega, apply_smeared
from phi4lab.hamiltonian import HamiltonianSet

from conftest import conjugated_field, make_reference, make_single_mode, make_two_mode


def rand_vec(basis, seed=0, interior=None):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if interior is not None:
        v[~basis.interior_mask(interior)] = 0.0
    return v / np.linalg.norm(v)


class TestField:
    def test_smearing_real_at_origin(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        smearing = grid.smearing_at(0.0)
        assert np.allclose(smearing.imag, 0.0)
        assert np.allclose(smearing.real, grid.rho)

    def test_smearing_modulus_is_phase_free(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        for x in (0.0, 0.37, -2.5):
            assert np.allclose(np.abs(grid.smearing_at(x)), grid.rho)

    def test_vacuum_second_moment(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        rho2 = float(np.sum(grid.weights * grid.rho**2))
        for x in (0.0, 1.3):
            fld = build_field(basis, grid, x)
            val = np.vdot(basis.vacuum(), fld(fld(basis.vacuum())))
            assert val.real == pytest.approx(rho2 / 2.0, rel=1e-13)
            assert abs(val.imag) < 1e-15
            # dense oracle route
            dense = DenseModel(grid, quad, basis.n_max)
            mat = dense.phi(x)
            assert (mat @ mat)[0, 0].real == pytest.approx(rho2 / 2.0, rel=1e-13)

    def test_fields_commute_on_symmetric_grid(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        f1 = build_field(basis, grid, 0.4)
        f2 = build_field(basis, grid, -1.1)
        v = rand_vec(basis, seed=4, interior=2)
        comm = f1(f2(v)) - f2(f1(v))
        assert np.linalg.norm(comm) < 1e-13
        dense = DenseModel(grid, quad, basis.n_max)
        m1, m2 = dense.phi(0.4), dense.phi(-1.1)
        assert np.linalg.norm((m1 @ m2 - m2 @ m1) @ v) < 1e-13


class TestTranslationCovariance:
    def test_field_is_the_phase_conjugated_field_at_the_origin(self):
        grid, quad, basis = make_reference(n_max=8)
        for seed, x in enumerate((0.0, 0.37, -1.0, 2.5)):
            v = rand_vec(basis, seed=seed)
            lhs = apply_smeared(basis, grid, grid.smearing_at(x), v, "segal")
            rhs = conjugated_field(basis, grid, x, v)
            assert np.linalg.norm(lhs - rhs) <= 1e-14 * np.linalg.norm(lhs)

    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.2, 1.5)])
    def test_interaction_matches_dense_oracle(self, interval):
        # the off-centre interval is not reflection symmetric, so a wrong
        # phase sign (phi(-x_j) for phi(x_j)) shows
        grid, _, basis = make_two_mode()
        quad = build_spatial_quadrature(1, CutoffSpec("indicator", interval), 4)
        ham = HamiltonianSet(basis, grid, quad)
        hi = DenseModel(grid, quad, basis.n_max).hi()
        scale = np.abs(hi).max()
        for seed in range(5):
            v = rand_vec(basis, seed=40 + seed)
            assert np.abs(ham.hi(v) - hi @ v).max() <= 1e-14 * scale
            assert np.abs(apply_interaction(basis, grid, quad, v) - hi @ v).max() <= 1e-14 * scale

    def test_set_is_freed_without_the_cycle_collector(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        ham = HamiltonianSet(basis, grid, quad)
        handles = (ham.h0, ham.hi, ham.hkappa(0.1))
        ref = weakref.ref(ham)
        del ham
        assert ref() is None
        assert all(h(basis.vacuum()).shape == (basis.dim,) for h in handles)


class TestInteraction:
    def test_zero_cutoff_gives_zero(self):
        grid = build_grid(1, 1.0, modes=np.array([[0.0]]), weights=np.array([1.0]))
        quad = build_spatial_quadrature(
            1, CutoffSpec("tabulated", table=((0.0, 0.0), (1.0, 0.0))), 3
        )
        basis = enumerate_basis(1, 4)
        out = apply_interaction(basis, grid, quad, rand_vec(basis))
        assert np.all(out == 0.0)

    def test_vacuum_expectation_single_mode(self, single_mode_model):
        grid, quad, basis, ham = single_mode_model
        val = np.vdot(basis.vacuum(), ham.hi(basis.vacuum()))
        assert val.real == pytest.approx(0.75, rel=1e-13)

    def test_vacuum_expectation_wick_vs_dense(self):
        grid, quad, basis = make_two_mode(n_max=6)
        dense = DenseModel(grid, quad, 6)
        rho2 = float(np.sum(grid.weights * grid.rho**2))
        wick = quad.chi_l1 * 0.75 * rho2**2
        assert dense.hi()[0, 0].real == pytest.approx(wick, rel=1e-12)
        val = np.vdot(basis.vacuum(), apply_interaction(basis, grid, quad, basis.vacuum()))
        assert val.real == pytest.approx(wick, rel=1e-12)

    def test_total_at_zero_coupling_is_free(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        v = rand_vec(basis, seed=7)
        assert np.allclose(
            apply_total(basis, grid, quad, 0.0, v),
            apply_dgamma_omega(basis, grid, v),
        )

    def test_total_on_vacuum_is_interaction_only(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        kappa = 0.3
        lhs = apply_total(basis, grid, quad, kappa, basis.vacuum())
        rhs = kappa * apply_interaction(basis, grid, quad, basis.vacuum())
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_negative_coupling_rejected(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        with pytest.raises(ConfigError):
            apply_total(basis, grid, quad, -0.1, basis.vacuum())
        with pytest.raises(ConfigError):
            ham.hkappa(-1.0)

    def test_positivity_of_total(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        hk = ham.hkappa(0.4)
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            val = np.vdot(v, hk(v)).real
            assert val >= -1e-12 * np.vdot(v, v).real

    def test_vacuum_expectation_translation_invariant(self):
        # shifted spatial cutoff with the same quadrature mass leaves <HI> alone
        grid, _, basis = make_two_mode(n_max=4)
        quad_a = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 9)
        quad_b = build_spatial_quadrature(1, CutoffSpec("indicator", (2.0, 4.0)), 9)
        assert quad_a.chi_l1 == pytest.approx(quad_b.chi_l1, abs=1e-15)
        va = np.vdot(basis.vacuum(), apply_interaction(basis, grid, quad_a, basis.vacuum()))
        vb = np.vdot(basis.vacuum(), apply_interaction(basis, grid, quad_b, basis.vacuum()))
        assert va.real == pytest.approx(vb.real, rel=1e-12)


class TestAssembly:
    def test_h0_diagonal(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        mat = assemble_sparse(ham.h0, basis).toarray()
        esum = basis.states @ grid.omega
        assert np.allclose(mat, np.diag(esum), atol=1e-15)

    def test_number_diagonal_integers(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        from phi4lab.fock import OperatorHandle, apply_number

        handle = OperatorHandle(apply=lambda v: apply_number(basis, v), dim=basis.dim)
        mat = assemble_sparse(handle, basis).toarray()
        assert np.allclose(mat, np.diag(basis.grades.astype(float)), atol=0)

    def test_anharmonic_quartic_matrix(self):
        # single mode, rho = 1: interaction is the quartic position power
        grid, quad, basis = make_single_mode(n_max=4)
        from phi4lab.hamiltonian import HamiltonianSet

        ham = HamiltonianSet(basis, grid, quad)
        mat = assemble_sparse(ham.hi, basis).toarray()
        # independent construction: dense ladder, phi = (a + a+)/sqrt2, 4th power
        a = np.diag(np.sqrt(np.arange(1.0, 5.0)), 1)
        phi = (a + a.T) / math.sqrt(2.0)
        assert np.allclose(mat, np.linalg.matrix_power(phi, 4), atol=1e-14)

    def test_matrix_free_matches_assembly_on_unit_vectors(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        hk = ham.hkappa(0.1)
        mat = assemble_sparse(hk, basis)
        e = np.zeros(basis.dim, dtype=complex)
        for j in range(basis.dim):
            e[j] = 1.0
            assert np.allclose(mat[:, [j]].toarray().ravel(), hk(e), atol=1e-14)
            e[j] = 0.0

    def test_assembled_hermitian(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        mat = assemble_sparse(ham.hkappa(0.1), basis).toarray()
        assert np.abs(mat - mat.conj().T).max() <= 1e-14

    def test_assembly_cap(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        with pytest.raises(BasisTooLarge):
            assemble_sparse(ham.h0, basis, cap=basis.dim - 1)


class TestWeakCommutator:
    def test_quartic_weak_commutator_identity(self, two_mode_model):
        grid, quad, basis, _ = two_mode_model
        from phi4lab.verify import check_weak_commutator

        outcome = check_weak_commutator(basis, grid, 0.7, count=50, seed=2, tol=1e-10)
        assert outcome.passed, outcome.context
