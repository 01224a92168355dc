"""Smoke coverage of the d = 2 path: tensor grids, ball cutoffs, 2-D quadrature."""

import numpy as np
import pytest

from oracles import DenseModel

from phi4lab import (
    CutoffSpec,
    build_grid,
    build_spatial_quadrature,
    check_ccr,
    check_free_commutators,
    enumerate_basis,
    first_order_coefficient,
    ground_state,
    rayleigh_upper_bound,
)
from phi4lab.fock import apply_smeared
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.theory import compute_constants

from conftest import conjugated_field


@pytest.fixture(scope="module")
def planar_model():
    grid = build_grid(2, 1.0, CutoffSpec("indicator", (10.0,)), kmax=1.0, modes_per_axis=2)
    quad = build_spatial_quadrature(2, CutoffSpec("indicator", (1.0,)), 3)
    basis = enumerate_basis(grid.num_modes, 4)
    return grid, quad, basis, HamiltonianSet(basis, grid, quad)


def test_tensor_grid_layout(planar_model):
    grid, quad, basis, _ = planar_model
    assert grid.num_modes == 4
    assert np.allclose(np.abs(grid.modes), 0.5)
    assert np.allclose(grid.weights, 1.0)
    assert np.allclose(grid.omega, np.sqrt(1.5))


def test_ball_quadrature_mass(planar_model):
    # 3x3 nodes on [-1,1]^2; the corner nodes fall outside the unit ball
    grid, quad, basis, _ = planar_model
    assert quad.num_nodes == 9
    inside = quad.chi_values > 0
    assert inside.sum() == 5
    assert quad.chi_l1 == pytest.approx(3.0)  # center 1 + four edges 1/2


def test_identities_hold_in_two_dimensions(planar_model):
    grid, quad, basis, ham = planar_model
    assert check_ccr(ham, count=25, seed=1).passed
    assert check_free_commutators(ham, count=25, seed=2).passed


def test_field_is_the_phase_conjugated_field_at_the_origin(planar_model):
    grid, quad, basis, ham = planar_model
    rng = np.random.default_rng(8)
    for x in quad.nodes[quad.chi_values > 0]:
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        lhs = apply_smeared(basis, grid, grid.smearing_at(x), v, "segal")
        assert np.linalg.norm(lhs - conjugated_field(basis, grid, x, v)) <= 1e-14 * np.linalg.norm(lhs)
    hi = DenseModel(grid, quad, basis.n_max).hi()
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    assert np.abs(ham.hi(v) - hi @ v).max() <= 1e-14 * np.abs(hi).max()


def test_first_order_coefficient_matches_matrix_element(planar_model):
    grid, quad, basis, ham = planar_model
    val = np.vdot(basis.vacuum(), ham.hi(basis.vacuum()))
    assert first_order_coefficient(grid, quad) == pytest.approx(val.real, rel=1e-12)


def test_ground_state_matches_dense(planar_model):
    grid, quad, basis, ham = planar_model
    dense = DenseModel(grid, quad, basis.n_max)
    kappa = 0.02
    e_dense, _, _ = dense.ground(kappa)
    res = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=3)
    assert res.e0 == pytest.approx(e_dense, abs=1e-10)


def test_variational_bound_in_two_dimensions():
    grid = build_grid(2, 1.0, CutoffSpec("indicator", (10.0,)), kmax=1.0, modes_per_axis=2)
    quad = build_spatial_quadrature(2, CutoffSpec("indicator", (1.0,)), 3)
    basis = enumerate_basis(grid.num_modes, 8)
    ham = HamiltonianSet(basis, grid, quad)
    consts = compute_constants(ham)
    kappa = 0.02
    e0 = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-10, seed=4).e0
    assert 0.0 <= e0 <= kappa * consts.c1
    assert e0 <= rayleigh_upper_bound(kappa, consts) + 1e-10
