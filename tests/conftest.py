import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phi4lab import (
    CutoffSpec,
    build_grid,
    build_spatial_quadrature,
    enumerate_basis,
)
from phi4lab.fock import OperatorHandle, apply_smeared
from phi4lab.hamiltonian import HamiltonianSet


def make_reference(n_max=8):
    """The checked-in reference configuration (optionally deeper truncation)."""
    grid = build_grid(
        1, 1.0, CutoffSpec("indicator", (-10.0, 10.0)), kmax=3.0, modes_per_axis=3
    )
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 9)
    basis = enumerate_basis(grid.num_modes, n_max)
    return grid, quad, basis


def make_single_mode(n_max=12, chib=1.0):
    """One mode at k = 0 with unit mass and weight: omega = 1, rho = chib."""
    uv = CutoffSpec("tabulated", table=((0.0, chib),))
    grid = build_grid(1, 1.0, uv, modes=np.array([[0.0]]), weights=np.array([1.0]))
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-0.5, 0.5)), 1)
    basis = enumerate_basis(1, n_max)
    return grid, quad, basis


def make_two_mode(n_max=4, chib=0.5, nodes=5):
    """Two symmetric modes at k = +-1 with unit weights."""
    uv = CutoffSpec("tabulated", table=((0.0, chib), (2.0, chib)))
    grid = build_grid(
        1, 1.0, uv, modes=np.array([[-1.0], [1.0]]), weights=np.array([1.0, 1.0])
    )
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), nodes)
    basis = enumerate_basis(2, n_max)
    return grid, quad, basis


def field_handle(basis, grid, x):
    """phi(x) as a handle: the Segal field of the smearing rho exp(-i k.x)."""
    f = grid.smearing_at(x)
    return OperatorHandle(lambda v: apply_smeared(basis, grid, f, v, "segal"), basis.dim)


def conjugated_field(basis, grid, x, v):
    """D_x phi(0) D_x^+ v with D_x = exp(-i p_n . x) built from the states."""
    phase = np.exp(-1j * ((basis.states @ grid.modes) @ np.atleast_1d(x)))
    origin = grid.smearing_at(np.zeros(grid.dimension))
    return phase * apply_smeared(basis, grid, origin, np.conj(phase) * v, "segal")


@pytest.fixture(scope="session")
def reference_model():
    grid, quad, basis = make_reference()
    return grid, quad, basis, HamiltonianSet(basis, grid, quad)


@pytest.fixture(scope="session")
def single_mode_model():
    grid, quad, basis = make_single_mode()
    return grid, quad, basis, HamiltonianSet(basis, grid, quad)


@pytest.fixture(scope="session")
def two_mode_model():
    grid, quad, basis = make_two_mode()
    return grid, quad, basis, HamiltonianSet(basis, grid, quad)
