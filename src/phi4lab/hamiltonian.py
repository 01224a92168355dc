"""Field operator, quartic interaction, and total Hamiltonian.

The interaction HI = sum_j c_j phi(x_j)^4, c_j = u_j chi(x_j), is never
assembled.  The truncated field is translation covariant, phi(x) = D_x phi(0)
D_x^+ with the diagonal phase D_x = exp(-i p_n . x), so HI v = sum_j c_j D_j
phi(0)^4 D_j^+ v is four batched applications of the field at the origin to
the rows D_j^+ v, one per node where c_j is nonzero (``field_powers``).  Each
power is exactly Hermitian, since the truncated Segal field is self-adjoint.
No normal-ordered expansion is attempted.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse

from .errors import BasisTooLarge, ConfigError
from .fock import (
    FockBasis,
    OperatorHandle,
    apply_dgamma_omega,
    apply_smeared,
    free_energies,
)
from .grid import ModeGrid, SpatialQuadrature

DEFAULT_ASSEMBLY_CAP = 20_000


def build_field(basis: FockBasis, grid: ModeGrid, x) -> OperatorHandle:
    """Hermitian field at a spatial point: Segal field of rho * exp(-i k.x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    smearing = grid.smearing_at(x)
    return OperatorHandle(
        apply=lambda v: apply_smeared(basis, grid, smearing, v, "segal"),
        dim=basis.dim,
        hermitian=True,
        descriptor=f"phi(x={np.round(x, 12).tolist()})",
    )


def node_phases(
    basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active quadrature nodes x_j, their weights c_j = u_j chi(x_j), and phases.

    Row j of the phase table is the diagonal of D_j = exp(-i p_n . x_j),
    p_n = sum_i n_i k_i the total momentum of basis state n.  Nodes where
    c_j vanishes are dropped.
    """
    coef = quad.weights * quad.chi_values
    active = np.nonzero(coef)[0]
    momenta = basis.states @ grid.modes
    phases = np.exp(-1j * (momenta @ quad.nodes[active].T)).T
    return quad.nodes[active], coef[active], phases


def field_powers(
    basis: FockBasis, grid: ModeGrid, phases: np.ndarray, v: np.ndarray, power: int
) -> np.ndarray:
    """Rows phi(x_j)^power v_j for every node j of a phase table.

    Uses phi(x) = D_x phi(0) D_x^+, exact under truncation because D_x is
    diagonal: one batched field application per power serves every node.
    ``v`` is one vector (used at every node) or one row per node.
    """
    origin = grid.smearing_at(np.zeros(grid.dimension))
    w = np.conj(phases) * v
    for _ in range(power):
        w = apply_smeared(basis, grid, origin, w, "segal")
    return phases * w


def apply_interaction(
    basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature, v: np.ndarray
) -> np.ndarray:
    """Quartic interaction: sum_j u_j chi(x_j) phi(x_j)^4 v (grade reach 4)."""
    _, coef, phases = node_phases(basis, grid, quad)
    return coef @ field_powers(basis, grid, phases, v, 4)


def apply_total(
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    kappa: float,
    v: np.ndarray,
) -> np.ndarray:
    """Total Hamiltonian action: free part plus kappa times the interaction."""
    if kappa < 0:
        raise ConfigError("coupling kappa must be nonnegative")
    out = apply_dgamma_omega(basis, grid, v)
    if kappa != 0.0:
        out = out + kappa * apply_interaction(basis, grid, quad, v)
    return out


class HamiltonianSet:
    """Handles for the free, interaction, and total Hamiltonians.

    Precomputes the diagonal free energies, the active ``nodes``, their
    weights ``coef`` and the ``(N_active, dim)`` phase table ``phases`` (see
    ``node_phases``), so a matvec costs one batched field application per
    power of the field.  The handles close over these arrays, not over the
    set, so a set is freed as soon as it is unreferenced.
    """

    def __init__(self, basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature):
        self.basis = basis
        self.grid = grid
        self.quadrature = quad
        self.nodes, coef, phases = node_phases(basis, grid, quad)
        esum = free_energies(basis, grid)
        self.coef, self.phases, self._esum = coef, phases, esum
        self.h0 = OperatorHandle(
            apply=lambda v: esum * v, dim=basis.dim, hermitian=True, descriptor="H0"
        )
        self.hi = OperatorHandle(
            apply=lambda v: coef @ field_powers(basis, grid, phases, v, 4),
            dim=basis.dim,
            hermitian=True,
            descriptor="HI",
        )

    def hkappa(self, kappa: float) -> OperatorHandle:
        if kappa < 0:
            raise ConfigError("coupling kappa must be nonnegative")
        if kappa == 0.0:
            return dataclasses.replace(self.h0, descriptor="H(kappa=0)")
        esum, hi = self._esum, self.hi.apply
        return OperatorHandle(
            apply=lambda v: esum * v + kappa * hi(v),
            dim=self.basis.dim,
            hermitian=True,
            descriptor=f"H(kappa={kappa!r})",
        )


def assemble_sparse(
    handle: OperatorHandle, basis: FockBasis, cap: int = DEFAULT_ASSEMBLY_CAP
) -> scipy.sparse.csc_matrix:
    """Explicit sparse matrix of a handle, column by column on unit vectors."""
    if basis.dim > cap:
        raise BasisTooLarge(basis.dim, cap)
    cols = []
    e = np.zeros(basis.dim, dtype=complex)
    for j in range(basis.dim):
        e[j] = 1.0
        cols.append(scipy.sparse.csc_matrix(handle(e).reshape(-1, 1)))
        e[j] = 0.0
    return scipy.sparse.hstack(cols, format="csc")
