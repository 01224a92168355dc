"""Field operator, quartic interaction, and total Hamiltonian.

The interaction HI = sum_j c_j phi(x_j)^4, c_j = u_j chi(x_j), is never
assembled.  The truncated field is translation covariant, phi(x) = D_x phi(0)
D_x^+ with the diagonal phase D_x = exp(-i p_n . x), so HI v = sum_j c_j D_j
phi(0)^4 D_j^+ v is four batched applications of the field at the origin to
the rows D_j^+ v, one per node where c_j is nonzero (``field_powers``).  The
smearing at the origin is real, so each application is one float64 sparse
product on the real and imaginary parts of the rows.  Each power is exactly
Hermitian, since the truncated Segal field is self-adjoint.  No normal-ordered
expansion is attempted.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fock import FockBasis, OperatorHandle, apply_smeared
from .grid import ModeGrid, SpatialQuadrature


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
    """Quartic interaction sum_j u_j chi(x_j) phi(x_j)^4 v, one-off ``HamiltonianSet.hi``."""
    return HamiltonianSet(basis, grid, quad).hi(v)


class HamiltonianSet:
    """Handles for the free, interaction, and total Hamiltonians.

    Precomputes the diagonal free energies ``esum = sum_i n_i omega_i`` (the
    diagonal of H0), the active quadrature ``nodes`` x_j (those where c_j =
    u_j chi(x_j) is nonzero), their weights ``coef`` c_j and the
    ``(N_active, dim)`` phase table ``phases``, whose row j is the diagonal of
    D_j = exp(-i p_n . x_j), p_n = sum_i n_i k_i the total momentum of basis
    state n.  So a matvec costs one batched field application per power of
    the field.  The handles close over these arrays, not over the set, so a
    set is freed as soon as it is unreferenced.
    """

    def __init__(self, basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature):
        self.basis = basis
        self.grid = grid
        self.quadrature = quad
        weights = quad.weights * quad.chi_values
        active = np.nonzero(weights)[0]
        self.nodes, coef = quad.nodes[active], weights[active]
        phases = np.exp(-1j * ((basis.states @ grid.modes) @ self.nodes.T)).T
        esum = basis.states @ grid.omega
        self.coef, self.phases, self.esum = coef, phases, esum
        self.h0 = OperatorHandle(apply=lambda v: esum * v, dim=basis.dim)
        self.hi = OperatorHandle(
            apply=lambda v: coef @ field_powers(basis, grid, phases, v, 4), dim=basis.dim
        )

    def hkappa(self, kappa: float) -> OperatorHandle:
        if kappa < 0:
            raise ConfigError("coupling kappa must be nonnegative")
        if kappa == 0.0:
            return self.h0
        esum, hi = self.esum, self.hi.apply
        return OperatorHandle(apply=lambda v: esum * v + kappa * hi(v), dim=self.basis.dim)

