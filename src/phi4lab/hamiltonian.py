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

Parity sectors.  The field changes the boson number by one, so H(kappa)
commutes with (-1)^N: the ground state is even, a_i psi and the phi^3 source
odd.  Each grade is one graded-lex range, so a sector (``ham.even``,
``ham.odd``) is a union of ranges.  Its handles cost half a full matvec, each
field power one float64 product of ``origin_block``, phi(0) from the even to
the odd states, or of its transpose (the origin smearing is real).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse

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


class _Couplings:
    """``hkappa`` from the free diagonal ``esum`` and the handles ``h0``, ``hi``."""

    def hkappa(self, kappa: float) -> OperatorHandle:
        if kappa < 0:
            raise ConfigError("coupling kappa must be nonnegative")
        if kappa == 0.0:
            return self.h0
        esum, hi = self.esum, self.hi.apply
        return OperatorHandle(apply=lambda v: esum * v + kappa * hi(v), dim=len(esum))


class HamiltonianSet(_Couplings):
    """Handles for the free, interaction, and total Hamiltonians.

    Precomputes the diagonal free energies ``esum = sum_i n_i omega_i`` (the
    diagonal of H0), the active quadrature ``nodes`` x_j (those where c_j =
    u_j chi(x_j) is nonzero), their weights ``coef`` c_j and the
    ``(N_active, dim)`` phase table ``phases``, whose row j is the diagonal of
    D_j = exp(-i p_n . x_j), p_n = sum_i n_i k_i the total momentum of basis
    state n.  So a matvec costs one batched field application per power of
    the field.  The handles close over these arrays, not over the set, so a
    set is freed as soon as it is unreferenced.  The parity sectors ``even``
    and ``odd`` and their ``origin_block`` are built on first use.
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

    @functools.cached_property
    def origin_block(self) -> scipy.sparse.csr_matrix:
        """phi(0) from the even (columns) to the odd states (rows), in O(nnz): each
        ladder entry joins an even and an odd state, valued as in ``apply_smeared``."""
        basis, grid, t = self.basis, self.grid, self.basis.ladders
        origin = grid.smearing_at(np.zeros(grid.dimension))
        vals = (np.sqrt(grid.weights) / math.sqrt(2.0) * origin).real[t.mode] * t.amp
        odd = basis.grades % 2 == 1
        local = np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1  # index within its sector
        src_odd = odd[t.src]
        rows, cols = local[np.where(src_odd, t.src, t.dst)], local[np.where(src_odd, t.dst, t.src)]
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(odd.sum(), (~odd).sum()))

    even = functools.cached_property(lambda self: ParitySector(self, 0))
    odd = functools.cached_property(lambda self: ParitySector(self, 1))


class ParitySector(_Couplings):
    """H0, HI and H(kappa) on the states of one boson-number parity (0 even, 1 odd).

    ``index`` lists the sector's states, ``esum`` is its free diagonal and
    ``phases`` its ``(dim, N_active)`` slice of the phase table.  The handles
    act on vectors of length ``dim``, each field power one float64 product of
    ``origin_block`` or its transpose; ``embed`` returns to the full basis.
    """

    def __init__(self, ham: HamiltonianSet, parity: int):
        self.full_dim = ham.basis.dim
        self.index = np.flatnonzero(ham.basis.grades % 2 == parity)
        self.dim = len(self.index)
        self.esum = esum = ham.esum[self.index]
        self.phases = phases = np.ascontiguousarray(ham.phases[:, self.index].T)
        coef, block = ham.coef, ham.origin_block
        steps = (block, block.T) if parity == 0 else (block.T, block)

        def hi(v):
            w = np.conj(phases) * v[:, None]
            for power in range(4):
                w = (steps[power % 2] @ w.view(np.float64)).view(complex)
            return (phases * w) @ coef

        self.h0 = OperatorHandle(apply=lambda v: esum * v, dim=self.dim)
        self.hi = OperatorHandle(apply=hi, dim=self.dim)

    def embed(self, v: np.ndarray) -> np.ndarray:
        """The sector vector ``v`` as a full graded-lex vector, zero off the sector."""
        out = np.zeros(self.full_dim, dtype=complex)
        out[self.index] = v
        return out
