"""Field operator, quartic interaction, and total Hamiltonian.

The interaction HI = sum_j c_j phi(x_j)^4, c_j = u_j chi(x_j), is never
assembled.  The truncated field is translation covariant, phi(x) = D_x phi(0)
D_x^+ with the diagonal phase D_x = exp(-i p_n . x), so HI v = sum_j c_j D_j
phi(0)^4 D_j^+ v is four batched applications of the field at the origin to
the columns D_j^+ v, one per node where c_j is nonzero (``ham.field_powers``).
The smearing at the origin is real, so each application is one float64 sparse
product on the real and imaginary parts of the columns.  Each power is exactly
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


def _field_powers(phases: np.ndarray, steps, v: np.ndarray, power: int) -> np.ndarray:
    """Columns phi(x_j)^power v_j for every node j of a ``(dim, N_active)`` phase table.

    Uses phi(x) = D_x phi(0) D_x^+, exact under truncation because D_x is
    diagonal: one batched field application per power serves every node,
    alternately ``steps[0]`` and ``steps[1]`` on the block of columns.  ``v``
    is one vector (used at every node) or one column per node, full or a basis
    prefix (see ``apply_smeared``).
    """
    w = np.conj(phases[: len(v)]) * (v if v.ndim == 2 else v[:, None])
    for p in range(power):
        w = steps[p % 2](w)
    return phases[: len(w)] * w


def apply_interaction(
    basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature, v: np.ndarray
) -> np.ndarray:
    """Quartic interaction sum_j u_j chi(x_j) phi(x_j)^4 v, one-off ``HamiltonianSet.hi``."""
    return HamiltonianSet(basis, grid, quad).hi(v)


class _Couplings:
    """``h0``, ``hi``, ``hkappa`` from the free diagonal, phase table, node weights and
    field ``steps`` (see ``_field_powers``); the handles close over these, not the set."""

    def __init__(self, esum: np.ndarray, phases: np.ndarray, coef: np.ndarray, steps):
        self.esum, self.phases, self.coef = esum, phases, coef
        self.h0 = OperatorHandle(apply=lambda v: esum[: v.shape[-1]] * v, dim=len(esum))
        self.hi = OperatorHandle(
            apply=lambda v: _field_powers(phases, steps, v, 4) @ coef, dim=len(esum)
        )

    def hkappa(self, kappa: float) -> OperatorHandle:
        if kappa < 0:
            raise ConfigError("coupling kappa must be nonnegative")
        if kappa == 0.0:
            return self.h0
        esum, hi = self.esum, self.hi.apply

        def apply(v):  # on a prefix, H0 v adds to the leading part of HI v
            out = kappa * hi(v)
            out[: len(v)] += esum[: len(v)] * v
            return out

        return OperatorHandle(apply=apply, dim=len(esum))


class HamiltonianSet(_Couplings):
    """Handles for the free, interaction, and total Hamiltonians.

    Precomputes the diagonal free energies ``esum = sum_i n_i omega_i`` (the
    diagonal of H0), the active quadrature ``nodes`` x_j (those where c_j =
    u_j chi(x_j) is nonzero), their weights ``coef`` c_j and the
    ``(dim, N_active)`` phase table ``phases``, whose column j is the diagonal
    of D_j = exp(-i p_n . x_j), p_n = sum_i n_i k_i the total momentum of
    basis state n.  So a matvec costs one Segal ``apply_smeared`` at the
    origin per power of the field; the handles and ``field_powers`` take
    basis prefixes.  A set is freed as soon as it is unreferenced.  The parity sectors ``even`` and ``odd`` and their
    ``origin_block`` are built on first use.
    """

    def __init__(self, basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature):
        self.basis = basis
        self.grid = grid
        self.quadrature = quad
        weights = quad.weights * quad.chi_values
        active = np.nonzero(weights)[0]
        self.nodes, coef = quad.nodes[active], weights[active]
        phases = np.exp(-1j * ((basis.states @ grid.modes) @ self.nodes.T))
        origin = grid.smearing_at(np.zeros(grid.dimension))

        def segal(w):  # phi(0) on the columns
            return apply_smeared(basis, grid, origin, w.T, "segal").T

        self._steps = (segal, segal)
        super().__init__(basis.states @ grid.omega, phases, coef, self._steps)

    def field_powers(self, v: np.ndarray, power: int) -> np.ndarray:
        """Columns phi(x_j)^power v_j, ``v`` one vector or one column per node."""
        return _field_powers(self.phases, self._steps, v, power)

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
    ``phases`` its rows of the phase table.  The handles act on vectors of
    length ``dim`` and refuse any other length with a ``ConfigError``, each
    field power one float64 product of ``origin_block`` or its transpose;
    ``embed`` returns to the full basis.  A sector has no ``field_powers``: an
    odd power leaves it.
    """

    def __init__(self, ham: HamiltonianSet, parity: int):
        self.full_dim = ham.basis.dim
        self.index = np.flatnonzero(ham.basis.grades % 2 == parity)
        self.dim = len(self.index)
        block = ham.origin_block
        ops = (block, block.T) if parity == 0 else (block.T, block)
        steps = tuple(lambda w, op=op: (op @ w.view(np.float64)).view(complex) for op in ops)
        super().__init__(ham.esum[self.index], ham.phases[self.index], ham.coef, steps)
        # unlike the full space's, the block products take no prefix; hkappa applies these
        name, dim = ("even", "odd")[parity], self.dim

        def checked(apply, v):
            if len(v) != dim:
                raise ConfigError(f"the {name} sector holds {dim} states, the vector {len(v)} entries")
            return apply(v)

        self.h0, self.hi = (
            OperatorHandle(apply=functools.partial(checked, h.apply), dim=dim) for h in (self.h0, self.hi)
        )

    def embed(self, v: np.ndarray) -> np.ndarray:
        """The sector vector ``v`` as a full graded-lex vector, zero off the sector."""
        out = np.zeros(self.full_dim, dtype=complex)
        out[self.index] = v
        return out
