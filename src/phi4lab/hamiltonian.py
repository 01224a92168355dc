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

Real arithmetic.  D_{-x} = conj(D_x) and phi(0) is real, so on a real vector
phi(-x)^p v = conj(phi(x)^p v).  When every active node's negative is an
active node of bit-equal weight (``mirror_fold``), H(kappa) is real symmetric
in the occupation basis, and the node sum (``node_sum``; ``hi`` is its fourth
power) reads a float64 vector as real on every handle: one column per mirror
pair, 2 Re(c_j D_j phi(0)^p D_j^+ v), and one per node at the origin, about
half the columns of the per-node path that a complex vector keeps.  The
sectors' handles are then ``real``, and the solvers keep float64 vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MirrorFold:
    """The active nodes of a mirror-symmetric model, one per pair x_j, -x_j.

    ``index`` picks one node of each pair and each node at the origin from the
    active nodes, ``coef`` is its folded weight: 2 c_j for a pair, c_j at the
    origin.  For a real v and node weights w with w(-x) = conj(w(x)),
    sum_j c_j w_j phi(x_j)^p v is the real part of the same sum over the fold's
    nodes with these weights (``node_sum``).
    """

    index: np.ndarray
    coef: np.ndarray


def mirror_fold(nodes: np.ndarray, coef: np.ndarray) -> MirrorFold | None:
    """The ``MirrorFold`` of active ``nodes`` with weights ``coef``, or None unless every
    node's negative is a node of a bit-equal weight (the origin is its own mirror)."""
    where = {tuple(x): j for j, x in enumerate(nodes)}  # 0.0 and -0.0 are one key
    mirror = [where.get(tuple(-x)) for x in nodes]
    if any(k is None or coef[k] != coef[j] for j, k in enumerate(mirror)):
        return None
    index = np.array([j for j, k in enumerate(mirror) if j <= k], dtype=int)
    return MirrorFold(index, np.where(np.array(mirror)[index] == index, 1.0, 2.0) * coef[index])


def apply_interaction(
    basis: FockBasis, grid: ModeGrid, quad: SpatialQuadrature, v: np.ndarray
) -> np.ndarray:
    """Quartic interaction sum_j u_j chi(x_j) phi(x_j)^4 v, one-off ``HamiltonianSet.hi``."""
    return HamiltonianSet(basis, grid, quad).hi(v)


class _Couplings:
    """``h0``, ``hi``, ``hkappa`` from the free diagonal, phase table, node weights and
    field ``steps`` (see ``_field_powers``); the handles close over these, not the set.
    ``fold()`` gives the ``MirrorFold`` or None, asked for at the first float64 vector;
    ``real`` (set by the sectors of a mirror-symmetric model) tells the solvers so."""

    def __init__(self, esum: np.ndarray, phases: np.ndarray, coef: np.ndarray, steps, fold, real=False):
        self.esum, self.phases, self.coef = esum, phases, coef
        self.real = real
        folded = functools.cache(lambda: phases.take(fold().index, axis=1))

        def node_sum(v, power, weights=None):
            """sum_j c_j w_j phi(x_j)^power v for node ``weights`` w (all 1 if None): real,
            through the fold, for a float64 ``v`` of a mirror-symmetric model, else per node."""
            mirror = None if np.iscomplexobj(v) else fold()
            if mirror is None:
                columns = _field_powers(phases, steps, v, power)
                return columns @ coef if weights is None else (columns * coef) @ weights
            # the fold's phase columns: kept where solvers reuse them, taken per call on the full space
            table = folded() if real else phases.take(mirror.index, axis=1)
            folded_coef = mirror.coef if weights is None else mirror.coef * weights[mirror.index]
            return (_field_powers(table, steps, v, power) @ folded_coef).real

        self._node_sum = node_sum
        self.h0 = OperatorHandle(apply=lambda v: esum[: v.shape[-1]] * v, dim=len(esum), real=real)
        self.hi = OperatorHandle(apply=lambda v: node_sum(v, 4), dim=len(esum), real=real)

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

        return OperatorHandle(apply=apply, dim=len(esum), real=self.real)


class HamiltonianSet(_Couplings):
    """Handles for the free, interaction, and total Hamiltonians.

    Precomputes the diagonal free energies ``esum = sum_i n_i omega_i`` (the
    diagonal of H0), the active quadrature ``nodes`` x_j (those where c_j =
    u_j chi(x_j) is nonzero), their weights ``coef`` c_j and the
    ``(dim, N_active)`` phase table ``phases``, whose column j is the diagonal
    of D_j = exp(-i p_n . x_j), p_n = sum_i n_i k_i the total momentum of
    basis state n.  So a matvec costs one Segal ``apply_smeared`` at the
    origin per power of the field; the handles, ``field_powers`` and
    ``node_sum`` take basis prefixes.  A set is freed as soon as it is
    unreferenced.  The nodes' ``fold`` (``mirror_fold``, None on a model
    without the mirror symmetry), the parity sectors ``even`` and ``odd`` and
    their ``origin_block`` are built on first use.
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
        self._fold = functools.cache(lambda nodes=self.nodes: mirror_fold(nodes, coef))
        super().__init__(basis.states @ grid.omega, phases, coef, self._steps, self._fold)

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

    fold = property(lambda self: self._fold())
    node_sum = property(lambda self: self._node_sum)  # node_sum(v, power, weights=None), see _Couplings
    even = functools.cached_property(lambda self: ParitySector(self, 0))
    odd = functools.cached_property(lambda self: ParitySector(self, 1))


class ParitySector(_Couplings):
    """H0, HI and H(kappa) on the states of one boson-number parity (0 even, 1 odd).

    ``index`` lists the sector's states, ``esum`` is its free diagonal and
    ``phases`` its rows of the phase table.  The handles act on vectors of
    length ``dim`` and refuse any other length with a ``ConfigError``, each
    field power one float64 product of ``origin_block`` or its transpose;
    ``embed`` returns to the full basis.  On a model with a ``fold`` the
    sector is ``real`` and its handles say so: they read a float64 vector as
    real, through the fold.  A sector has no ``field_powers``: an odd power
    leaves it.
    """

    def __init__(self, ham: HamiltonianSet, parity: int):
        self.full_dim = ham.basis.dim
        self.index = np.flatnonzero(ham.basis.grades % 2 == parity)
        self.dim = len(self.index)
        block = ham.origin_block
        ops = (block, block.T) if parity == 0 else (block.T, block)
        steps = tuple(lambda w, op=op: (op @ w.view(np.float64)).view(complex) for op in ops)
        real = ham.fold is not None
        super().__init__(ham.esum[self.index], ham.phases[self.index], ham.coef, steps, ham._fold, real)
        # unlike the full space's, the block products take no prefix; hkappa applies these
        name, dim = ("even", "odd")[parity], self.dim

        def checked(apply, v):
            if len(v) != dim:
                raise ConfigError(f"the {name} sector holds {dim} states, the vector {len(v)} entries")
            return apply(v)

        self.h0, self.hi = (
            OperatorHandle(apply=functools.partial(checked, h.apply), dim=dim, real=self.real)
            for h in (self.h0, self.hi)
        )

    def embed(self, v: np.ndarray) -> np.ndarray:
        """The sector vector ``v`` as a full graded-lex vector of its dtype, zero off the sector."""
        out = np.zeros(self.full_dim, dtype=v.dtype)
        out[self.index] = v
        return out
