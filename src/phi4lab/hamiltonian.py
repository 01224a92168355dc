"""Field operator, quartic interaction, and total Hamiltonian.

On the full space the interaction HI = sum_j c_j phi(x_j)^4, c_j = u_j
chi(x_j), is never assembled.  The truncated field is translation covariant,
phi(x) = D_x phi(0) D_x^+ with the diagonal phase D_x = exp(-i p_n . x), so
HI v = sum_j c_j D_j phi(0)^4 D_j^+ v is four batched applications of the
field at the origin to the columns D_j^+ v, one per node where c_j is nonzero
(``ham.field_powers``).  The smearing at the origin is real, so each
application is one float64 sparse product on the real and imaginary parts of
the columns.  Each power is exactly Hermitian, since the truncated Segal field
is self-adjoint.  No normal-ordered expansion is attempted.

Parity sectors.  The field changes the boson number by one, so H(kappa)
commutes with (-1)^N: the ground state is even, a_i psi and the phi^3 source
odd.  Each grade is one graded-lex range, so a sector (``ham.even``,
``ham.odd``) is a union of ranges.  phi(0) joins them as ``origin_block`` B,
from the even to the odd states, and its transpose (the origin smearing is
real).

Real arithmetic.  D_{-x} = conj(D_x) and phi(0) is real, so on a real vector
phi(-x)^p v = conj(phi(x)^p v).  When every active node's negative is an
active node of bit-equal weight (``mirror_fold``), H(kappa) is real symmetric
in the occupation basis, and the node sum (``node_sum``; ``hi`` is its fourth
power) reads a float64 vector as real on every handle: one column per mirror
pair, 2 Re(c_j D_j phi(0)^p D_j^+ v), and one per node at the origin, about
half the columns of the per-node path that a complex vector keeps.  The
sectors' handles are then ``real``, and the solvers keep float64 vectors.

Assembled sectors.  On such a model each sector's HI is one real CSR matrix,
(B^T B)^2 or (B B^T)^2 with each entry weighted by the node sum of its
momentum transfer (``_sector_interactions``), built once when both fit the
cost of one matrix-free sector product.  Lanczos, CG and the checks'
products of one parity (``ham.hi_rows``) are then one sparse product each.
Complex products on the full space, such as HI of the vacuum, stay
matrix-free, and a model without the symmetry keeps the per-node path.
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

SECTOR_BLOCKS = 2  # a sector interaction's entries are counted in row blocks of 1/SECTOR_BLOCKS of its budget
KEY_BLOCKS = 8  # and weighted in row blocks of 1/KEY_BLOCKS of them: each takes about 4 int64 an entry


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


def _node_sum(phases: np.ndarray, coef: np.ndarray, steps, fold, real: bool):
    """The node sum of a phase table, node weights ``coef`` and field ``steps`` (see
    ``_field_powers``): ``node_sum(v, power, weights=None)``.  ``fold()`` gives the
    ``MirrorFold`` or None, asked for at the first float64 vector; ``real`` keeps the
    fold's phase columns, which the solvers reuse."""
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

    return node_sum


def _real_product(matrix: scipy.sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a real ``matrix`` and a vector or block of columns ``x``; a
    complex ``x`` is one float64 product on its view, real and imaginary parts side by side."""
    if not np.iscomplexobj(x):
        return matrix @ x
    columns = np.ascontiguousarray(x if x.ndim == 2 else x[:, None])
    out = (matrix @ columns.view(np.float64)).view(complex)
    return out if x.ndim == 2 else out[:, 0]


def _leading_columns(matrix: scipy.sparse.csr_matrix, count: int) -> scipy.sparse.csc_matrix:
    """The first ``count`` columns of an exactly symmetric CSR ``matrix``: its first rows,
    transposed, a view that shares its arrays."""
    end = matrix.indptr[count]
    rows = (matrix.data[:end], matrix.indices[:end], matrix.indptr[: count + 1])
    return scipy.sparse.csr_matrix(rows, shape=(count, matrix.shape[1])).T


def _row_edges(before: np.ndarray, chunk: int) -> np.ndarray:
    """Edges of blocks of rows that each add at most ``chunk`` to a count beyond their
    first row, from ``before``, the running count before each row and after the last."""
    ends = np.searchsorted(before, np.arange(chunk, int(before[-1]), chunk), side="right") - 1
    return np.r_[0, np.unique(ends[ends > 0]), len(before) - 1]


def _product_within(a: scipy.sparse.csr_matrix, b: scipy.sparse.csr_matrix, budget: int):
    """``a @ b``, or None if it stores more than ``budget`` entries.  Unless its
    multiply-adds, an upper bound of its entries, fit the budget (nnz(a) times b's longest
    row bounds them), the entries are first counted in blocks of rows of at most
    1 / ``SECTOR_BLOCKS`` of the budget in multiply-adds, and the count stops once past the
    budget: so a refused product holds no more than about that share beyond its inputs."""
    longest = int(np.diff(b.indptr).max(initial=0))
    if a.nnz * longest > budget:
        edges, stored = _row_edges(a.indptr, max(1, budget // (SECTOR_BLOCKS * longest))), 0
        for start, end in zip(edges[:-1], edges[1:]):
            stored += (a[start:end] @ b).nnz
            if stored > budget:
                return None
    return a @ b


def _sector_interactions(ham: HamiltonianSet):
    """HI on the even and on the odd states as real CSR matrices, or None unless each
    stores at most as many entries as one matrix-free sector product makes complex
    multiply-adds, 4 c nnz(B) for the fold's c columns and B = ``origin_block``.

    phi(0)^4 on a sector is (B^T B)^2 (even) or (B B^T)^2 (odd), and D_j phi(0)^4 D_j^+
    scales its entry (m, n) by exp(-i (delta . k) . x_j), delta = n_m - n_n the entry's
    occupation change.  So HI weights the entry by W(delta) = sum_j c_j cos((delta . k) . x_j),
    real on a mirror-symmetric model, a sum over the fold's nodes (``_weighted_square``).
    """
    block = ham.origin_block
    budget = 4 * len(ham.fold.index) * block.nnz
    if 9**ham.basis.num_modes > 2**64:  # the keys of delta (see ``_weighted_square``) overflow
        return None
    transpose = block.T.tocsr()
    even = _weighted_square(ham, transpose, block, 0, budget)
    odd = None if even is None else _weighted_square(ham, block, transpose, 1, budget)
    return None if odd is None else (even, odd)


def _weighted_square(ham: HamiltonianSet, a, b, parity: int, budget: int):
    """(a b)^2 on the states of ``parity``, each entry weighted by W(delta), or None once
    p = a b or p @ p stores more than ``budget`` entries (``_product_within``).

    An entry's key is delta in balanced base 9 (each |delta_i| <= 4): the difference of
    the states' codes sum_i n_i 9^i, exact in wrapping int64 arithmetic while
    |key| <= (9^modes - 1) / 2 fits, up to 20 modes.  The keys are taken in blocks of
    rows of at most 1 / ``KEY_BLOCKS`` of the entries.
    """
    p = _product_within(a, b, budget)
    if p is None:
        return None
    p.sort_indices()  # then p @ p sums each entry in the order of its transpose's
    q = _product_within(p, p, budget)
    if q is None:
        return None
    modes, fold = ham.basis.num_modes, ham.fold
    transfer = ham.nodes[fold.index] @ ham.grid.modes.T  # k_i . x_j, a row per folded node
    code = ham.basis.states[ham.basis.grades % 2 == parity].astype(np.int64) @ 9 ** np.arange(modes)
    edges = _row_edges(q.indptr, max(1, q.nnz // KEY_BLOCKS))
    for start, end in zip(edges[:-1], edges[1:]):
        ptr = q.indptr[start : end + 1]
        entries = slice(ptr[0], ptr[-1])
        # W(delta) = W(-delta): one key per pair keeps the matrix exactly symmetric
        keys = np.abs(np.repeat(code[start:end], np.diff(ptr)) - code[q.indices[entries]])
        ordered = np.sort(keys)  # np.unique, several times slower, hashes
        distinct = ordered[np.diff(ordered, prepend=ordered[:1] - 1) != 0]
        delta = np.empty((len(distinct), modes), dtype=np.int64)
        rest = distinct
        for i in range(modes):  # the balanced base-9 digits of each key
            delta[:, i] = (rest + 4) % 9 - 4
            rest = (rest - delta[:, i]) // 9
        # elementwise, in one order, so that a key's weight does not depend on its block
        phase = sum(np.multiply.outer(delta[:, i], transfer[:, i]) for i in range(modes))
        weight = sum(c * np.cos(phase[:, f]) for f, c in enumerate(fold.coef))
        q.data[entries] *= weight[np.searchsorted(distinct, keys)]
    return q


class _Couplings:
    """``h0``, ``hi``, ``hkappa`` from the free diagonal ``esum`` and the interaction
    product ``hi(v)``; the handles close over these, not the object.  ``real`` (set by
    the sectors of a mirror-symmetric model) tells the solvers that H is real symmetric."""

    def __init__(self, esum: np.ndarray, hi, real=False):
        self.esum, self.real = esum, real
        self.h0 = OperatorHandle(apply=lambda v: esum[: v.shape[-1]] * v, dim=len(esum), real=real)
        self.hi = OperatorHandle(apply=hi, dim=len(esum), real=real)

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
    without the mirror symmetry) and the parity sectors ``even`` and ``odd``
    are built on first use, the sectors' HI matrices with them; the
    ``origin_block`` is kept until they are assembled.
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

        self.phases, self.coef, self._steps = phases, coef, (segal, segal)
        self._fold = functools.cache(lambda nodes=self.nodes: mirror_fold(nodes, coef))
        self._node_sum = node_sum = _node_sum(phases, coef, self._steps, self._fold, False)
        super().__init__(basis.states @ grid.omega, functools.partial(node_sum, power=4))

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

    def hi_rows(self, rows: np.ndarray) -> np.ndarray:
        """HI v for a vector v or for each row v of a block, basis prefixes of one length,
        each as long as ``hi`` returns it.  When the sectors are assembled, each parity
        part is one product of its sector's ``matrix`` (a part that is zero is skipped);
        else each row is ``hi``'s."""
        if self._interactions is None:
            return self.hi(rows) if rows.ndim == 1 else np.stack([self.hi(v) for v in rows])
        length = rows.shape[-1]
        reach = self.basis.grade_end(self.basis.grades[length - 1] + 4)  # HI moves 4 grades at most
        out = np.zeros(rows.shape[:-1] + (reach,), dtype=rows.dtype)
        for sector in (self.even, self.odd):
            reached = np.searchsorted(sector.index, length)  # the sector's first states
            part = rows[..., sector.index[:reached]]
            if part.any():
                head = sector.matrix if reached == sector.dim else _leading_columns(sector.matrix, reached)
                image = sector.index[: np.searchsorted(sector.index, reach)]
                out[..., image] = _real_product(head, part.T)[: len(image)].T
        return out

    def hkappa_rows(self, kappa: float, rows: np.ndarray) -> np.ndarray:
        """H(kappa) v for a vector v or each row of a block, HI as ``hi_rows`` takes it;
        H0 v adds to the leading part, as in ``hkappa``."""
        out = kappa * self.hi_rows(rows)
        out[..., : rows.shape[-1]] += self.esum[: rows.shape[-1]] * rows
        return out

    fold = property(lambda self: self._fold())
    node_sum = property(lambda self: self._node_sum)  # node_sum(v, power, weights=None), see _node_sum

    @functools.cached_property
    def _interactions(self):
        """The sectors' HI matrices, or None: on a mirror-symmetric model, when both fit the budget."""
        matrices = None if self.fold is None else _sector_interactions(self)
        if matrices is not None:
            del self.origin_block  # the assembled sectors no longer read it
        return matrices

    even = functools.cached_property(lambda self: ParitySector(self, 0))
    odd = functools.cached_property(lambda self: ParitySector(self, 1))


class ParitySector(_Couplings):
    """H0, HI and H(kappa) on the states of one boson-number parity (0 even, 1 odd).

    ``index`` lists the sector's states and ``esum`` is its free diagonal.  On
    a model with a ``fold`` the sector is ``real``, and HI is assembled once as
    the real CSR ``matrix`` when both sectors fit their budget
    (``_sector_interactions``): every HI product is then one sparse product,
    a complex vector's through its float64 view.  Otherwise ``matrix`` is None
    and the sector keeps ``phases``, its rows of the phase table, and applies
    each field power as one float64 product of ``origin_block`` or its
    transpose, through the fold for a float64 vector.  The handles act on vectors of length ``dim`` and
    refuse any other length with a ``ConfigError``; ``embed`` returns to the
    full basis.  A sector has no ``field_powers``: an odd power leaves it.
    """

    def __init__(self, ham: HamiltonianSet, parity: int):
        self.full_dim = ham.basis.dim
        self.index = np.flatnonzero(ham.basis.grades % 2 == parity)
        self.dim = len(self.index)
        real, matrices = ham.fold is not None, ham._interactions
        self.matrix = matrix = None if matrices is None else matrices[parity]
        if matrix is not None:
            hi = functools.partial(_real_product, matrix)
        else:
            block = ham.origin_block
            ops = (block, block.T) if parity == 0 else (block.T, block)
            steps = tuple(lambda w, op=op: (op @ w.view(np.float64)).view(complex) for op in ops)
            self.phases = ham.phases[self.index]
            node_sum = _node_sum(self.phases, ham.coef, steps, ham._fold, real)
            hi = functools.partial(node_sum, power=4)
        super().__init__(ham.esum[self.index], hi, real)
        # unlike the full space's, the sector products take no prefix; hkappa applies these
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
