"""Truncated occupation-number basis and ladder-operator actions.

States are occupation vectors ``n = (n_1, ..., n_M)`` with total occupation
``sum(n) <= n_max``, ordered graded-lexicographically: grades (total number)
ascend, and within a grade the occupation tuples ascend lexicographically.
The vacuum therefore always sits at index 0.  This order is part of the
serialization contract (tag ``graded-lex-v1``).

Creation is truncated: amplitudes that would leave the retained space are
dropped, so every operator here is an endomorphism of the truncated space and
the truncated creation operator is the exact adjoint of annihilation.
Identities that hold only in the untruncated model are asserted on "interior"
vectors, i.e. vectors supported in grades ``<= n_max - p`` where ``p`` is the
grade reach of the operators involved.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse

from .errors import BasisTooLarge, ConfigError
from .grid import ModeGrid

DEFAULT_BASIS_CAP = 2_000_000

_VEC_MAGIC = b"F4VEC\x00"
_VEC_VERSION = 1
_ORDER_TAG = b"graded-lex-v1\x00\x00\x00"  # 16 bytes


class LadderTable(NamedTuple):
    """Every nonzero annihilation amplitude: a_mode |src> = amp |dst>.

    One entry per occupied mode of every state, sorted by (``dst``, ``src``),
    so entries ``dst_ptr[s]:dst_ptr[s + 1]`` land on state s.  Every state d
    below the top grade has M entries, from d + e_{M-1}, ..., d + e_0 in that
    order, and the top grade none: mode i's entries are the strided slice
    ``[M - 1 - i::M]``, whose ``dst`` is ``arange(len(dst) // M)``.  Read
    backwards they are the truncated creation amplitudes, a_mode^+ |dst> =
    amp |src>; creation out of the top grade has no entry.  ``take`` indexes
    each entry in an (M, n_max) table, at row ``mode`` and column n - 1, where
    n is the occupation ``src`` has in it (amp = sqrt(n)).  ``segal_ptr`` and
    ``segal_cols`` are the CSR structure of a(f) + a^+(f); in its data order,
    ``segal_take`` indexes a (2M, n_max) table, annihilation rows first.
    """

    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray
    mode: np.ndarray
    take: np.ndarray
    dst_ptr: np.ndarray
    segal_ptr: np.ndarray
    segal_cols: np.ndarray
    segal_take: np.ndarray


@dataclass(frozen=True)
class FockBasis:
    """Enumerated truncated symmetric Fock basis over ``num_modes`` modes."""

    num_modes: int
    n_max: int
    states: np.ndarray = field(init=False, repr=False)
    grades: np.ndarray = field(init=False, repr=False)
    ladders: LadderTable = field(init=False, repr=False)
    _binom: np.ndarray = field(init=False, repr=False, compare=False)  # binom[a, b] = C(a, b), rank's table
    # ("annihilate" | "segal", dtype) -> (scaled smearing its data holds, CSR, its transpose,
    # {(which, grade): prefix view}): apply_smeared's slots, creation served by annihilation's
    _smeared: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # lexicographic rows of every grade at once: each row with r quanta
        # left gets the next mode's 0..r appended, then a stable sort by grade
        arr, grades = np.arange(self.n_max + 1, dtype=np.int32)[:, None], np.arange(self.n_max + 1)
        for _ in range(self.num_modes - 1):
            counts = self.n_max + 1 - grades
            tail = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            arr = np.column_stack([np.repeat(arr, counts, axis=0), tail.astype(np.int32)])
            grades = np.repeat(grades, counts) + tail
        order = np.argsort(grades, kind="stable")
        arr, grades = arr[order], grades[order]
        arr.setflags(write=False)
        grades.setflags(write=False)
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "grades", grades)
        M = self.num_modes
        binom = np.array([[math.comb(a, b) for b in range(M + 1)] for a in range(self.n_max + M)])
        object.__setattr__(self, "_binom", binom)
        object.__setattr__(self, "ladders", self._ladder_table())
        object.__setattr__(self, "_smeared", {})

    @property
    def dim(self) -> int:
        return len(self.states)

    def rank(self, states: np.ndarray) -> np.ndarray:
        """Graded-lex index of each row of ``states`` (combinatorial number system).

        The grade-t block starts at binom(M + t - 1, M); within it, mode i
        with r quanta left for modes i.. and m = M - 1 - i modes after it
        skips the binom(r + m, m) - binom(r - n_i + m, m) tuples whose entry
        i is smaller.  Rows must be valid occupations (see ``index_of``).
        """
        states = np.asarray(states, dtype=np.int64)
        M, binom = self.num_modes, self._binom
        left = states.sum(axis=-1)
        index = binom[M - 1 + left, M]
        for i in range(M - 1):
            m = M - 1 - i
            index += binom[left + m, m] - binom[left - states[..., i] + m, m]
            left = left - states[..., i]
        return index

    def index_of(self, occupation) -> int:
        occ = np.asarray(occupation)
        valid = occ.shape == (self.num_modes,) and np.issubdtype(occ.dtype, np.integer)
        if not (valid and occ.min() >= 0 and occ.sum() <= self.n_max):
            raise ConfigError(
                f"occupation {occupation!r} is not in the basis: need {self.num_modes} "
                f"integer counts n_i >= 0 with sum <= {self.n_max}"
            )
        return int(self.rank(occ))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def unit(self, occupation) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index_of(occupation)] = 1.0
        return v

    def grade_end(self, grade: int) -> int:
        """Number of states of grade <= ``grade``: the basis prefix they fill."""
        return math.comb(self.num_modes + min(grade, self.n_max), self.num_modes) if grade >= 0 else 0

    def _ladder_table(self) -> LadderTable:
        # d -> d + e_i keeps graded-lex order and maps the states below the top
        # grade onto those with n_i >= 1, so a_i sends the k-th state with
        # n_i >= 1 to state k.  Row d of the table is d + e_{M-1}, ..., d + e_0:
        # src ascends within it, since d + e_i > d + e_j for i < j.
        M, states = self.num_modes, self.states
        lower = math.comb(M + self.n_max - 1, M)  # states below the top grade
        occupied = states > 0
        src = np.column_stack([np.flatnonzero(occupied[:, i]) for i in reversed(range(M))]).ravel()
        dst = np.repeat(np.arange(lower), M)
        mode = np.tile(np.arange(M)[::-1], lower)
        dst_ptr = M * np.minimum(np.arange(self.dim + 1), lower)
        seen = np.cumsum(occupied, axis=1)  # occupied modes of each state up to each mode
        src_ptr = np.concatenate(([0], np.cumsum(seen[:, -1])))
        level = states[src, mode]
        take = mode * self.n_max + level - 1
        # int32 indices: dim is capped far below 2**31, and scipy.sparse
        # would otherwise scan and downcast them on every matrix it builds
        src, dst = src.astype(np.int32), dst.astype(np.int32)
        # merged Segal row s: the a^+ entries of the ladder entries with src s
        # (in src order, mode ascending), then the a entries of those with dst
        # s; pos[0] and pos[1] place each entry's a and a^+ amplitude in the data
        in_src_order = src_ptr[src] + seen[src, mode] - 1
        pos = (np.arange(len(src)) + src_ptr[dst + 1], dst_ptr[src] + in_src_order)
        cols, segal_take = np.empty(2 * len(src), np.int32), np.empty(2 * len(src), np.intp)
        cols[pos[0]], cols[pos[1]] = src, dst
        segal_take[pos[0]], segal_take[pos[1]] = take, take + self.num_modes * self.n_max
        return LadderTable(
            src=src,
            dst=dst,
            amp=np.sqrt(level.astype(float)),
            mode=mode,
            take=take,
            dst_ptr=dst_ptr.astype(np.int32),
            segal_ptr=(dst_ptr + src_ptr).astype(np.int32),
            segal_cols=cols,
            segal_take=segal_take,
        )


def enumerate_basis(num_modes: int, n_max: int, max_dim: int = DEFAULT_BASIS_CAP) -> FockBasis:
    """Enumerate the truncated basis; dimension is binomial(M + n_max, M)."""
    if num_modes < 1:
        raise ConfigError("need at least one mode")
    if n_max < 0:
        raise ConfigError("n_max must be nonnegative")
    dim = math.comb(num_modes + n_max, num_modes)
    if dim > max_dim:
        raise BasisTooLarge(dim, max_dim)
    return FockBasis(num_modes=num_modes, n_max=n_max)


# ---------------------------------------------------------------------------
# ladder and diagonal actions


def apply_mode_annihilation(basis: FockBasis, i: int, v: np.ndarray) -> np.ndarray:
    """a_i v in the occupation basis: |n> -> sqrt(n_i) |n - e_i>."""
    M, t = basis.num_modes, basis.ladders
    if not 0 <= i < M:
        raise ConfigError(f"mode {i} is not one of the {M} modes")
    mine = slice(M - 1 - i, None, M)  # mode i's entries, dst 0, 1, ... (see LadderTable)
    out = np.zeros(basis.dim, dtype=complex)
    out[: len(t.dst) // M] = t.amp[mine] * v[t.src[mine]]
    return out


def apply_smeared(
    basis: FockBasis,
    grid: ModeGrid,
    f: np.ndarray,
    v: np.ndarray,
    which: str,
) -> np.ndarray:
    """Smeared ladder / Segal field action on a vector or on a block of rows.

    The discrete smearing carries the quadrature weights, ``a(f) =
    sum_i sqrt(w_i) conj(f_i) a_i`` and ``a^+(f) = sum_i sqrt(w_i) f_i a_i^+``,
    so the commutator [a(f), a^+(g)] reproduces the weighted inner product
    ``sum_i w_i conj(f_i) g_i``.  ``which`` is one of ``annihilate``,
    ``create``, ``segal``; the Segal field is (a(f) + a^+(f)) / sqrt(2).
    ``v`` is one coefficient vector of shape (n,) or a block (B, n) of them,
    acted on row by row.  Below ``basis.dim``, n is a basis prefix: the vector
    zero beyond it.  With g the grade of state n - 1, the result is the prefix
    below ``basis.grade_end(g - 1)`` for annihilation, ``grade_end(g + 1)``
    otherwise.  The basis keeps one annihilation CSR ``A(f)`` and one merged
    Segal CSR per dtype, built on first use from the ladder table, and per
    action and grade a view of the leading block a prefix reaches, which
    shares the matrix's arrays.  Creation is the adjoint, ``a^+(f) v =
    conj(A(f)^T conj(v))``, through the CSC transpose kept beside ``A(f)``,
    which shares its data.  A matrix records the scaled smearing ``sqrt(w) f``
    (over sqrt 2 for the Segal field) its data holds, and a call with another
    one refills the data, and so its views, in place: one gather, in data
    order, from the table of each mode's value times sqrt(n), n = 1..n_max
    (see ``LadderTable``).  A smearing with no imaginary part, like the field
    at the origin, uses the float64 matrix: one real product on the float64
    view of the block.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (basis.num_modes,):
        raise ConfigError(f"smearing must have one value per mode, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ConfigError("smearing function is not finite at every mode")
    if which not in ("annihilate", "create", "segal"):
        raise ConfigError(f"unknown smeared action {which!r}")
    block = np.asarray(v, dtype=complex).T
    n = len(block)
    t, segal = basis.ladders, which == "segal"
    scaled = np.sqrt(grid.weights) / (math.sqrt(2.0) if segal else 1.0) * f
    scaled = scaled if scaled.imag.any() else scaled.real
    slot = ("segal" if segal else "annihilate", scaled.dtype)
    held, op, op_t, views = basis._smeared.get(slot, (None, None, None, {}))
    if op is None:
        structure = (t.segal_cols, t.segal_ptr) if segal else (t.src, t.dst_ptr)
        data = np.empty(len(structure[0]), scaled.dtype)
        op = scipy.sparse.csr_matrix((data, *structure), shape=(basis.dim, basis.dim))
        op_t = op.T  # a CSC sharing op.data, so a refill updates both
    if held is None or not np.array_equal(held, scaled):
        rows = [scaled.conj(), scaled] if segal else [scaled.conj()]
        roots = np.sqrt(np.arange(1.0, basis.n_max + 1))
        table = np.multiply.outer(np.concatenate(rows), roots)
        # clip never applies (the indices are in range) but lets take write out= unbuffered
        np.take(table, t.segal_take if segal else t.take, out=op.data, mode="clip")
        basis._smeared[slot] = (scaled, op, op_t, views)
    create = which == "create"  # a+(f) v = conj(A(f)^T conj(v)), A(f) the annihilation matrix
    op = op_t if create else op
    if n < basis.dim:  # key: the action and the top grade of the prefix
        key = (which, int(basis.grades[n - 1]) if n else -1)
        op = views[key] = views[key] if key in views else _prefix_view(basis, op, *key)
    rows, cols = op.shape
    if cols > n:  # the columns the view's rows read, zero beyond the prefix
        block = np.concatenate([block, np.zeros((cols - n, *block.shape[1:]), complex)])
    block = np.conjugate(block, order="C") if create else np.ascontiguousarray(block)
    out = op @ block.reshape(cols, math.prod(block.shape[1:])).view(op.dtype)
    out = out.view(complex).reshape(rows, *block.shape[1:]).T
    return np.conjugate(out, out=out) if create else out


def _prefix_view(basis: FockBasis, full, which: str, grade: int):
    """The leading block of ``full`` that ``which`` applies to a prefix of top grade
    ``grade``: rows for annihilation and Segal (which reads grades <= grade + 2),
    columns of the CSC transpose for creation.  Its arrays are set after
    construction: the constructor copies a data array over twice the view's
    entries (scipy's ``prune``), and a copy would keep its old smearing."""
    end = basis.grade_end
    rows = end(grade - 1) if which == "annihilate" else end(grade + 1)
    cols = end(grade + 2) if which == "segal" else end(grade)
    if (rows, cols) == full.shape:
        return full
    kind = scipy.sparse.csc_matrix if which == "create" else scipy.sparse.csr_matrix
    view = kind((rows, cols), dtype=full.dtype)
    major = cols if which == "create" else rows
    view.indptr, view.indices, view.data = full.indptr[: major + 1], full.indices, full.data
    return view


def apply_h0perp_inverse(esum: np.ndarray, v: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Reduced resolvent of the free Hamiltonian off the vacuum.

    ``esum`` is the free diagonal ``sum_i n_i omega_i`` (``HamiltonianSet.esum``).
    Divides every non-vacuum coefficient by ``esum - shift`` and returns 0 at
    the vacuum whatever the vacuum entry of ``v``, so the input needs no
    projection off the vacuum first.  The default shift 0 is the plain
    reduced inverse; a nonzero shift must stay below the smallest nonzero
    free energy.
    """
    if shift != 0.0 and len(esum) > 1:
        min_pos = esum[1:].min()
        if shift >= min_pos:
            raise ConfigError(
                f"shift {shift} not below the reduced free spectrum (min {min_pos})"
            )
    out = np.zeros(len(esum), dtype=complex)
    out[1:] = v[1:] / (esum[1:] - shift)
    return out


# ---------------------------------------------------------------------------
# operator handles


@dataclass(frozen=True)
class OperatorHandle:
    """Matrix-free Hermitian linear operator on coefficient vectors."""

    apply: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)


# ---------------------------------------------------------------------------
# vector serialization
#
# Binary layout (little-endian):
#   offset 0   6 bytes   magic "F4VEC\0"
#   offset 6   u16       format version (1)
#   offset 8   u32       number of modes M
#   offset 12  u32       truncation n_max
#   offset 16  16 bytes  basis-order tag, NUL padded ("graded-lex-v1")
#   offset 32  u64       dimension (must equal binomial(M + n_max, M))
#   offset 40  dim * 16  coefficients as complex128 (re, im float64 pairs)

_HEADER = struct.Struct("<6sHII16sQ")


def save_vector(path, basis: FockBasis, v: np.ndarray) -> None:
    """Write a coefficient vector with its basis header (see module layout)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (basis.dim,):
        raise ConfigError(f"vector length {v.shape} does not match basis dimension {basis.dim}")
    header = _HEADER.pack(
        _VEC_MAGIC, _VEC_VERSION, basis.num_modes, basis.n_max, _ORDER_TAG, basis.dim
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(v.astype("<c16").tobytes())


def load_vector(path, basis: FockBasis | None = None) -> tuple[FockBasis, np.ndarray]:
    """Read a vector written by :func:`save_vector`; validates the header."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ConfigError(f"{path} is not a phi4lab vector file (truncated header)")
        magic, version, num_modes, n_max, tag, dim = _HEADER.unpack(raw)
        if magic != _VEC_MAGIC:
            raise ConfigError(f"{path} is not a phi4lab vector file")
        if version != _VEC_VERSION:
            raise ConfigError(f"unsupported vector format version {version}")
        if tag != _ORDER_TAG:
            raise ConfigError(f"unknown basis order tag {tag!r}")
        if basis is None:
            basis = enumerate_basis(num_modes, n_max)
        if (num_modes, n_max, dim) != (basis.num_modes, basis.n_max, basis.dim):
            raise ConfigError(
                f"vector header (M={num_modes}, n_max={n_max}, dim={dim}) does not match "
                f"basis (M={basis.num_modes}, n_max={basis.n_max}, dim={basis.dim})"
            )
        v = np.frombuffer(fh.read(dim * 16), dtype="<c16").astype(np.complex128)
    if v.shape != (dim,):
        raise ConfigError(f"{path} truncated: expected {dim} coefficients")
    return basis, v
