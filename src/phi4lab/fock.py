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


def _occupations(num_modes: int, total: int):
    if num_modes == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _occupations(num_modes - 1, total - head):
            yield (head, *tail)


class LadderTable(NamedTuple):
    """Every nonzero annihilation amplitude: a_mode |src> = amp |dst>.

    One entry per occupied mode of every state, sorted by ``dst``, so entries
    ``dst_ptr[s]:dst_ptr[s + 1]`` land on state s.  Read backwards they are
    the truncated creation amplitudes, a_mode^+ |dst> = amp |src>; creation
    out of the top grade has no entry.
    """

    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray
    mode: np.ndarray
    dst_ptr: np.ndarray


@dataclass(frozen=True)
class FockBasis:
    """Enumerated truncated symmetric Fock basis over ``num_modes`` modes."""

    num_modes: int
    n_max: int
    states: np.ndarray = field(init=False, repr=False)
    grades: np.ndarray = field(init=False, repr=False)
    ladders: LadderTable = field(init=False, repr=False)

    def __post_init__(self):
        states = []
        for total in range(self.n_max + 1):
            states.extend(_occupations(self.num_modes, total))
        arr = np.array(states, dtype=np.int32).reshape(len(states), self.num_modes)
        arr.setflags(write=False)
        grades = arr.sum(axis=1)
        grades.setflags(write=False)
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "grades", grades)
        object.__setattr__(self, "ladders", self._ladder_table())

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
        M = self.num_modes
        binom = np.array([[math.comb(a, b) for b in range(M + 1)] for a in range(self.n_max + M)])
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

    def interior_mask(self, reach: int) -> np.ndarray:
        """Boolean mask of states in grades <= n_max - reach."""
        return self.grades <= self.n_max - reach

    def _ladder_table(self) -> LadderTable:
        src, mode = np.nonzero(self.states)
        lowered = self.states[src].astype(np.int64)
        lowered[np.arange(len(src)), mode] -= 1
        dst = self.rank(lowered)
        order = np.argsort(dst, kind="stable")
        src, dst, mode = src[order], dst[order], mode[order]
        # int32 indices: dim is capped far below 2**31, and scipy.sparse
        # would otherwise scan and downcast them on every matrix it builds
        return LadderTable(
            src=src.astype(np.int32),
            dst=dst.astype(np.int32),
            amp=np.sqrt(self.states[src, mode].astype(float)),
            mode=mode,
            dst_ptr=np.searchsorted(dst, np.arange(self.dim + 1)).astype(np.int32),
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
    t = basis.ladders
    sel = t.mode == i
    out = np.zeros(basis.dim, dtype=complex)
    out[t.dst[sel]] = t.amp[sel] * v[t.src[sel]]
    return out


def apply_mode_creation(
    basis: FockBasis, i: int, v: np.ndarray, *, with_dropped: bool = False
):
    """Truncated creation: |n> -> sqrt(n_i + 1) |n + e_i>, top grade dropped.

    With ``with_dropped=True`` also returns the squared norm of the dropped
    part, i.e. sum over top-grade states of (n_i + 1) |v_n|^2.
    """
    t = basis.ladders
    sel = t.mode == i
    out = np.zeros(basis.dim, dtype=complex)
    out[t.src[sel]] = t.amp[sel] * v[t.dst[sel]]
    if not with_dropped:
        return out
    top = basis.grades == basis.n_max
    occ_top = basis.states[top, i].astype(float)
    dropped = float(np.sum((occ_top + 1.0) * np.abs(v[top]) ** 2))
    return out, dropped


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
    ``v`` is one coefficient vector of shape (dim,) or a block (B, dim) of
    them, acted on row by row.  The sparse matrix is built from the ladder
    table on every call.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (basis.num_modes,):
        raise ConfigError(f"smearing must have one value per mode, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ConfigError("smearing function is not finite at every mode")
    if which not in ("annihilate", "create", "segal"):
        raise ConfigError(f"unknown smeared action {which!r}")
    t = basis.ladders
    scale = np.sqrt(grid.weights) / (math.sqrt(2.0) if which == "segal" else 1.0)
    shape = (basis.dim, basis.dim)
    ops = []
    if which in ("annihilate", "segal"):
        data = (scale * np.conj(f))[t.mode] * t.amp
        ops.append(scipy.sparse.csr_matrix((data, t.src, t.dst_ptr), shape=shape))
    if which in ("create", "segal"):
        data = (scale * f)[t.mode] * t.amp
        ops.append(scipy.sparse.csc_matrix((data, t.src, t.dst_ptr), shape=shape))
    block = np.asarray(v).T
    out = ops[0] @ block
    if len(ops) == 2:
        out += ops[1] @ block
    return out.T


def free_energies(basis: FockBasis, grid: ModeGrid) -> np.ndarray:
    """Diagonal of the second-quantized dispersion: sum_i n_i omega_i."""
    return basis.states @ grid.omega


def apply_dgamma_omega(basis: FockBasis, grid: ModeGrid, v: np.ndarray) -> np.ndarray:
    """Free Hamiltonian dGamma(omega): multiply by sum_i n_i omega(k_i)."""
    return free_energies(basis, grid) * v


def apply_number(basis: FockBasis, v: np.ndarray) -> np.ndarray:
    """Number operator dGamma(1): multiply by the grade sum_i n_i."""
    return basis.grades * v


def apply_h0perp_inverse(
    basis: FockBasis, grid: ModeGrid, v: np.ndarray, shift: float = 0.0
) -> np.ndarray:
    """Reduced resolvent of the free Hamiltonian off the vacuum.

    Maps the vacuum component to zero and divides every other coefficient by
    ``sum_i n_i omega_i - shift``.  The default shift 0 is the plain reduced
    inverse; a nonzero shift must stay below the smallest nonzero free energy.
    """
    esum = free_energies(basis, grid)
    if shift != 0.0 and basis.dim > 1:
        min_pos = esum[1:].min()
        if shift >= min_pos:
            raise ConfigError(
                f"shift {shift} not below the reduced free spectrum (min {min_pos})"
            )
    out = np.zeros(basis.dim, dtype=complex)
    out[1:] = v[1:] / (esum[1:] - shift)
    return out


def project_vacuum(basis: FockBasis, v: np.ndarray, which: str = "P0") -> np.ndarray:
    """Projection onto the vacuum line (P0) or its complement (P0perp)."""
    out = v.copy()
    if which == "P0":
        out[1:] = 0.0
    elif which == "P0perp":
        out[0] = 0.0
    else:
        raise ConfigError(f"unknown projection {which!r}")
    return out


# ---------------------------------------------------------------------------
# operator handles


@dataclass(frozen=True)
class OperatorHandle:
    """Matrix-free linear operator on coefficient vectors."""

    apply: Callable[[np.ndarray], np.ndarray]
    dim: int
    hermitian: bool = True
    descriptor: str = ""

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
