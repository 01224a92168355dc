"""Momentum discretization, cutoff functions, and spatial quadrature.

The one-particle momentum space is discretized on a uniform symmetric
cell-centered grid: for half-width ``kmax`` and ``modes_per_axis`` cells per
axis the cell width is ``dk = 2*kmax/modes_per_axis`` and the modes sit at the
cell centers, each carrying the cell measure ``w = dk**d`` as quadrature
weight.  Discrete norms built from these weights stand in for the continuum
L^1/L^2 norms everywhere downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NegativeSpatialCutoff,
    NonpositiveWeight,
    ZeroFrequencyMode,
)

# Gaussian cutoffs are integrated over +-GAUSSIAN_SUPPORT_SIGMAS standard
# deviations; the neglected tail mass is reported on the quadrature object.
GAUSSIAN_SUPPORT_SIGMAS = 6.0

_CUTOFF_KINDS = ("indicator", "gaussian", "tabulated")


@dataclass(frozen=True)
class CutoffSpec:
    """A nonnegative-by-convention scalar cutoff profile on R^d.

    kind:
        ``indicator``  -- 1 inside, 0 outside.  One parameter ``R`` means the
        ball ``|x| <= R``; two parameters ``(a, b)`` mean the interval
        ``[a, b]`` (d = 1 only).
        ``gaussian``   -- ``A * exp(-|x|^2 / (2 sigma^2))`` with parameters
        ``(sigma,)`` or ``(A, sigma)``.
        ``tabulated``  -- linear interpolation of ``(point, value)`` pairs in
        ``|x|`` (or in ``x`` itself for d = 1 tables with signed points),
        zero outside the tabulated range.
    """

    kind: str
    parameters: tuple[float, ...] = ()
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        # every message begins with the failed property: the parser puts the key it read before it
        if self.kind not in _CUTOFF_KINDS:
            raise ConfigError(f"must be one of {_CUTOFF_KINDS} (cutoff kind {self.kind!r})")
        for row in self.table or ():
            if np.shape(row) != (2,):
                raise ConfigError(f"must be (point, value) pairs (tabulated cutoff entry {row!r})")
        entries = (*self.parameters, *(x for row in self.table or () for x in row))
        if not all(math.isfinite(x) for x in entries):
            raise ConfigError(f"must be finite ({self.kind} cutoff parameters and table entries)")
        if self.kind == "indicator":
            if len(self.parameters) not in (1, 2):
                raise ConfigError("must be 1 (radius) or 2 (interval) numbers (indicator cutoff parameters)")
            if len(self.parameters) == 1 and self.parameters[0] < 0:
                raise ConfigError("must be nonnegative (indicator radius)")
            if len(self.parameters) == 2 and self.parameters[0] > self.parameters[1]:
                raise ConfigError("must satisfy a <= b (indicator interval [a, b])")
        elif self.kind == "gaussian":
            if len(self.parameters) not in (1, 2) or self.parameters[-1] <= 0:
                raise ConfigError("must be (sigma,) or (A, sigma) with sigma > 0 (gaussian cutoff parameters)")
        else:
            if not self.table:
                raise ConfigError("must hold at least one (point, value) pair (tabulated cutoff table)")
            pts = [p for p, _ in self.table]
            if sorted(pts) != pts or len(set(pts)) != len(pts):
                raise ConfigError("must be strictly increasing (tabulated cutoff points)")

    @property
    def amp_sigma(self) -> tuple[float, float]:
        """``(A, sigma)`` of a gaussian cutoff; A defaults to 1."""
        return (1.0, *self.parameters) if len(self.parameters) == 1 else self.parameters

    @property
    def signed_table(self) -> bool:
        return self.table is not None and any(p < 0 for p, _ in self.table)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` of shape (n, d); returns shape (n,)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "indicator":
            if len(self.parameters) == 1:
                r = np.linalg.norm(points, axis=1)
                out = np.where(r <= self.parameters[0], 1.0, 0.0)
            else:
                if points.shape[1] != 1:
                    raise ConfigError("interval indicator cutoff is one-dimensional")
                a, b = self.parameters
                x = points[:, 0]
                out = np.where((x >= a) & (x <= b), 1.0, 0.0)
        elif self.kind == "gaussian":
            amp, sigma = self.amp_sigma
            r2 = np.sum(points**2, axis=1)
            out = amp * np.exp(-r2 / (2.0 * sigma**2))
        else:
            pts = np.array([p for p, _ in self.table])
            vals = np.array([v for _, v in self.table])
            if self.signed_table:
                if points.shape[1] != 1:
                    raise ConfigError("signed tabulated cutoff is one-dimensional")
                x = points[:, 0]
            else:
                x = np.linalg.norm(points, axis=1)
            out = np.interp(x, pts, vals, left=0.0, right=0.0)
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"{self.kind} cutoff evaluated to a non-finite value")
        return out

    def support_interval(self) -> tuple[float, float]:
        """Interval (per axis) covering the support, or effective support."""
        if self.kind == "indicator":
            if len(self.parameters) == 1:
                return -self.parameters[0], self.parameters[0]
            return self.parameters
        if self.kind == "gaussian":
            half = GAUSSIAN_SUPPORT_SIGMAS * self.amp_sigma[1]
            return -half, half
        pts = [p for p, _ in self.table]
        if self.signed_table:
            return pts[0], pts[-1]
        return -pts[-1], pts[-1]


def load_cutoff_table(path) -> CutoffSpec:
    """Read a tabulated cutoff from a two-column text file.

    Columns are whitespace-separated ``point value`` pairs; ``#`` starts a
    comment.  ``CutoffSpec`` checks the rows: pairs, finite, points strictly
    increasing, at least one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's warning on a file without rows
        data = np.loadtxt(path, comments="#", ndmin=2)
    return CutoffSpec(kind="tabulated", table=tuple(map(tuple, data.tolist())))


@dataclass(frozen=True)
class ModeGrid:
    """Discretized momenta with weights, dispersion, and UV-cutoff profile.

    modes:  (M, d) cell-center momenta, lexicographically ordered.
    weights:(M,) strictly positive cell measures.
    omega:  (M,) dispersion sqrt(k^2 + m^2), strictly positive.
    chib:   (M,) UV cutoff evaluated at the modes.
    rho:    (M,) chib / sqrt(omega).
    """

    dimension: int
    mass: float
    modes: np.ndarray
    weights: np.ndarray
    omega: np.ndarray = field(init=False)
    chib: np.ndarray = field(init=False)
    rho: np.ndarray = field(init=False)
    uv_cutoff: CutoffSpec = None

    def __post_init__(self):
        modes = np.atleast_2d(np.asarray(self.modes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if modes.shape[1] != self.dimension:
            raise ConfigError(f"mode vectors have dimension {modes.shape[1]}, expected {self.dimension}")
        if self.mass < 0:
            raise ConfigError("mass must be nonnegative")
        if np.any(weights <= 0):
            raise NonpositiveWeight(f"grid weights must be positive, got min {weights.min()}")
        order = np.lexsort(modes.T[::-1])
        modes = modes[order]
        weights = weights[order]
        if len(modes) > 1 and np.any(np.all(np.diff(modes, axis=0) == 0, axis=1)):
            raise ConfigError("duplicate momentum vectors in mode list")
        omega = np.sqrt(np.sum(modes**2, axis=1) + self.mass**2)
        if np.any(omega == 0):
            raise ZeroFrequencyMode(
                "massless grid contains k = 0; exclude the zero mode or use m > 0"
            )
        chib = self.uv_cutoff(modes) if self.uv_cutoff is not None else np.ones(len(modes))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "chib", chib)
        object.__setattr__(self, "rho", chib / np.sqrt(omega))
        for arr in ("modes", "weights", "omega", "chib", "rho"):
            getattr(self, arr).setflags(write=False)

    @property
    def num_modes(self) -> int:
        return len(self.weights)

    def smearing_at(self, x) -> np.ndarray:
        """Complex mode profile rho * exp(-i k.x) of the field at point x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        phase = self.modes @ x
        return self.rho * np.exp(-1j * phase)


def build_grid(
    dimension: int,
    mass: float,
    uv_cutoff: CutoffSpec | None = None,
    *,
    kmax: float | None = None,
    modes_per_axis: int | None = None,
    modes: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> ModeGrid:
    """Build a ModeGrid from either (kmax, modes_per_axis) or explicit modes.

    The uniform rule places cell centers ``-kmax + (i + 1/2) dk`` per axis with
    ``dk = 2 kmax / modes_per_axis`` and weight ``dk**dimension`` per mode.
    Explicit modes default to unit weights unless weights are given.
    """
    if modes is not None:
        modes = np.atleast_2d(np.asarray(modes, dtype=float))
        if modes.shape[0] < 1:
            raise ConfigError("explicit mode list must contain at least one mode")
        if weights is None:
            weights = np.ones(modes.shape[0])
    else:
        if kmax is None or modes_per_axis is None:
            raise ConfigError("grid needs either explicit modes or (kmax, modes_per_axis)")
        if modes_per_axis < 1:
            raise ConfigError("modes_per_axis must be at least 1")
        if kmax <= 0:
            raise ConfigError("kmax must be positive")
        dk = 2.0 * kmax / modes_per_axis
        axis = -kmax + (np.arange(modes_per_axis) + 0.5) * dk
        grids = np.meshgrid(*([axis] * dimension), indexing="ij")
        modes = np.stack([g.ravel() for g in grids], axis=1)
        weights = np.full(modes.shape[0], dk**dimension)
    return ModeGrid(dimension=dimension, mass=mass, modes=modes, weights=weights, uv_cutoff=uv_cutoff)


def cutoff_norm(grid: ModeGrid, exponent: float) -> float:
    """Discrete L^2 norm of chi_b / omega**exponent over the mode grid.

    Returns ``sqrt(sum_i w_i |chib(k_i)|^2 / omega_i**(2*exponent))``;
    exponent 0 gives the plain discrete norm of the UV cutoff.
    """
    return float(np.sqrt(np.sum(grid.weights * grid.chib**2 / grid.omega ** (2.0 * exponent))))


@dataclass(frozen=True)
class SpatialQuadrature:
    """Quadrature nodes and weights resolving the spatial cutoff.

    ``chi_l1`` is the discrete L^1 mass sum(u * chi) used by every constant
    downstream; ``truncation_error`` reports the analytic tail mass dropped
    when a gaussian cutoff is clipped to its effective support.
    """

    nodes: np.ndarray
    weights: np.ndarray
    chi_values: np.ndarray
    truncation_error: float = 0.0

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        chi = np.asarray(self.chi_values, dtype=float)
        if np.any(weights <= 0):
            raise NonpositiveWeight("quadrature weights must be positive")
        if np.any(chi < 0):
            raise NegativeSpatialCutoff(
                f"spatial cutoff is negative at a node (min {chi.min()}); signed cutoffs are rejected"
            )
        if not np.all(np.isfinite(chi)):
            raise ConfigError("spatial cutoff evaluated to a non-finite value")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "chi_values", chi)
        for arr in ("nodes", "weights", "chi_values"):
            getattr(self, arr).setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return len(self.weights)

    @property
    def chi_l1(self) -> float:
        return float(np.sum(self.weights * np.abs(self.chi_values)))


def _trapezoid_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 1:
        return np.array([(lo + hi) / 2.0]), np.array([hi - lo if hi > lo else 1.0])
    nodes = np.linspace(lo, hi, n)
    if lo == -hi:  # linspace can miss the mirror by an ulp; make the nodes exactly antisymmetric
        nodes = (nodes - nodes[::-1]) / 2.0
    h = (hi - lo) / (n - 1)
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def build_spatial_quadrature(
    dimension: int,
    spatial_cutoff: CutoffSpec,
    nodes_per_axis: int,
) -> SpatialQuadrature:
    """Trapezoid quadrature over the (effective) support of the spatial cutoff."""
    if nodes_per_axis < 1:
        raise ConfigError("quadrature needs at least one node per axis")
    lo, hi = spatial_cutoff.support_interval()
    axis_nodes, axis_w = _trapezoid_axis(lo, hi, nodes_per_axis)
    grids = np.meshgrid(*([axis_nodes] * dimension), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([axis_w] * dimension), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    chi = spatial_cutoff(nodes)
    trunc = 0.0
    if spatial_cutoff.kind == "gaussian":
        amp, sigma = spatial_cutoff.amp_sigma
        full_1d = amp ** (1.0 / dimension) * sigma * math.sqrt(2.0 * math.pi)
        covered_1d = full_1d * math.erf(GAUSSIAN_SUPPORT_SIGMAS / math.sqrt(2.0))
        trunc = abs(full_1d**dimension - covered_1d**dimension)
    return SpatialQuadrature(nodes=nodes, weights=weights, chi_values=chi, truncation_error=trunc)
