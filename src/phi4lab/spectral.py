"""Ground states and shifted Hermitian solves on operator handles.

The eigensolver is a restarted Lanczos iteration with full
reorthogonalization: each restart builds a fresh Krylov block from the current
best Ritz vector, keeping every basis vector and reorthogonalizing twice per
step.  At desk-scale dimensions this is both robust and cheap, and with a
fixed seed the whole computation is deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteShift, NearDegenerateWarning, NoConvergence
from .fock import OperatorHandle

BLOCK_STEPS = 40  # Lanczos steps per restart
DEGENERACY_RTOL = 1e-8


@dataclass
class SpectralResult:
    """Converged extremal eigenpair with convergence diagnostics.

    ``gap_estimate`` is the difference of the two lowest Ritz values of the
    last Lanczos block.  The second Ritz value bounds e1 from above (Cauchy
    interlacing), so this is an upper bound on the spectral gap e1 - e0, not
    the gap itself, and it depends on the seed: a block started from the
    nearly converged ground state resolves e1 only as far as the start vector
    still overlaps the first excited state (which may have the other
    boson-number parity, a sector H never mixes with the ground state's).
    """

    e0: float
    vector: np.ndarray
    residual: float
    iterations: int
    gap_estimate: float
    near_degenerate: bool = False
    top_grade_weight: float | None = None
    kappa: float | None = None


def _lanczos_block(h: OperatorHandle, start: np.ndarray, steps: int):
    """One full-reorthogonalization Lanczos block from ``start``.

    Returns (ritz values, ritz vectors in the ambient space, matvec count).
    """
    dim = start.shape[0]
    steps = min(steps, dim)
    vecs = [start / np.linalg.norm(start)]
    alphas: list[float] = []
    betas: list[float] = []
    matvecs = 0
    w = h(vecs[0])
    matvecs += 1
    for j in range(steps):
        alpha = float(np.real(np.vdot(vecs[j], w)))
        alphas.append(alpha)
        w = w - alpha * vecs[j]
        if j > 0:
            w = w - betas[-1] * vecs[j - 1]
        # full reorthogonalization, twice for numerical safety
        for _ in range(2):
            for q in vecs:
                w = w - np.vdot(q, w) * q
        beta = float(np.linalg.norm(w))
        if j == steps - 1 or beta < 1e-14:
            break
        betas.append(beta)
        vecs.append(w / beta)
        w = h(vecs[-1])
        matvecs += 1
    m = len(alphas)
    tmat = np.diag(np.array(alphas))
    if m > 1:
        off = np.array(betas[: m - 1])
        tmat += np.diag(off, 1) + np.diag(off, -1)
    theta, y = np.linalg.eigh(tmat)
    basis_mat = np.array(vecs).T
    ritz = basis_mat @ y
    return theta, ritz, matvecs


def ground_state(
    h: OperatorHandle,
    dim: int,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    seed: int = 0,
) -> SpectralResult:
    """Lowest eigenpair of a Hermitian handle by restarted Lanczos.

    Converges when the explicit residual ||H v - e v|| drops below ``tol``.
    The returned vector is unit norm with its vacuum (index 0) coefficient
    rotated to the nonnegative real axis, so overlaps with the vacuum are
    reproducible across runs.  ``gap_estimate`` is the difference of the two
    lowest Ritz values of the last block, an upper bound on the spectral gap
    (see SpectralResult).  If it is below ``DEGENERACY_RTOL * max(1, |e0|)`` a
    NearDegenerateWarning is issued and flagged on the result.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    total_matvecs = 0
    gap = np.inf
    while True:
        theta, ritz, used = _lanczos_block(h, x, BLOCK_STEPS)
        total_matvecs += used
        e0 = float(theta[0])
        x = ritz[:, 0]
        x /= np.linalg.norm(x)
        if len(theta) > 1:
            gap = float(theta[1] - theta[0])
        hx = h(x)
        total_matvecs += 1
        residual = float(np.linalg.norm(hx - e0 * x))
        if residual <= tol:
            break
        if total_matvecs >= max_iter:
            raise NoConvergence(
                f"ground state not converged after {total_matvecs} matvecs "
                f"(residual {residual:.3e}, tol {tol:.3e})"
            )
    # fix the phase: vacuum coefficient real and nonnegative
    anchor = x[0]
    if abs(anchor) < 1e-12:
        anchor = x[np.argmax(np.abs(x))]
    if abs(anchor) > 0:
        x = x * (np.conj(anchor) / abs(anchor))
    near = gap <= DEGENERACY_RTOL * max(1.0, abs(e0))
    if near:
        warnings.warn(
            f"two lowest Ritz values within {gap:.3e} of each other; "
            "ground state may not be simple",
            NearDegenerateWarning,
        )
    return SpectralResult(
        e0=e0,
        vector=x,
        residual=residual,
        iterations=total_matvecs,
        gap_estimate=gap,
        near_degenerate=near,
    )


def solve_shifted(
    h: OperatorHandle,
    shift: float,
    rhs: np.ndarray,
    *,
    emin: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve (H + shift) x = rhs by conjugate gradients.

    Requires H + shift positive definite, i.e. shift > -emin with ``emin`` the
    caller's minimum of spec(H) (the ground energy it has already computed).
    Convergence is ||(H + shift) x - rhs|| <= tol * ||rhs||, within
    max(1000, 20 dim) iterations.
    """
    floor = emin + shift
    if floor <= 1e-14 * max(1.0, abs(emin)):
        raise IndefiniteShift(
            f"shift {shift} leaves the operator indefinite (min eigenvalue estimate {emin})"
        )
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    max_iter = max(1000, 20 * rhs.shape[0])
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.vdot(r, r)
    for _ in range(max_iter):
        ap = h(p) + shift * p
        alpha = rs / np.vdot(p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = np.vdot(r, r)
        if np.sqrt(abs(rs_new)) <= tol * rhs_norm:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NoConvergence(
        f"shifted solve not converged after {max_iter} iterations "
        f"(residual {np.sqrt(abs(rs)):.3e}, target {tol * rhs_norm:.3e})"
    )

