"""Ground states and shifted Hermitian solves on operator handles.

The eigensolver is a thick-restart Lanczos iteration (Wu & Simon, SIAM J.
Matrix Anal. Appl. 22 (2000) 602) with full reorthogonalization: each block
grows the basis to ``BLOCK_STEPS`` vectors, reorthogonalizing every new vector
twice against the whole basis in matrix form, and each restart keeps the
``KEEP`` lowest Ritz vectors plus the residual direction.  Shifted solves are
conjugate gradients with a diagonal preconditioner.  At desk-scale dimensions
both are robust and cheap, and with a fixed seed the whole computation is
deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteShift, NearDegenerateWarning, NoConvergence
from .fock import OperatorHandle

BLOCK_STEPS = 40  # basis size of one Lanczos block
KEEP = 8  # lowest Ritz vectors kept at each thick restart
DEGENERACY_RTOL = 1e-8
# the run ends at the roundoff floor once the residual is within FLOOR_MARGIN of
# eps * max|Ritz value| and has not halved the best one for STALL_BLOCKS blocks
FLOOR_MARGIN = 100.0
STALL_BLOCKS = 3


@dataclass
class SpectralResult:
    """Converged extremal eigenpair with convergence diagnostics.

    ``iterations`` counts matvecs, ``restarts`` thick restarts.
    ``gap_estimate`` is the difference of the two lowest Ritz values of the
    last block.  Every restart keeps the second Ritz vector, which converges
    to the first excited state alongside the ground state, so this is the
    spectral gap e1 - e0 of the handle (on the reference model it matches
    dense diagonalization to about 1e-12).  By Cauchy interlacing it can only
    lie above the gap while the second Ritz pair is still converging.
    ``solve`` and ``sweep`` solve the even sector ``ham.even``, so their gap
    is the one within it: 3.606 on the ``deep-solve`` benchmark model, where
    the lowest excited state is odd and 1.745 above e0.
    """

    e0: float
    vector: np.ndarray
    residual: float
    iterations: int
    restarts: int
    gap_estimate: float
    near_degenerate: bool = False
    top_grade_weight: float | None = None


def ground_state(
    h: OperatorHandle,
    dim: int,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    seed: int = 0,
) -> SpectralResult:
    """Lowest eigenpair of a Hermitian handle by thick-restart Lanczos.

    Converges when the explicit residual ||H v - e v|| drops below ``tol``,
    checked once per block; raises NoConvergence once ``max_iter`` matvecs
    are spent, when a block breaks down on an invariant subspace (all of it
    when dim <= BLOCK_STEPS) whose lowest Ritz pair still misses ``tol``, or
    when the residual stops falling at the roundoff floor, eps times the
    largest Ritz value, above ``tol`` (see ``FLOOR_MARGIN``).
    The returned vector is unit norm with its vacuum (index 0) coefficient
    rotated to the nonnegative real axis, so overlaps with the vacuum are
    reproducible across runs.  ``gap_estimate`` is the gap e1 - e0 from the
    two lowest Ritz values (see SpectralResult).  If it is below
    ``DEGENERACY_RTOL * max(1, |e0|)`` a NearDegenerateWarning is issued and
    flagged on the result.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    steps = min(BLOCK_STEPS, dim)
    # basis vectors as rows, the last one the residual direction of a full block
    basis = np.zeros((steps + 1, dim), dtype=complex)
    proj = np.zeros((steps, steps), dtype=complex)  # basis^H H basis
    basis[0] = x / np.linalg.norm(x)
    kept = matvecs = restarts = stalled = 0
    best = np.inf
    while True:
        invariant = False
        for j in range(kept, steps):
            w = h(basis[j])
            matvecs += 1
            coef = np.zeros(j + 1, dtype=complex)
            for _ in range(2):  # classical Gram-Schmidt, twice
                # conj(V @ conj(w)) = V^H w without copying the conjugated basis
                c = np.conj(basis[: j + 1] @ np.conj(w))
                w -= c @ basis[: j + 1]
                coef += c
            proj[j, : j + 1] = np.conj(coef)
            proj[: j + 1, j] = coef
            n = j + 1
            beta = float(np.linalg.norm(w))
            if beta < 1e-14 or n == dim:
                invariant = True
                break
            basis[n] = w / beta
        theta, y = np.linalg.eigh(proj[:n, :n])
        keep = min(KEEP, n)
        ritz = y[:, :keep].T @ basis[:n]
        e0 = float(theta[0])
        gap = float(theta[1] - theta[0]) if n > 1 else np.inf
        x = ritz[0] / np.linalg.norm(ritz[0])
        hx = h(x)
        matvecs += 1
        residual = float(np.linalg.norm(hx - e0 * x))
        if residual <= tol:
            break
        floor = np.finfo(float).eps * float(np.abs(theta).max())
        stalled = stalled + 1 if best / 2 <= residual <= FLOOR_MARGIN * floor else 0
        best = min(best, residual)
        if invariant or matvecs >= max_iter or stalled == STALL_BLOCKS:
            why = f": it stopped falling near the roundoff floor eps * max|Ritz value| = {floor:.3e}"
            raise NoConvergence(
                f"ground state not converged after {matvecs} matvecs "
                f"(residual {residual:.3e}, tol {tol:.3e}){why if stalled == STALL_BLOCKS else ''}"
            )
        # thick restart: H V[:keep] picks up only the residual direction V[keep],
        # whose couplings the next step's coefficients fill in as an arrow row
        basis[:keep] = ritz
        basis[keep] = basis[n]
        proj[:] = 0.0
        proj[range(keep), range(keep)] = theta[:keep]
        kept = keep
        restarts += 1
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
        iterations=matvecs,
        restarts=restarts,
        gap_estimate=gap,
        near_degenerate=near,
    )


def solve_shifted(
    h: OperatorHandle,
    shift: float,
    rhs: np.ndarray,
    *,
    precond: np.ndarray,
    emin: float,
    tol: float = 1e-12,
) -> tuple[np.ndarray, int, float]:
    """Solve (H + shift) x = rhs by diagonally preconditioned conjugate gradients.

    Requires H + shift positive definite, i.e. shift > -emin with ``emin`` the
    caller's minimum of spec(H) (the ground energy it has already computed),
    and ``precond``, the diagonal of the preconditioner M ~ H + shift,
    positive in every entry.  Convergence is ||(H + shift) x - rhs|| <= tol *
    ||rhs||, on the unpreconditioned recursive residual, within max(1000,
    20 dim) iterations.  Returns (x, iterations, final relative residual).
    """
    floor = emin + shift
    if floor <= 1e-14 * max(1.0, abs(emin)):
        raise IndefiniteShift(
            f"shift {shift} leaves the operator indefinite (min eigenvalue estimate {emin})"
        )
    if not np.all(precond > 0):
        raise ValueError("precond must be positive in every entry")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    max_iter = max(1000, 20 * rhs.shape[0])
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / precond
    p = z
    rz = np.vdot(r, z)
    for it in range(1, max_iter + 1):
        ap = h(p) + shift * p
        alpha = rz / np.vdot(p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol * rhs_norm:
            return x, it, r_norm / rhs_norm
        z = r / precond
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(
        f"shifted solve not converged after {max_iter} iterations "
        f"(residual {r_norm:.3e}, target {tol * rhs_norm:.3e})"
    )
