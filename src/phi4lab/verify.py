"""Identity and inequality suites, and the coupling sweep.

Every check returns a CheckOutcome carrying the measured number, the
threshold it was held to, and enough context to reproduce the number.
Inequality checks report their slack; a violation beyond tolerance fails the
outcome with the offending numbers in the context.

Identities that are exact only without truncation are asserted on interior
vectors (see the fock module) and the grade reach used is stated with each
check.  Random test vectors are drawn on the stated interior grades only, the
basis prefix they fill, with seeded standard complex normal coefficients, and
normalized; every product keeps the length its operand reaches.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import ModelParams
from .errors import ConfigError, Phi4LabError, SpectralConditionViolated
from .fock import FockBasis, apply_h0perp_inverse, apply_mode_annihilation, apply_smeared
from .hamiltonian import HamiltonianSet
from .spectral import SpectralResult, ground_state, solve_shifted
from .theory import (
    EpsilonFamily,
    TheoryConstants,
    epsilon_family,
    hbound_constants,
    optimize_epsilon,
    rayleigh_upper_bound,
    series_upper_bound,
)

_FLOOR = 1e-300
TOP_GRADE_REACH = 4
# grade reach of the inequality checks' vectors; below it their interior is empty
INEQUALITY_REACH = 8
# relative size at which the interior truncation defect counts as roundoff
DEFECT_ROUNDOFF = 1e-12
# tolerances of the ground-state checks
NUMBER_TOL = 1e-10  # boson-number slack, relative to max(1, ceiling)
LADDER_SUM_TOL = 1e-12  # <v, N v> against sum_i ||a_i v||^2, relative
OVERLAP_TOL = 1e-12  # vacuum-overlap slack
ENERGY_TOL = 1e-9  # eigenprojection energy residual, relative to max(1, |e0|)
PROJECTION_TOL = 1e-8  # eigenprojection vector residual
# rows per block of the batched identity checks; at dim 5,005 blocks of 100 and
# 10 rows raised the peak RSS of `verify` by 46 MB and 2 MB, blocks of 5 not
BLOCK_ROWS = 5


@dataclass
class CheckOutcome:
    """Result of one named check: measured value vs threshold plus context."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    measured: float
    threshold: float
    context: dict = field(default_factory=dict)
    caveat: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _interior_blocks(basis: FockBasis, reach: int, count: int, seed: int):
    """``count`` seeded complex-normal unit vectors on grades <= n_max - reach, the
    checks' one draw: ``(B, end)`` rows on the interior, the basis prefix of ``end``
    states, yielded BLOCK_ROWS at a time so that the draw holds one block in memory."""
    end = basis.grade_end(basis.n_max - reach)  # the interior is a prefix
    if not end:
        raise Phi4LabError(f"no interior states of reach {reach} at n_max={basis.n_max}")
    rng = np.random.default_rng(seed)
    for start in range(0, count, BLOCK_ROWS):
        # per row: end real parts, then end imaginary parts, as drawn one at a time
        normals = rng.standard_normal((min(BLOCK_ROWS, count - start), 2, end))
        block = normals[:, 0] + 1j * normals[:, 1]
        for row in block:
            row /= np.linalg.norm(row)
        yield block


def top_grade_weight(basis: FockBasis, v: np.ndarray) -> float:
    """Total squared weight of v in the top TOP_GRADE_REACH grades."""
    return float(np.sum(np.abs(v[basis.grade_end(basis.n_max - TOP_GRADE_REACH) :]) ** 2))


def _rel(diff: float, scale: float) -> float:
    return diff / (scale + _FLOOR)


# ---------------------------------------------------------------------------
# algebraic identity suite


def check_ccr(
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Canonical commutation relations for smeared ladders on interior vectors.

    [a(f), a+(g)] acts as the weighted inner product (f, g); the same-species
    commutators vanish.  Asserted on grades <= n_max - 2.
    """
    basis, grid = ham.basis, ham.grid
    rng = np.random.default_rng(seed)
    vectors = (v for block in _interior_blocks(basis, 2, count, seed + 1) for v in block)

    def a(fn, u):
        return apply_smeared(basis, grid, fn, u, "annihilate")

    def c(fn, u):
        return apply_smeared(basis, grid, fn, u, "create")

    worst = 0.0
    for v in vectors:
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        g = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        pairing = np.sum(grid.weights * np.conj(f) * g)
        # the annihilation slot holds g, then f, then g: three refills per vector;
        # each difference pairs products of one length (grades <= n_max - 2, - 4, n_max)
        a_g, c_g = a(g, v), c(g, v)
        a_f, c_f, af_cg, af_ag, cf_cg = a(f, v), c(f, v), a(f, c_g), a(f, a_g), c(f, c_g)
        mixed = af_cg - c(g, a_f) - pairing * v
        same_a = af_ag - a(g, a_f)
        same_c = cf_cg - c(g, c_f)
        scale = abs(pairing) * np.linalg.norm(v) + np.linalg.norm(f) * np.linalg.norm(g)
        worst = max(
            worst,
            _rel(np.linalg.norm(mixed), scale),
            _rel(np.linalg.norm(same_a), scale),
            _rel(np.linalg.norm(same_c), scale),
        )
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome("ccr", status, worst, tol, {"count": count, "reach": 2})


def check_free_commutators(
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Commutators of smeared ladders and the Segal field with the free part.

    [a(f), H0] = a(omega f), [a+(f), H0] = -a+(omega f), and
    [phi(f), H0] = i phi(i omega f), asserted on grades <= n_max - 1.
    """
    basis, grid, h0 = ham.basis, ham.grid, ham.h0
    rng = np.random.default_rng(seed)
    vectors = (v for block in _interior_blocks(basis, 1, count, seed + 1) for v in block)
    worst = 0.0
    for v in vectors:
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        wf = grid.omega * f
        pair = np.stack([h0(v), v])  # each action of f takes both rows in one call

        def op(fn, u, which):
            return apply_smeared(basis, grid, fn, u, which)

        scale = np.linalg.norm(f) * max(1.0, grid.omega.max()) * np.linalg.norm(v)
        f_a, f_c, f_s = (op(f, pair, which) for which in ("annihilate", "create", "segal"))
        comm_a = f_a[0] - h0(f_a[1]) - op(wf, v, "annihilate")
        comm_c = f_c[0] - h0(f_c[1]) + op(wf, v, "create")
        comm_s = f_s[0] - h0(f_s[1]) - 1j * op(1j * wf, v, "segal")
        worst = max(
            worst,
            _rel(np.linalg.norm(comm_a), scale),
            _rel(np.linalg.norm(comm_c), scale),
            _rel(np.linalg.norm(comm_s), scale),
        )
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome("free-commutators", status, worst, tol, {"count": count, "reach": 1})


def check_ladder_bounds(
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Relative bounds of ladder and field operators by the free energy.

    ||a(f) v||   <= ||f/sqrt(omega)|| ||H0^{1/2} v||
    ||a+(f) v||  <= ||f/sqrt(omega)|| ||H0^{1/2} v|| + ||f|| ||v||
    ||phi(f) v|| <= sqrt2 ||f/sqrt(omega)|| ||H0^{1/2} v|| + ||f||/sqrt2 ||v||

    These hold on the whole truncated space (truncation only shrinks norms),
    so random vectors are not projected.  The reported measure is the worst
    negative slack relative to the right-hand side.
    """
    basis, grid = ham.basis, ham.grid
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v /= np.linalg.norm(v)
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        f_norm = math.sqrt(float(np.sum(grid.weights * np.abs(f) ** 2)))
        f_over = math.sqrt(float(np.sum(grid.weights * np.abs(f) ** 2 / grid.omega)))
        h0_half = math.sqrt(max(0.0, float(np.real(np.vdot(v, ham.h0(v))))))
        na = np.linalg.norm(apply_smeared(basis, grid, f, v, "annihilate"))
        nc = np.linalg.norm(apply_smeared(basis, grid, f, v, "create"))
        ns = np.linalg.norm(apply_smeared(basis, grid, f, v, "segal"))
        bounds = (
            (na, f_over * h0_half),
            (nc, f_over * h0_half + f_norm),
            (ns, math.sqrt(2.0) * f_over * h0_half + f_norm / math.sqrt(2.0)),
        )
        for lhs, rhs in bounds:
            worst = max(worst, _rel(lhs - rhs, rhs))
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome("ladder-bounds", status, worst, tol, {"count": count})


def check_double_commutator(
    f: np.ndarray,
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Nested commutator of the squared field with the free part.

    [phi(f)^2, [phi(f)^2, H0]] v = -4 (f, omega f) phi(f)^2 v on grades
    <= n_max - 4, plus the quadratic-form bound
    |<v, [.,[.,H0]] v>| <= 4 ||sqrt(omega) f||^2 (4 ||f/sqrt(omega)||^2
    <v, H0 v> + ||f||^2 ||v||^2).
    """
    basis, grid, h0 = ham.basis, ham.grid, ham.h0
    f = np.asarray(f, dtype=complex)
    f_omega = float(np.real(np.sum(grid.weights * np.conj(f) * grid.omega * f)))
    sqf2 = float(np.sum(grid.weights * grid.omega * np.abs(f) ** 2))
    f_over2 = float(np.sum(grid.weights * np.abs(f) ** 2 / grid.omega))
    f_norm2 = float(np.sum(grid.weights * np.abs(f) ** 2))

    def phi2(u):
        return apply_smeared(basis, grid, f, apply_smeared(basis, grid, f, u, "segal"), "segal")

    def inner_comm(u, phi2_u):
        return phi2(h0(u)) - h0(phi2_u)

    worst = 0.0
    bound_worst = 0.0
    # C-contiguous rows keep each reduction bit-identical to a single-vector call
    for block in _interior_blocks(basis, 4, count, seed):
        p2 = phi2(block)
        lhs_rows = np.ascontiguousarray(phi2(inner_comm(block, p2)) - inner_comm(p2, phi2(p2)))
        rhs_rows = np.ascontiguousarray(-4.0 * f_omega * p2)  # grades <= n_max - 2
        diff_rows = lhs_rows.copy()
        diff_rows[:, : rhs_rows.shape[1]] -= rhs_rows
        for v, lhs, rhs, diff in zip(block, lhs_rows, rhs_rows, diff_rows):
            worst = max(worst, _rel(np.linalg.norm(diff), np.linalg.norm(rhs)))
            quad_form = abs(np.vdot(v, lhs[: len(v)]))
            h0_exp = float(np.real(np.vdot(v, h0(v))))
            bound = 4.0 * sqf2 * (4.0 * f_over2 * h0_exp + f_norm2 * float(np.vdot(v, v).real))
            bound_worst = max(bound_worst, _rel(quad_form - bound, bound))
    status = "pass" if worst <= tol and bound_worst <= tol else "fail"
    return CheckOutcome(
        "double-commutator",
        status,
        worst,
        tol,
        {"count": count, "reach": 4, "bound_slack_rel": -bound_worst},
    )


def check_weak_commutator(
    ham: HamiltonianSet,
    x,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Weak commutator of the quartic field power with an annihilator.

    <phi(x)^4 u, a(f) v> - <a+(f) u, phi(x)^4 v>
        = -2 sqrt2 (f, rho_x) <u, phi(x)^3 v>
    for v in grades <= n_max - 4 (u unrestricted).
    """
    basis, grid = ham.basis, ham.grid
    rng = np.random.default_rng(seed)
    smear = grid.smearing_at(x)

    def phi(u):  # C-contiguous rows keep each reduction bit-identical to a single call
        return np.ascontiguousarray(apply_smeared(basis, grid, smear, u, "segal"))

    worst = 0.0
    # phi(x) acts on blocks, a(f) and a+(f) on single vectors, as f varies
    for block in _interior_blocks(basis, 4, count, seed + 1):
        us, fs = np.empty((len(block), basis.dim), complex), []
        for row in us:
            u = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            row[:] = u / np.linalg.norm(u)
            fs.append(rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes))
        phi3_rows = phi(phi(phi(block)))
        phi4u_rows, phi4v_rows = phi(phi(phi(phi(us)))), phi(phi3_rows)
        for v, u, f, phi4u, phi3v, phi4v in zip(block, us, fs, phi4u_rows, phi3_rows, phi4v_rows):
            a_v = apply_smeared(basis, grid, f, v, "annihilate")
            lhs = np.vdot(phi4u[: len(a_v)], a_v) - np.vdot(apply_smeared(basis, grid, f, u, "create"), phi4v)
            pairing = np.sum(grid.weights * np.conj(f) * smear)
            rhs = -2.0 * math.sqrt(2.0) * pairing * np.vdot(u[: len(phi3v)], phi3v)
            scale = abs(lhs) + abs(rhs)
            worst = max(worst, _rel(abs(lhs - rhs), scale))
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome(
        "weak-commutator-quartic", status, worst, tol, {"count": count, "reach": 4}
    )


# ---------------------------------------------------------------------------
# inequality suite


def check_hbound(
    fam: EpsilonFamily,
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Quadratic-form domination of the free and interaction parts.

    On interior vectors (grades <= n_max - INEQUALITY_REACH), with e = fam.epsilon and
    k = fam.kappa:
      (1 - c_bos e k) ||H0 v||^2 + k^2 ||HI v||^2
          <= ||H(k) v||^2 + (4 d_bos + c_bos / 4e) k ||v||^2
    and the divided form with the family's lambda, mu coefficients (which do
    not depend on the family's e0).
    """
    epsilon, kappa = fam.epsilon, fam.kappa
    c_bos, d_bos = hbound_constants(ham.grid, ham.quadrature)
    vectors = (v for block in _interior_blocks(ham.basis, INEQUALITY_REACH, count, seed) for v in block)
    min_slack = math.inf
    worst = -math.inf
    for v in vectors:
        h0v, hiv = ham.h0(v), ham.hi(v)
        hkv = kappa * hiv  # H0 v adds to the leading part, as in ``ham.hkappa``
        hkv[: len(v)] += h0v
        n_h0 = float(np.linalg.norm(h0v)) ** 2
        n_hik = kappa**2 * float(np.linalg.norm(hiv)) ** 2
        n_hk = float(np.linalg.norm(hkv)) ** 2
        n_v = float(np.linalg.norm(v)) ** 2
        lhs1 = (1.0 - c_bos * epsilon * kappa) * n_h0 + n_hik
        rhs1 = n_hk + (4.0 * d_bos + c_bos / (4.0 * epsilon)) * kappa * n_v
        lhs2 = n_h0 + n_hik
        rhs2 = fam.lam * n_hk + fam.mu * n_v
        for lhs, rhs in ((lhs1, rhs1), (lhs2, rhs2)):
            slack = rhs - lhs
            min_slack = min(min_slack, slack)
            worst = max(worst, _rel(-slack, abs(rhs)))
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome(
        "h-bound",
        status,
        worst,
        tol,
        {"count": count, "reach": INEQUALITY_REACH, "min_slack": min_slack, "epsilon": epsilon, "kappa": kappa},
    )


def check_phi3_bound(
    psi: np.ndarray,
    fam: EpsilonFamily,
    ham: HamiltonianSet,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Pointwise and integrated cubic-field overlap bounds.

    Pointwise, at every node pair:
      |<phi(x)^3 psi, phi(x')^3 psi>|
          <= Re <phi(x)^4 psi, phi(x')^4 psi> + 1/2 <psi, psi>.
    Integrated against the chi-weighted double quadrature, with k = fam.kappa
    and the family's lambda, mu:
      k^2 sum <= lambda ||H(k) psi||^2 + (mu + k^2/2 L1^2) ||psi||^2.
    psi, full or a basis prefix, must live in grades <= n_max - INEQUALITY_REACH.
    """
    kappa = fam.kappa
    p3 = ham.field_powers(psi, 3)
    p4 = ham.field_powers(p3, 1)
    norm2 = float(np.real(np.vdot(psi, psi)))
    # node-pair Gram matrices <phi_j^p psi, phi_k^p psi>
    cross3 = np.abs(p3.conj().T @ p3)
    cross4 = np.real(p4.conj().T @ p4)
    slack = cross4 + 0.5 * norm2 - cross3
    point_worst = float(np.max(_rel(-slack, np.abs(cross4) + norm2 + 1.0), initial=-math.inf))
    integral = float(ham.coef @ cross3 @ ham.coef)
    lhs = kappa**2 * integral
    hk_psi = ham.hkappa(kappa)(psi)
    rhs = fam.lam * float(np.linalg.norm(hk_psi)) ** 2 + (
        fam.mu + 0.5 * kappa**2 * ham.quadrature.chi_l1**2
    ) * norm2
    int_viol = _rel(lhs - rhs, abs(rhs))
    worst = max(point_worst, int_viol)
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome(
        "cubic-field-bound",
        status,
        worst,
        tol,
        {
            "pointwise_worst_rel": point_worst,
            "integrated_lhs": lhs,
            "integrated_rhs": rhs,
            "epsilon": fam.epsilon,
            "kappa": kappa,
        },
    )


def check_number_bound(
    state: SpectralResult,
    fam: EpsilonFamily,
    ham: HamiltonianSet,
) -> CheckOutcome:
    """Ground-state boson number against its closed-form ceiling.

    ``fam`` is the epsilon family at (epsilon, kappa, state.e0), as
    ``check_state`` builds it.  Also cross-checks <v, N v> against the
    per-mode ladder sum sum_i ||a_i v||^2, which must agree to machine
    precision.
    """
    basis, v = ham.basis, state.vector
    nb = float(np.real(np.vdot(v, basis.grades * v)))
    ladder_sum = 0.0
    for i in range(basis.num_modes):
        ladder_sum += float(np.linalg.norm(apply_mode_annihilation(basis, i, v))) ** 2
    cross_rel = _rel(abs(nb - ladder_sum), max(nb, 1.0))
    slack = fam.c_number - nb
    ok = slack >= -NUMBER_TOL * max(1.0, fam.c_number) and cross_rel <= LADDER_SUM_TOL
    return CheckOutcome(
        "boson-number-bound",
        "pass" if ok else "fail",
        nb,
        fam.c_number,
        {
            "slack": slack,
            "ladder_sum": ladder_sum,
            "crosscheck_rel": cross_rel,
            "epsilon": fam.epsilon,
            "kappa": fam.kappa,
        },
    )


def check_overlap(
    state: SpectralResult,
    basis: FockBasis,
    c_number: float | None = None,
) -> CheckOutcome:
    """Vacuum overlap bounds from the boson number.

    |<vac, v>|^2 >= 1 - <v, N v> holds exactly on unit vectors; when a
    number ceiling c < 1 is supplied the stronger |<vac, v>| >= sqrt(1 - c)
    is asserted as well.
    """
    v = state.vector
    overlap = abs(v[0])
    nb = float(np.real(np.vdot(v, basis.grades * v)))
    slack = overlap**2 - (1.0 - nb)
    ok = slack >= -OVERLAP_TOL
    context = {"overlap": overlap, "number": nb, "slack": slack}
    if c_number is not None and 1.0 - c_number > 0.0:
        stronger = overlap - math.sqrt(1.0 - c_number)
        context["stronger_slack"] = stronger
        ok = ok and stronger >= -OVERLAP_TOL
    return CheckOutcome("vacuum-overlap", "pass" if ok else "fail", overlap, 1.0, context)


# ---------------------------------------------------------------------------
# resolvent identities on the computed ground state


def check_pull_through(
    state: SpectralResult,
    kappa: float,
    ham: HamiltonianSet,
    tol: float = 1e-6,
    lin_tol: float = 1e-12,
) -> list[CheckOutcome]:
    """Per-mode resolvent identity for the annihilated ground state.

    For each mode the kernel-normalized annihilation of the ground state,
    lhs = a_i psi / sqrt(w_i), is compared against -2 sqrt2 k rho_i times the
    shifted resolvent applied to the phase-weighted cubic-field source
    s_i = sum_j c_j exp(-i k_i.x_j) phi_j^3 psi; ``measured`` is the relative
    norm of the residual r_i = lhs + 2 sqrt2 k rho_i y_i.

    The identity is exact only in the untruncated model.  Since
    [a_i, H0] = omega_i a_i holds exactly under truncation, the residual
    splits exactly as (H_N - E0 + omega_i) r_i = z_i - k delta_i with

    - the truncation defect delta_i = [a_i, HI_N] psi / sqrt(w_i) - 2 sqrt2
      rho_i s_i, which vanishes on grades <= n_max - TOP_GRADE_REACH;
    - the certificate z_i = (H_N - E0 + omega_i) r_i + k delta_i, equal to
      a_i (H_N - E0) psi / sqrt(w_i) plus 2 sqrt2 k rho_i times the CG
      residual, i.e. the eigen- and linear-solver errors.

    Context reports ``unexplained`` = |z_i| / (omega_i |lhs|),
    ``interior_defect`` = |delta_i| on the interior grades relative to
    |[a_i, HI_N] psi / sqrt(w_i)|, ``caveat_bound`` = unexplained +
    k |delta_i| / (omega_i |lhs|), which bounds ``measured`` because
    H_N - E0 >= 0 up to the squared eigen-residual, and the resolvent solve's
    ``cg_iterations`` and final relative ``cg_residual``: CG runs in the odd
    sector ``ham.odd``, where the source of an even psi lies, preconditioned
    by its free diagonal plus omega_i.  The source is ``ham.node_sum``, real by
    construction for a real psi on a mirror-symmetric model, so the solve and
    every ``H`` product of the check then run in float64.  A residual above ``tol``
    passes with a caveat only when the solver part is within ``tol`` and the
    defect is confined to the top grades (interior part at roundoff);
    otherwise the check fails.
    """
    basis, grid, v = ham.basis, ham.grid, state.vector
    tgw = top_grade_weight(basis, v)
    outcomes: list[CheckOutcome] = []
    if kappa == 0.0:
        # the identity degenerates to a_i vac = 0 = resolvent side; both sides
        # vanish identically, so the residual is measured against the unit
        # state norm (the per-mode norm is pure eigensolver noise here)
        for i in range(basis.num_modes):
            lhs = apply_mode_annihilation(basis, i, v) / math.sqrt(grid.weights[i])
            resid = _rel(np.linalg.norm(lhs), np.linalg.norm(v))
            outcomes.append(
                CheckOutcome(
                    f"pull-through[mode {i}]",
                    "pass" if resid <= tol else "fail",
                    resid,
                    tol,
                    {"mode": i, "kappa": 0.0},
                )
            )
        return outcomes
    hk, odd = ham.hkappa(kappa), ham.odd
    hk_odd = odd.hkappa(kappa)
    hi_v = ham.hi(v)
    interior = basis.grade_end(basis.n_max - TOP_GRADE_REACH)
    for i in range(basis.num_modes):
        sqw = math.sqrt(grid.weights[i])
        omega = float(grid.omega[i])
        lhs = apply_mode_annihilation(basis, i, v) / sqw
        lhs_norm = float(np.linalg.norm(lhs))
        phase = np.exp(-1j * (ham.nodes @ grid.modes[i]))
        rhs_src = ham.node_sum(v, 3, phase)
        shift = omega - state.e0
        y, cg_iterations, cg_residual = solve_shifted(
            hk_odd, shift, rhs_src[odd.index], precond=odd.esum + omega, emin=state.e0, tol=lin_tol
        )
        resid_vec = lhs + 2.0 * math.sqrt(2.0) * kappa * grid.rho[i] * odd.embed(y)
        rel = _rel(np.linalg.norm(resid_vec), lhs_norm)
        commutator = apply_mode_annihilation(basis, i, hi_v) / sqw - ham.hi(lhs)
        defect = commutator - 2.0 * math.sqrt(2.0) * grid.rho[i] * rhs_src
        certificate = hk(resid_vec) + shift * resid_vec + kappa * defect
        scale = omega * lhs_norm
        unexplained = _rel(float(np.linalg.norm(certificate)), scale)
        interior_defect = _rel(
            float(np.linalg.norm(defect[:interior])), float(np.linalg.norm(commutator))
        )
        truncation_part = _rel(kappa * float(np.linalg.norm(defect)), scale)
        context = {
            "mode": i,
            "k": grid.modes[i].tolist(),
            "omega": omega,
            "lhs_norm": lhs_norm,
            "unexplained": unexplained,
            "interior_defect": interior_defect,
            "truncation_defect": truncation_part,
            "caveat_bound": unexplained + truncation_part,
            "top_grade_weight": tgw,
            "cg_iterations": cg_iterations,
            "cg_residual": cg_residual,
            "kappa": kappa,
        }
        name = f"pull-through[mode {i}]"
        if rel <= tol:
            outcomes.append(CheckOutcome(name, "pass", rel, tol, context))
        elif unexplained <= tol and interior_defect <= DEFECT_ROUNDOFF:
            outcomes.append(
                CheckOutcome(
                    name,
                    "pass",
                    rel,
                    tol,
                    context,
                    caveat=(
                        "residual exceeds tol by the truncation defect alone: solver part "
                        f"{unexplained:.3e} <= tol, defect confined to the top "
                        f"{TOP_GRADE_REACH} grades (interior {interior_defect:.1e})"
                    ),
                )
            )
        else:
            outcomes.append(CheckOutcome(name, "fail", rel, tol, context))
    return outcomes


def check_arai_identities(
    state: SpectralResult,
    kappa: float,
    ham: HamiltonianSet,
) -> CheckOutcome:
    """Eigenprojection identities of the vacuum-normalized ground state.

    With t = v / <vac, v>:  e0 = k <vac, HI t> exactly (eigen-relation
    projected on the vacuum), and t = vac - k (H0perp - e0)^{-1} Pperp HI t.
    Requires e0 strictly below the reduced free spectrum min omega.
    """
    basis, grid = ham.basis, ham.grid
    min_omega = float(grid.omega.min())
    if state.e0 >= min_omega:
        raise SpectralConditionViolated(
            f"ground energy {state.e0} not below the reduced free spectrum {min_omega}"
        )
    v = state.vector
    overlap = v[0]
    if abs(overlap) < 1e-14:
        raise SpectralConditionViolated("vacuum overlap vanishes; normalization undefined")
    tilde = v / overlap
    hi_tilde = ham.hi(tilde)
    resid_energy = abs(state.e0 - kappa * complex(hi_tilde[0]))
    corr = apply_h0perp_inverse(ham.esum, hi_tilde, shift=state.e0)
    resid_vector = float(np.linalg.norm(tilde - basis.vacuum() + kappa * corr))
    thr_energy = ENERGY_TOL * max(1.0, abs(state.e0))
    ok = resid_energy <= thr_energy and resid_vector <= PROJECTION_TOL
    return CheckOutcome(
        "eigenprojection-identities",
        "pass" if ok else "fail",
        max(resid_energy / max(1.0, abs(state.e0)), resid_vector),
        max(ENERGY_TOL, PROJECTION_TOL),
        {
            "energy_residual": resid_energy,
            "energy_threshold": thr_energy,
            "vector_residual": resid_vector,
            "vector_threshold": PROJECTION_TOL,
            "tilde_norm": float(np.linalg.norm(tilde)),
            "kappa": kappa,
        },
    )


def epsilon_for(kappa: float, e0: float, ham: HamiltonianSet, params: ModelParams) -> EpsilonFamily:
    """The ``EpsilonFamily`` at (kappa, e0) that ``[epsilon] policy`` picks: at
    ``epsilon_value`` under "fixed", else at the optimal epsilon (``optimize_epsilon``)."""
    if params.epsilon_policy == "fixed":
        return epsilon_family(params.epsilon_value, kappa, e0, ham.grid, ham.quadrature)
    return optimize_epsilon(kappa, e0, ham.grid, ham.quadrature)


def check_state(
    state: SpectralResult,
    kappa: float,
    ham: HamiltonianSet,
    params: ModelParams,
) -> tuple[EpsilonFamily, list[CheckOutcome]]:
    """Every check of one computed ground state, as ``solve`` and ``sweep`` run them.

    ``params`` gives the pull-through tolerance ``pull_tol``, the CG tolerance
    ``lin_tol`` and the epsilon policy (``epsilon_for`` at the state's e0); the
    ``EpsilonFamily`` at the epsilon used comes back with the outcomes.
    Outcomes come in report order: pull-through per mode, boson-number bound,
    vacuum overlap, eigenprojection identities (status "skipped" with the
    reason when their spectral condition fails).
    """
    fam = epsilon_for(kappa, state.e0, ham, params)
    outcomes = check_pull_through(state, kappa, ham, tol=params.pull_tol, lin_tol=params.lin_tol)
    outcomes.append(check_number_bound(state, fam, ham))
    outcomes.append(check_overlap(state, ham.basis, c_number=fam.c_number))
    try:
        outcomes.append(check_arai_identities(state, kappa, ham))
    except SpectralConditionViolated as exc:
        outcomes.append(
            CheckOutcome("eigenprojection-identities", "skipped", math.nan, math.nan, {"reason": str(exc)})
        )
    return fam, outcomes


def command_outcomes(
    ham: HamiltonianSet, params: ModelParams, state: SpectralResult | None = None
) -> list[CheckOutcome]:
    """Every check of ``solve`` (given its ground ``state``, embedded in the full space)
    or of ``verify`` (without one) at ``params.coupling``, in report order: the
    ``check_state`` outcomes, then the identity suite (the CCR check run beside the rest
    by ``_beside``, asked for last, reported first) and, at the epsilon family (the
    state's, else ``epsilon_for`` at e0 = 0) when n_max >= INEQUALITY_REACH, the h-bound
    when kappa > 0 and the cubic-field bound on the state's vector projected to the
    interior (a drawn interior vector without a state or when nothing is left)."""
    seed, basis, quad = params.seed, ham.basis, ham.quadrature
    with _beside(lambda: check_ccr(ham, seed=seed)) as ccr:
        if state is not None:
            fam, outcomes = check_state(state, params.coupling, ham, params)
        else:
            fam = epsilon_for(params.coupling, 0.0, ham, params) if params.n_max >= INEQUALITY_REACH else None
            outcomes = []
        suite = [
            check_free_commutators(ham, seed=seed),
            check_ladder_bounds(ham, seed=seed),
            check_double_commutator(ham.grid.rho.astype(complex), ham, seed=seed),
            check_weak_commutator(ham, quad.nodes[quad.num_nodes // 2], seed=seed),
        ]
        if params.n_max >= INEQUALITY_REACH:
            if fam.kappa > 0:
                suite.append(check_hbound(fam, ham, seed=seed))
            end = basis.grade_end(basis.n_max - INEQUALITY_REACH)
            psi = np.zeros(end, dtype=complex) if state is None else state.vector[:end]
            nrm = np.linalg.norm(psi)
            psi = psi / nrm if nrm > 0 else next(_interior_blocks(basis, INEQUALITY_REACH, 1, seed))[0]
            suite.append(check_phi3_bound(psi, fam, ham))
        return outcomes + [ccr()] + suite


@contextlib.contextmanager
def _beside(job):
    """Yield a call that returns ``job()``'s result, or raises its error, from a child forked
    to run it beside the ``with`` body; with one allowed CPU, or no current CPU to read, ``job``.
    Keep ``job`` to a quarter of the command's work or less: the command's wall time then
    holds while the child runs at a third of the command's speed or more, whatever else
    loads the child's CPU (README, "Processes")."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    try:  # the child keeps off the command's current CPU: left free, the scheduler often ran both there
        here = int(Path("/proc/thread-self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except OSError:  # no /proc, or Linux before 3.17: run the job here, as with one allowed CPU
        allowed = set()
    if len(allowed) < 2:
        yield job
        return
    receive, send = multiprocessing.Pipe(duplex=False)
    def answer():
        os.sched_setaffinity(0, allowed - {here})
        try:
            send.send((True, job()))
        except Exception as exc:
            send.send((False, exc))
    def result():
        try:
            ok, value = receive.recv()
        except EOFError:
            child.join()
            ok, value = False, Phi4LabError(f"check process exited with code {child.exitcode} before answering")
        if not ok:
            raise value
        return value
    child = multiprocessing.get_context("fork").Process(target=answer, daemon=True)
    child.start()
    send.close()
    try:
        yield result
    finally:
        child.terminate()
        child.join()
        receive.close()


# ---------------------------------------------------------------------------
# coupling sweep


@dataclass
class SweepRow:
    """One coupling point of the sweep; the fields before ``extras`` are the CSV columns.

    A column left unmeasured, as on a failed row, is NaN.
    """

    kappa: float
    e0: float = math.nan
    residual: float = math.nan
    c1_kappa: float = math.nan
    e_abs: float = math.nan
    e_over_kappa: float = math.nan
    rayleigh_bound: float = math.nan
    paper_bound: float = math.nan
    n_expect: float = math.nan
    c_eps_kappa: float = math.nan
    overlap: float = math.nan
    pullthrough_resid: float = math.nan
    top_grade_weight: float = math.nan
    extras: dict = field(default_factory=dict)
    failed: bool = False


SweepRow.CSV_FIELDS = tuple(f.name for f in fields(SweepRow))[:-2]


@dataclass
class SweepReport:
    """Sweep rows (descending kappa) plus the first-order-expansion verdicts."""

    rows: list[SweepRow]
    constants: TheoryConstants
    tail_ratios_decreasing: bool
    ratio_final_over_first: float
    quadratic_fit: float
    fit_over_a: float
    fit_within_factor3: bool
    degraded: bool
    failures: list[str] = field(default_factory=list)


def sweep_kappa(
    ham: HamiltonianSet, consts: TheoryConstants, params: ModelParams
) -> SweepReport:
    """Ground state plus the full check row for every coupling of ``params.kappa_list``.

    The list must be sorted strictly descending (zero allowed as reference
    point in last position).  A failing row marks the report degraded but
    does not abort the remaining rows.  The solver settings and the epsilon
    policy come from ``params``, as in ``check_state``.
    """
    kappas = [float(k) for k in params.kappa_list]
    if any(k < 0 for k in kappas):
        raise ConfigError("sweep couplings must be nonnegative")
    if any(a <= b for a, b in zip(kappas, kappas[1:])):
        raise ConfigError("sweep couplings must be sorted strictly descending")
    rows: list[SweepRow] = []
    failures: list[str] = []
    for kap in kappas:
        row = SweepRow(
            kap,
            c1_kappa=kap * consts.c1,
            rayleigh_bound=rayleigh_upper_bound(kap, consts),
            paper_bound=series_upper_bound(kap, consts),
        )
        try:
            rows.append(_sweep_row(ham, row, params))
        except Phi4LabError as exc:
            failures.append(f"kappa={kap!r}: {exc}")
            rows.append(replace(row, failed=True))
    positive = [r for r in rows if r.kappa > 0 and not r.failed]
    ratios = [r.e_over_kappa for r in positive]
    tail = ratios[-min(5, len(ratios)) :]
    tail_decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    ratio_final_over_first = (
        ratios[-1] / ratios[0] if len(ratios) >= 2 and ratios[0] > 0 else 0.0
    )
    if positive:
        karr = np.array([r.kappa for r in positive])
        earr = np.array([r.e_abs for r in positive])
        cfit = float(np.sum(karr**2 * earr) / np.sum(karr**4))
        fit_over_a = cfit / consts.a if consts.a > 0 else math.nan
        fit_ok = consts.a > 0 and (1.0 / 3.0) <= fit_over_a <= 3.0
    else:
        # nothing to fit: the expansion verdicts hold vacuously
        cfit = 0.0
        fit_over_a = math.nan
        fit_ok = True
    failures += [
        f"kappa={r.kappa!r}: {check['name']}"
        for r in rows
        for check in r.extras.get("checks", ())
        if check["status"] == "fail"
    ]
    degraded = bool(failures) or not tail_decreasing or not fit_ok
    return SweepReport(
        rows=rows,
        constants=consts,
        tail_ratios_decreasing=tail_decreasing,
        ratio_final_over_first=ratio_final_over_first,
        quadratic_fit=cfit,
        fit_over_a=fit_over_a,
        fit_within_factor3=fit_ok,
        degraded=degraded,
        failures=failures,
    )


def _sweep_row(ham: HamiltonianSet, row: SweepRow, params: ModelParams) -> SweepRow:
    """``row``, which holds its coupling's closed-form columns, with the measured ones filled in.

    ``extras`` keeps the records the row was judged by, as ``solve.json``
    writes them: ``ground_state`` (the ``SpectralResult`` without its vector)
    and ``checks`` (the ``check_state`` outcomes).
    """
    kap = row.kappa
    even = ham.even
    state = ground_state(
        even.hkappa(kap), even.dim, tol=params.eig_tol, max_iter=params.max_iter, seed=params.seed
    )
    state.vector = even.embed(state.vector)
    state.top_grade_weight = top_grade_weight(ham.basis, state.vector)
    fam, outcomes = check_state(state, kap, ham, params)
    measured = {o.name: o.measured for o in outcomes}
    e_abs = abs(state.e0 - row.c1_kappa)
    return replace(
        row,
        e0=state.e0,
        residual=state.residual,
        e_abs=e_abs,
        e_over_kappa=e_abs / kap if kap > 0 else 0.0,
        n_expect=measured["boson-number-bound"],
        c_eps_kappa=fam.c_number,
        overlap=measured["vacuum-overlap"],
        pullthrough_resid=max(m for name, m in measured.items() if name.startswith("pull-through")),
        top_grade_weight=state.top_grade_weight,
        extras={
            "epsilon_star": fam.epsilon,
            "ground_state": {key: v for key, v in vars(state).items() if key != "vector"},
            "checks": [vars(o) for o in outcomes],
        },
    )
