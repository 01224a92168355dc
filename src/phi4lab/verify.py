"""Identity and inequality suites, and the coupling sweep.

Every check returns a CheckOutcome carrying the measured number, the
threshold it was held to, and enough context to reproduce the number.
Inequality checks report their slack; a violation beyond tolerance fails the
outcome with the offending numbers in the context.

Identities that are exact only without truncation are asserted on interior
vectors (see the fock module) and the grade reach used is stated with each
check.  Random test vectors are drawn with seeded standard complex normal
coefficients, projected to the stated interior grades, and normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EpsilonOutOfRange,
    Phi4LabError,
    SpectralConditionViolated,
)
from .fock import (
    FockBasis,
    apply_dgamma_omega,
    apply_h0perp_inverse,
    apply_mode_annihilation,
    apply_number,
    apply_smeared,
    project_vacuum,
)
from .grid import ModeGrid, SpatialQuadrature
from .hamiltonian import HamiltonianSet, field_powers
from .spectral import SpectralResult, ground_state, solve_shifted
from .theory import (
    TheoryConstants,
    EpsilonChoice,
    epsilon_family,
    epsilon_upper_limit,
    hbound_constants,
    optimize_epsilon,
    rayleigh_upper_bound,
    series_upper_bound,
)

_FLOOR = 1e-300
TOP_GRADE_REACH = 4
# relative size at which the interior truncation defect counts as roundoff
DEFECT_ROUNDOFF = 1e-12


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


def draw_interior_vectors(
    basis: FockBasis, reach: int, count: int, seed: int
) -> list[np.ndarray]:
    """Seeded complex-normal vectors projected to grades <= n_max - reach."""
    mask = basis.interior_mask(reach)
    if not mask.any():
        raise Phi4LabError(
            f"no interior states of reach {reach} at n_max={basis.n_max}"
        )
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v[~mask] = 0.0
        v /= np.linalg.norm(v)
        out.append(v)
    return out


def top_grade_weight(basis: FockBasis, v: np.ndarray, reach: int = TOP_GRADE_REACH) -> float:
    """Total squared weight of v in the top ``reach`` grades."""
    mask = basis.grades > basis.n_max - reach
    return float(np.sum(np.abs(v[mask]) ** 2))


def _rel(diff: float, scale: float) -> float:
    return diff / (scale + _FLOOR)


# ---------------------------------------------------------------------------
# algebraic identity suite


def check_ccr(
    basis: FockBasis,
    grid: ModeGrid,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Canonical commutation relations for smeared ladders on interior vectors.

    [a(f), a+(g)] acts as the weighted inner product (f, g); the same-species
    commutators vanish.  Asserted on grades <= n_max - 2.
    """
    rng = np.random.default_rng(seed)
    vectors = draw_interior_vectors(basis, 2, count, seed + 1)
    worst = 0.0
    for v in vectors:
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        g = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        pairing = np.sum(grid.weights * np.conj(f) * g)

        def a(fn, u):
            return apply_smeared(basis, grid, fn, u, "annihilate")

        def c(fn, u):
            return apply_smeared(basis, grid, fn, u, "create")

        mixed = a(f, c(g, v)) - c(g, a(f, v)) - pairing * v
        same_a = a(f, a(g, v)) - a(g, a(f, v))
        same_c = c(f, c(g, v)) - c(g, c(f, v))
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
    basis: FockBasis,
    grid: ModeGrid,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Commutators of smeared ladders and the Segal field with the free part.

    [a(f), H0] = a(omega f), [a+(f), H0] = -a+(omega f), and
    [phi(f), H0] = i phi(i omega f), asserted on grades <= n_max - 1.
    """
    rng = np.random.default_rng(seed)
    vectors = draw_interior_vectors(basis, 1, count, seed + 1)
    worst = 0.0
    for v in vectors:
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        wf = grid.omega * f

        def h0(u):
            return apply_dgamma_omega(basis, grid, u)

        def op(fn, u, which):
            return apply_smeared(basis, grid, fn, u, which)

        scale = np.linalg.norm(f) * max(1.0, grid.omega.max()) * np.linalg.norm(v)
        comm_a = op(f, h0(v), "annihilate") - h0(op(f, v, "annihilate")) - op(wf, v, "annihilate")
        comm_c = op(f, h0(v), "create") - h0(op(f, v, "create")) + op(wf, v, "create")
        comm_s = op(f, h0(v), "segal") - h0(op(f, v, "segal")) - 1j * op(1j * wf, v, "segal")
        worst = max(
            worst,
            _rel(np.linalg.norm(comm_a), scale),
            _rel(np.linalg.norm(comm_c), scale),
            _rel(np.linalg.norm(comm_s), scale),
        )
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome("free-commutators", status, worst, tol, {"count": count, "reach": 1})


def check_ladder_bounds(
    basis: FockBasis,
    grid: ModeGrid,
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v /= np.linalg.norm(v)
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        f_norm = math.sqrt(float(np.sum(grid.weights * np.abs(f) ** 2)))
        f_over = math.sqrt(float(np.sum(grid.weights * np.abs(f) ** 2 / grid.omega)))
        h0_half = math.sqrt(
            max(0.0, float(np.real(np.vdot(v, apply_dgamma_omega(basis, grid, v)))))
        )
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
    basis: FockBasis,
    grid: ModeGrid,
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
    f = np.asarray(f, dtype=complex)
    vectors = draw_interior_vectors(basis, 4, count, seed)
    f_omega = float(np.real(np.sum(grid.weights * np.conj(f) * grid.omega * f)))
    sqf2 = float(np.sum(grid.weights * grid.omega * np.abs(f) ** 2))
    f_over2 = float(np.sum(grid.weights * np.abs(f) ** 2 / grid.omega))
    f_norm2 = float(np.sum(grid.weights * np.abs(f) ** 2))

    def phi2(u):
        return apply_smeared(basis, grid, f, apply_smeared(basis, grid, f, u, "segal"), "segal")

    def h0(u):
        return apply_dgamma_omega(basis, grid, u)

    def inner_comm(u):
        return phi2(h0(u)) - h0(phi2(u))

    worst = 0.0
    bound_worst = 0.0
    for v in vectors:
        lhs = phi2(inner_comm(v)) - inner_comm(phi2(v))
        rhs = -4.0 * f_omega * phi2(v)
        worst = max(worst, _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs)))
        quad_form = abs(np.vdot(v, lhs))
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
    basis: FockBasis,
    grid: ModeGrid,
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
    rng = np.random.default_rng(seed)
    smear = grid.smearing_at(x)
    vectors = draw_interior_vectors(basis, 4, count, seed + 1)

    def phi(u):
        return apply_smeared(basis, grid, smear, u, "segal")

    worst = 0.0
    for v in vectors:
        u = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        u /= np.linalg.norm(u)
        f = rng.standard_normal(basis.num_modes) + 1j * rng.standard_normal(basis.num_modes)
        phi4u = phi(phi(phi(phi(u))))
        phi3v = phi(phi(phi(v)))
        phi4v = phi(phi3v)
        lhs = np.vdot(phi4u, apply_smeared(basis, grid, f, v, "annihilate")) - np.vdot(
            apply_smeared(basis, grid, f, u, "create"), phi4v
        )
        pairing = np.sum(grid.weights * np.conj(f) * smear)
        rhs = -2.0 * math.sqrt(2.0) * pairing * np.vdot(u, phi3v)
        scale = abs(lhs) + abs(rhs)
        worst = max(worst, _rel(abs(lhs - rhs), scale))
    status = "pass" if worst <= tol else "fail"
    return CheckOutcome(
        "weak-commutator-quartic", status, worst, tol, {"count": count, "reach": 4}
    )


# ---------------------------------------------------------------------------
# inequality suite


def check_hbound(
    kappa: float,
    epsilon: float,
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    ham: HamiltonianSet,
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Quadratic-form domination of the free and interaction parts.

    On interior vectors (grades <= n_max - 8):
      (1 - c_bos e k) ||H0 v||^2 + k^2 ||HI v||^2
          <= ||H(k) v||^2 + (4 d_bos + c_bos / 4e) k ||v||^2
    and the divided form with lambda, mu coefficients.
    """
    c_bos, d_bos = hbound_constants(grid, quad)
    limit = epsilon_upper_limit(kappa, c_bos)
    if not 0.0 < epsilon < limit:
        raise EpsilonOutOfRange(f"epsilon {epsilon} outside (0, {limit})")
    lam = 1.0 / (1.0 - c_bos * epsilon * kappa)
    mu = kappa * lam * (4.0 * d_bos + c_bos / (4.0 * epsilon))
    vectors = draw_interior_vectors(basis, 8, count, seed)
    min_slack = math.inf
    worst = -math.inf
    for v in vectors:
        h0v = ham.h0(v)
        hiv = ham.hi(v)
        hkv = h0v + kappa * hiv
        n_h0 = float(np.linalg.norm(h0v)) ** 2
        n_hik = kappa**2 * float(np.linalg.norm(hiv)) ** 2
        n_hk = float(np.linalg.norm(hkv)) ** 2
        n_v = float(np.linalg.norm(v)) ** 2
        lhs1 = (1.0 - c_bos * epsilon * kappa) * n_h0 + n_hik
        rhs1 = n_hk + (4.0 * d_bos + c_bos / (4.0 * epsilon)) * kappa * n_v
        lhs2 = n_h0 + n_hik
        rhs2 = lam * n_hk + mu * n_v
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
        {"count": count, "reach": 8, "min_slack": min_slack, "epsilon": epsilon, "kappa": kappa},
    )


def check_phi3_bound(
    psi: np.ndarray,
    kappa: float,
    epsilon: float,
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    ham: HamiltonianSet,
    tol: float = 1e-10,
) -> CheckOutcome:
    """Pointwise and integrated cubic-field overlap bounds.

    Pointwise, at every node pair:
      |<phi(x)^3 psi, phi(x')^3 psi>|
          <= Re <phi(x)^4 psi, phi(x')^4 psi> + 1/2 <psi, psi>.
    Integrated against the chi-weighted double quadrature:
      k^2 sum <= lambda ||H(k) psi||^2 + (mu + k^2/2 L1^2) ||psi||^2.
    psi must live in grades <= n_max - 8.
    """
    c_bos, _ = hbound_constants(grid, quad)
    limit = epsilon_upper_limit(kappa, c_bos)
    if not 0.0 < epsilon < limit:
        raise EpsilonOutOfRange(f"epsilon {epsilon} outside (0, {limit})")
    fam = epsilon_family(epsilon, kappa, 0.0, grid, quad)  # lam, mu only
    p3 = field_powers(basis, grid, ham.phases, psi, 3)
    p4 = field_powers(basis, grid, ham.phases, p3, 1)
    norm2 = float(np.real(np.vdot(psi, psi)))
    # node-pair Gram matrices <phi_j^p psi, phi_k^p psi>
    cross3 = np.abs(np.conj(p3) @ p3.T)
    cross4 = np.real(np.conj(p4) @ p4.T)
    slack = cross4 + 0.5 * norm2 - cross3
    point_worst = float(np.max(_rel(-slack, np.abs(cross4) + norm2 + 1.0), initial=-math.inf))
    integral = float(ham.coef @ cross3 @ ham.coef)
    lhs = kappa**2 * integral
    hk_psi = ham.hkappa(kappa)(psi)
    rhs = fam.lam * float(np.linalg.norm(hk_psi)) ** 2 + (
        fam.mu + 0.5 * kappa**2 * quad.chi_l1**2
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
            "epsilon": epsilon,
            "kappa": kappa,
        },
    )


def check_number_bound(
    state: SpectralResult,
    kappa: float,
    epsilon: float,
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    tol: float = 1e-10,
    cross_tol: float = 1e-12,
) -> CheckOutcome:
    """Ground-state boson number against its closed-form ceiling.

    Also cross-checks <v, N v> against the per-mode ladder sum
    sum_i ||a_i v||^2, which must agree to machine precision.
    """
    v = state.vector
    nb = float(np.real(np.vdot(v, apply_number(basis, v))))
    ladder_sum = 0.0
    for i in range(basis.num_modes):
        ladder_sum += float(np.linalg.norm(apply_mode_annihilation(basis, i, v))) ** 2
    cross_rel = _rel(abs(nb - ladder_sum), max(nb, 1.0))
    fam = epsilon_family(epsilon, kappa, state.e0, grid, quad)
    slack = fam.c_number - nb
    ok = slack >= -tol * max(1.0, fam.c_number) and cross_rel <= cross_tol
    return CheckOutcome(
        "boson-number-bound",
        "pass" if ok else "fail",
        nb,
        fam.c_number,
        {
            "slack": slack,
            "ladder_sum": ladder_sum,
            "crosscheck_rel": cross_rel,
            "epsilon": epsilon,
            "kappa": kappa,
        },
    )


def check_overlap(
    state: SpectralResult,
    basis: FockBasis,
    c_number: float | None = None,
    tol: float = 1e-12,
) -> CheckOutcome:
    """Vacuum overlap bounds from the boson number.

    |<vac, v>|^2 >= 1 - <v, N v> holds exactly on unit vectors; when a
    number ceiling c < 1 is supplied the stronger |<vac, v>| >= sqrt(1 - c)
    is asserted as well.
    """
    v = state.vector
    overlap = abs(v[0])
    nb = float(np.real(np.vdot(v, apply_number(basis, v))))
    slack = overlap**2 - (1.0 - nb)
    ok = slack >= -tol
    context = {"overlap": overlap, "number": nb, "slack": slack}
    if c_number is not None and 1.0 - c_number > 0.0:
        stronger = overlap - math.sqrt(1.0 - c_number)
        context["stronger_slack"] = stronger
        ok = ok and stronger >= -tol
    return CheckOutcome("vacuum-overlap", "pass" if ok else "fail", overlap, 1.0, context)


# ---------------------------------------------------------------------------
# resolvent identities on the computed ground state


def _phi3_source(ham: HamiltonianSet, v: np.ndarray) -> np.ndarray:
    """Rows c_j phi(x_j)^3 v over the active nodes, chi-weighted for reuse."""
    return ham.coef[:, None] * field_powers(ham.basis, ham.grid, ham.phases, v, 3)


def check_pull_through(
    state: SpectralResult,
    kappa: float,
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
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
    |[a_i, HI_N] psi / sqrt(w_i)|, and ``caveat_bound`` = unexplained +
    k |delta_i| / (omega_i |lhs|), which bounds ``measured`` because
    H_N - E0 >= 0 up to the squared eigen-residual.  A residual above ``tol``
    passes with a caveat only when the solver part is within ``tol`` and the
    defect is confined to the top grades (interior part at roundoff);
    otherwise the check fails.
    """
    v = state.vector
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
    sources = _phi3_source(ham, v)
    hk = ham.hkappa(kappa)
    hi_v = ham.hi(v)
    interior = basis.interior_mask(TOP_GRADE_REACH)
    for i in range(basis.num_modes):
        sqw = math.sqrt(grid.weights[i])
        omega = float(grid.omega[i])
        lhs = apply_mode_annihilation(basis, i, v) / sqw
        lhs_norm = float(np.linalg.norm(lhs))
        rhs_src = np.exp(-1j * (ham.nodes @ grid.modes[i])) @ sources
        y = solve_shifted(hk, grid.omega[i] - state.e0, rhs_src, tol=lin_tol, emin=state.e0)
        resid_vec = lhs + 2.0 * math.sqrt(2.0) * kappa * grid.rho[i] * y
        rel = _rel(np.linalg.norm(resid_vec), lhs_norm)
        commutator = apply_mode_annihilation(basis, i, hi_v) / sqw - ham.hi(lhs)
        defect = commutator - 2.0 * math.sqrt(2.0) * grid.rho[i] * rhs_src
        certificate = hk(resid_vec) + (omega - state.e0) * resid_vec + kappa * defect
        scale = omega * lhs_norm
        unexplained = _rel(float(np.linalg.norm(certificate)), scale)
        interior_defect = _rel(
            float(np.linalg.norm(defect[interior])), float(np.linalg.norm(commutator))
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
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    ham: HamiltonianSet,
    tol_energy: float = 1e-9,
    tol_vector: float = 1e-8,
) -> CheckOutcome:
    """Eigenprojection identities of the vacuum-normalized ground state.

    With t = v / <vac, v>:  e0 = k <vac, HI t> exactly (eigen-relation
    projected on the vacuum), and t = vac - k (H0perp - e0)^{-1} Pperp HI t.
    Requires e0 strictly below the reduced free spectrum min omega.
    """
    min_omega = float(grid.omega.min())
    if state.e0 >= min_omega:
        raise SpectralConditionViolated(
            f"ground energy {state.e0} not below the reduced free spectrum {min_omega}"
        )
    v = state.vector
    overlap = complex(v[0])
    if abs(overlap) < 1e-14:
        raise SpectralConditionViolated("vacuum overlap vanishes; normalization undefined")
    tilde = v / overlap
    hi_tilde = ham.hi(tilde)
    resid_energy = abs(state.e0 - kappa * complex(hi_tilde[0]))
    corr = apply_h0perp_inverse(
        basis, grid, project_vacuum(basis, hi_tilde, "P0perp"), shift=state.e0
    )
    resid_vector = float(np.linalg.norm(tilde - basis.vacuum() + kappa * corr))
    thr_energy = tol_energy * max(1.0, abs(state.e0))
    ok = resid_energy <= thr_energy and resid_vector <= tol_vector
    return CheckOutcome(
        "eigenprojection-identities",
        "pass" if ok else "fail",
        max(resid_energy / max(1.0, abs(state.e0)), resid_vector),
        max(tol_energy, tol_vector),
        {
            "energy_residual": resid_energy,
            "energy_threshold": thr_energy,
            "vector_residual": resid_vector,
            "vector_threshold": tol_vector,
            "tilde_norm": float(np.linalg.norm(tilde)),
            "kappa": kappa,
        },
    )


# ---------------------------------------------------------------------------
# coupling sweep


@dataclass
class SweepRow:
    """One coupling point of the sweep; field order matches the CSV columns."""

    kappa: float
    e0: float
    residual: float
    c1_kappa: float
    e_abs: float
    e_over_kappa: float
    rayleigh_bound: float
    paper_bound: float
    n_expect: float
    c_eps_kappa: float
    overlap: float
    pullthrough_resid: float
    top_grade_weight: float
    extras: dict = field(default_factory=dict)
    failed: bool = False

    CSV_FIELDS = (
        "kappa",
        "e0",
        "residual",
        "c1_kappa",
        "e_abs",
        "e_over_kappa",
        "rayleigh_bound",
        "paper_bound",
        "n_expect",
        "c_eps_kappa",
        "overlap",
        "pullthrough_resid",
        "top_grade_weight",
    )


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
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    ham: HamiltonianSet,
    consts: TheoryConstants,
    kappa_list,
    *,
    eig_tol: float = 1e-10,
    lin_tol: float = 1e-12,
    max_iter: int = 20_000,
    seed: int = 0,
    pull_tol: float = 1e-6,
    epsilon_policy: str | float = "optimized",
) -> SweepReport:
    """Ground state plus the full check row for every coupling in the list.

    kappa_list must be sorted strictly descending (zero allowed as reference
    point in last position).  A failing row marks the report degraded but
    does not abort the remaining rows.
    """
    kappas = [float(k) for k in kappa_list]
    if any(k < 0 for k in kappas):
        raise ConfigError("sweep couplings must be nonnegative")
    if any(a <= b for a, b in zip(kappas, kappas[1:])):
        raise ConfigError("sweep couplings must be sorted strictly descending")
    rows: list[SweepRow] = []
    failures: list[str] = []
    for kap in kappas:
        try:
            rows.append(
                _sweep_row(
                    basis,
                    grid,
                    quad,
                    ham,
                    consts,
                    kap,
                    eig_tol=eig_tol,
                    lin_tol=lin_tol,
                    max_iter=max_iter,
                    seed=seed,
                    pull_tol=pull_tol,
                    epsilon_policy=epsilon_policy,
                )
            )
        except Phi4LabError as exc:
            failures.append(f"kappa={kap!r}: {exc}")
            rows.append(
                SweepRow(
                    kappa=kap,
                    e0=math.nan,
                    residual=math.nan,
                    c1_kappa=kap * consts.c1,
                    e_abs=math.nan,
                    e_over_kappa=math.nan,
                    rayleigh_bound=rayleigh_upper_bound(kap, consts),
                    paper_bound=series_upper_bound(kap, consts),
                    n_expect=math.nan,
                    c_eps_kappa=math.nan,
                    overlap=math.nan,
                    pullthrough_resid=math.nan,
                    top_grade_weight=math.nan,
                    failed=True,
                )
            )
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
    row_check_failures = [
        f"kappa={r.kappa!r}: {name}"
        for r in rows
        for name, ok in r.extras.get("check_status", {}).items()
        if not ok
    ]
    failures.extend(row_check_failures)
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


def _sweep_row(
    basis: FockBasis,
    grid: ModeGrid,
    quad: SpatialQuadrature,
    ham: HamiltonianSet,
    consts: TheoryConstants,
    kap: float,
    *,
    eig_tol: float,
    lin_tol: float,
    max_iter: int,
    seed: int,
    pull_tol: float,
    epsilon_policy: str | float,
) -> SweepRow:
    state = ground_state(ham.hkappa(kap), basis.dim, tol=eig_tol, max_iter=max_iter, seed=seed)
    state.kappa = kap
    state.top_grade_weight = top_grade_weight(basis, state.vector)
    nb = float(np.real(np.vdot(state.vector, apply_number(basis, state.vector))))
    if epsilon_policy == "optimized":
        choice = optimize_epsilon(kap, state.e0, grid, quad)
    else:
        eps = float(epsilon_policy)
        choice = EpsilonChoice(eps, epsilon_family(eps, kap, state.e0, grid, quad).c_number)
    pt_outcomes = check_pull_through(
        state, kap, basis, grid, quad, ham, tol=pull_tol, lin_tol=lin_tol
    )
    pull_resid = max(o.measured for o in pt_outcomes)
    number_outcome = check_number_bound(state, kap, choice.epsilon, basis, grid, quad)
    overlap_outcome = check_overlap(state, basis, c_number=choice.c_value)
    extras = {
        "epsilon_star": choice.epsilon,
        "iterations": state.iterations,
        "gap_estimate": state.gap_estimate,
        "near_degenerate": state.near_degenerate,
        "pull_through": [
            {"name": o.name, "status": o.status, "measured": o.measured, "caveat": o.caveat}
            for o in pt_outcomes
        ],
        "check_status": {
            "pull-through": all(o.status == "pass" for o in pt_outcomes),
            "boson-number-bound": number_outcome.passed,
            "vacuum-overlap": overlap_outcome.passed,
        },
    }
    min_omega = float(grid.omega.min())
    if state.e0 < min_omega:
        arai = check_arai_identities(state, kap, basis, grid, quad, ham)
        extras["arai"] = arai.context
        extras["check_status"]["eigenprojection-identities"] = arai.passed
    else:
        extras["arai"] = {"skipped": f"e0 {state.e0} >= min omega {min_omega}"}
    e_abs = abs(state.e0 - kap * consts.c1)
    return SweepRow(
        kappa=kap,
        e0=state.e0,
        residual=state.residual,
        c1_kappa=kap * consts.c1,
        e_abs=e_abs,
        e_over_kappa=e_abs / kap if kap > 0 else 0.0,
        rayleigh_bound=rayleigh_upper_bound(kap, consts),
        paper_bound=series_upper_bound(kap, consts),
        n_expect=nb,
        c_eps_kappa=choice.c_value,
        overlap=abs(state.vector[0]),
        pullthrough_resid=pull_resid,
        top_grade_weight=state.top_grade_weight,
        extras=extras,
    )
