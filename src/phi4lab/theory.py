"""Closed-form constants and bounds evaluated from grid and quadrature data.

All continuum norms are realized as the discrete quadrature norms of the
``grid`` module; that is the unique choice consistent with the weighted
smearing convention of ``fock.apply_smeared``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsilonOutOfRange, TruncationTooSmall
from .fock import apply_h0perp_inverse
from .grid import ModeGrid, SpatialQuadrature, cutoff_norm
from .hamiltonian import HamiltonianSet

MIN_TRUNCATION_FOR_CUBIC = 8


@dataclass(frozen=True)
class TheoryConstants:
    """Every closed-form constant used by the bounds and the sweep.

    c1:     first-order energy coefficient <vac, HI vac>.
    nu0:    squared norm of the first-order state correction.
    a:      second-order energy coefficient (positive quadratic form).
    b:      cubic coefficient of the trial-state energy polynomial.
    c_bos, d_bos: constants of the H-bound, 16*L1*n0^2*n1^2 and L1*n0^2*nh^2
        built from the discrete cutoff norms n_p = ||chib/omega^p||.
    chi_l1: discrete L^1 mass of the spatial cutoff.
    """

    c1: float
    nu0: float
    a: float
    b: float
    c_bos: float
    d_bos: float
    chi_l1: float
    chib_norm: float
    chib_over_sqrt_omega: float
    chib_over_omega: float
    chib_over_omega32: float


def first_order_coefficient(grid: ModeGrid, quad: SpatialQuadrature) -> float:
    """Vacuum expectation of the interaction, in closed form.

    The vacuum fourth moment of a Segal field is 3/4 the fourth power of the
    smearing norm, which is x-independent (the spatial phase is unimodular),
    so the quadrature only contributes its chi-weighted mass.
    """
    rho_norm2 = float(np.sum(grid.weights * grid.rho**2))
    return quad.chi_l1 * 0.75 * rho_norm2**2


def perturbation_constants(ham: HamiltonianSet) -> tuple[float, float, float]:
    """(nu0, a, b) of the second-order trial state of the model ``ham``.

    With w = HI vac and r the reduced free resolvent applied to w (which
    ignores the vacuum entry of w, and vanishes there):  nu0 = ||r||^2,
    a = <w, r>, b = <r, HI r>.  Computing b exactly requires the interaction
    applied to a four-quantum vector, hence n_max >= MIN_TRUNCATION_FOR_CUBIC
    (8); smaller truncations are rejected rather than silently truncated.
    """
    basis = ham.basis
    if basis.n_max < MIN_TRUNCATION_FOR_CUBIC:
        raise TruncationTooSmall(
            f"cubic coefficient needs n_max >= {MIN_TRUNCATION_FOR_CUBIC}, got {basis.n_max}"
        )
    w = ham.hi(basis.vacuum())
    r = apply_h0perp_inverse(ham.esum, w)
    nu0 = float(np.real(np.vdot(r, r)))
    a = float(np.real(np.vdot(w, r)))
    b = float(np.real(np.vdot(r, ham.hi(r))))
    return nu0, a, b


def hbound_constants(grid: ModeGrid, quad: SpatialQuadrature) -> tuple[float, float]:
    """(c_bos, d_bos) = (16 L1 n0^2 n1^2, L1 n0^2 nh^2) from discrete norms."""
    l1 = quad.chi_l1
    n0 = cutoff_norm(grid, 0.0)
    nh = cutoff_norm(grid, 0.5)
    n1 = cutoff_norm(grid, 1.0)
    c_bos = 16.0 * l1 * n0**2 * n1**2
    d_bos = l1 * n0**2 * nh**2
    return c_bos, d_bos


def compute_constants(ham: HamiltonianSet) -> TheoryConstants:
    grid, quad = ham.grid, ham.quadrature
    nu0, a, b = perturbation_constants(ham)
    c_bos, d_bos = hbound_constants(grid, quad)
    return TheoryConstants(
        c1=first_order_coefficient(grid, quad),
        nu0=nu0,
        a=a,
        b=b,
        c_bos=c_bos,
        d_bos=d_bos,
        chi_l1=quad.chi_l1,
        chib_norm=cutoff_norm(grid, 0.0),
        chib_over_sqrt_omega=cutoff_norm(grid, 0.5),
        chib_over_omega=cutoff_norm(grid, 1.0),
        chib_over_omega32=cutoff_norm(grid, 1.5),
    )


def series_upper_bound(kappa: float, consts: TheoryConstants) -> float:
    """Energy polynomial with the kappa-independent prefactor 1/(1 + nu0).

    Reported alongside the certified Rayleigh form; the two agree at kappa = 1
    and to first order as kappa -> 0, but only the Rayleigh form is asserted
    as an inequality (see rayleigh_upper_bound).
    """
    return (consts.c1 * kappa - consts.a * kappa**2 + consts.b * kappa**3) / (1.0 + consts.nu0)


def rayleigh_upper_bound(kappa: float, consts: TheoryConstants) -> float:
    """Exact Rayleigh quotient of the second-order trial state.

    The trial state vac - kappa * r has squared norm 1 + kappa^2 nu0 and
    energy expectation c1 k - a k^2 + b k^3, so this is a certified
    variational upper bound on the ground energy for every kappa >= 0
    (within solver tolerance) whenever the cubic coefficient is exact.
    """
    return (consts.c1 * kappa - consts.a * kappa**2 + consts.b * kappa**3) / (
        1.0 + kappa**2 * consts.nu0
    )


@dataclass(frozen=True)
class EpsilonFamily:
    """lambda / mu / c constants at one admissible epsilon.

    lam = 1/(1 - c_bos eps kappa) and mu = kappa lam (4 d_bos + c_bos/(4 eps))
    control the H-bound; c_number = 8 n32^2 (lam E0^2 + mu + kappa^2/2 L1^2)
    bounds the ground-state boson number.
    """

    epsilon: float
    kappa: float
    lam: float
    mu: float
    c_number: float


def epsilon_upper_limit(kappa: float, c_bos: float) -> float:
    """Supremum of the admissible epsilon interval (inf if unconstrained)."""
    if c_bos <= 0.0 or kappa <= 0.0:
        return math.inf
    return 1.0 / (c_bos * kappa)


def epsilon_family(
    epsilon: float,
    kappa: float,
    e0: float,
    grid: ModeGrid,
    quad: SpatialQuadrature,
) -> EpsilonFamily:
    c_bos, d_bos = hbound_constants(grid, quad)
    limit = epsilon_upper_limit(kappa, c_bos)
    if not 0.0 < epsilon < limit:
        raise EpsilonOutOfRange(
            f"epsilon {epsilon} outside the admissible interval (0, {limit})"
        )
    lam = 1.0 / (1.0 - c_bos * epsilon * kappa)
    mu = kappa * lam * (4.0 * d_bos + c_bos / (4.0 * epsilon))
    n32 = cutoff_norm(grid, 1.5)
    c_number = 8.0 * n32**2 * (lam * e0**2 + mu + 0.5 * kappa**2 * quad.chi_l1**2)
    return EpsilonFamily(epsilon=epsilon, kappa=kappa, lam=lam, mu=mu, c_number=c_number)


def optimize_epsilon(
    kappa: float,
    e0: float,
    grid: ModeGrid,
    quad: SpatialQuadrature,
) -> EpsilonFamily:
    """Minimize the boson-number constant over the admissible epsilon interval.

    Up to a positive factor the epsilon-dependent part of the constant is
    (P + Q/eps) / (1 - R eps) with P = E0^2 + 4 d_bos k, Q = k c_bos / 4 and
    R = c_bos k.  Its minimizer on (0, 1/R) is the positive root of
    R P eps^2 + 2 Q R eps - Q = 0, written in the rationalized form
    Q / (Q R + sqrt(Q^2 R^2 + P Q R)), which stays accurate as P -> 0 (where
    it tends to 1/(2R)).  With c_bos = 0 or k = 0 the epsilon-dependent term
    vanishes and epsilon = 1 is taken.  Returns the family at that epsilon.
    """
    c_bos, d_bos = hbound_constants(grid, quad)
    eps = 1.0
    if math.isfinite(epsilon_upper_limit(kappa, c_bos)):
        p, q, r = e0**2 + 4.0 * d_bos * kappa, kappa * c_bos / 4.0, c_bos * kappa
        eps = q / (q * r + math.sqrt((q * r) ** 2 + p * q * r))
    return epsilon_family(eps, kappa, e0, grid, quad)
