import math
from pathlib import Path

import numpy as np
import pytest

from oracles import DenseModel, rayleigh_quotient

from phi4lab import (
    CutoffSpec,
    EpsilonOutOfRange,
    OperatorHandle,
    TruncationTooSmall,
    build_grid,
    build_spatial_quadrature,
    enumerate_basis,
    epsilon_family,
    first_order_coefficient,
    ground_state,
    hbound_constants,
    optimize_epsilon,
    rayleigh_upper_bound,
    series_upper_bound,
)
from phi4lab.config import build_model, parse_config
from phi4lab.fock import apply_h0perp_inverse
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.theory import compute_constants, epsilon_upper_limit, perturbation_constants

from conftest import make_single_mode, make_two_mode

# golden regression values, generated once from the reference configuration
GOLDEN_SERIES_BOUND_AT_0P1 = 0.2366958073064853
GOLDEN_C_NUMBER_AT_0P05 = 13982.043733238454
GOLDEN_EPSILON_STAR_AT_0P05 = 0.01836461939840248


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def golden_section_epsilon(kappa, e0, grid, quad, rtol=1e-8):
    """Reference minimizer: golden-section search of the convex boson-number
    constant over the admissible interval (0, 1 / (c_bos kappa))."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    limit = epsilon_upper_limit(kappa, hbound_constants(grid, quad)[0])

    def cost(eps):
        return epsilon_family(eps, kappa, e0, grid, quad).c_number

    lo, hi = limit * 1e-12, limit * (1.0 - 1e-12)
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = cost(x1), cost(x2)
    while (hi - lo) > rtol * hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = cost(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = cost(x2)
    eps = x1 if f1 <= f2 else x2
    return eps, cost(eps)


def zero_chi_quad():
    return build_spatial_quadrature(
        1, CutoffSpec("tabulated", table=((0.0, 0.0), (1.0, 0.0))), 3
    )


class TestFirstOrderCoefficient:
    def test_unit_single_mode(self, single_mode_model):
        grid, quad, _, _ = single_mode_model
        assert first_order_coefficient(grid, quad) == pytest.approx(0.75, rel=1e-14)

    def test_zero_cutoff(self, single_mode_model):
        grid, _, _, _ = single_mode_model
        assert first_order_coefficient(grid, zero_chi_quad()) == 0.0

    def test_matches_matrix_element_two_modes(self):
        grid, quad, basis = make_two_mode(n_max=4, chib=0.9, nodes=7)
        val = np.vdot(basis.vacuum(), HamiltonianSet(basis, grid, quad).hi(basis.vacuum()))
        assert first_order_coefficient(grid, quad) == pytest.approx(val.real, rel=1e-12)

    def test_matches_matrix_element_reference(self, reference_model):
        grid, quad, basis, ham = reference_model
        val = np.vdot(basis.vacuum(), ham.hi(basis.vacuum()))
        assert first_order_coefficient(grid, quad) == pytest.approx(val.real, rel=1e-12)


class TestPerturbationConstants:
    def test_zero_cutoff_gives_zeros(self):
        grid, _, basis = make_single_mode(n_max=8)
        ham = HamiltonianSet(basis, grid, zero_chi_quad())
        assert perturbation_constants(ham) == (0.0, 0.0, 0.0)

    def test_requires_deep_truncation(self):
        grid, quad, _ = make_single_mode(n_max=6)
        basis = enumerate_basis(1, 6)
        with pytest.raises(TruncationTooSmall):
            perturbation_constants(HamiltonianSet(basis, grid, quad))

    def test_against_dense_single_mode(self):
        grid, quad, basis = make_single_mode(n_max=12)
        nu0, a, b = perturbation_constants(HamiltonianSet(basis, grid, quad))
        dense = DenseModel(grid, quad, 12)
        hi = dense.hi()
        h0 = dense.h0()
        vac = np.zeros(dense.dim, dtype=complex)
        vac[0] = 1.0
        w = hi @ vac
        wperp = w.copy()
        wperp[0] = 0.0
        esum = np.diag(h0).real
        r = np.zeros_like(wperp)
        r[1:] = wperp[1:] / esum[1:]
        assert nu0 == pytest.approx(float(np.vdot(r, r).real), rel=1e-10)
        assert a == pytest.approx(float(np.vdot(wperp, r).real), rel=1e-10)
        assert b == pytest.approx(float(np.vdot(r, hi @ r).real), rel=1e-10)

    def test_against_dense_two_modes(self):
        grid, quad, basis = make_two_mode(n_max=8, chib=0.8, nodes=5)
        nu0, a, b = perturbation_constants(HamiltonianSet(basis, grid, quad))
        dense = DenseModel(grid, quad, 8)
        hi = dense.hi()
        esum = np.diag(dense.h0()).real
        vac = np.zeros(dense.dim, dtype=complex)
        vac[0] = 1.0
        wperp = hi @ vac
        wperp[0] = 0.0
        r = np.zeros_like(wperp)
        r[1:] = wperp[1:] / esum[1:]
        assert nu0 == pytest.approx(float(np.vdot(r, r).real), rel=1e-10)
        assert a == pytest.approx(float(np.vdot(wperp, r).real), rel=1e-10)
        assert b == pytest.approx(float(np.vdot(r, hi @ r).real), rel=1e-10)

    def test_positive_quadratic_forms(self, reference_model):
        _, _, _, ham = reference_model
        nu0, a, b = perturbation_constants(ham)
        assert nu0 >= 0 and a >= 0 and b >= 0

    def test_applies_the_model_interaction_twice(self, reference_model):
        # w = HI vac and <r, HI r>, both through the set's own HI handle
        grid, quad, basis, ham = reference_model
        counted = HamiltonianSet(basis, grid, quad)
        calls = []
        hi = counted.hi
        counted.hi = OperatorHandle(apply=lambda v: calls.append(1) or hi(v), dim=basis.dim)
        assert perturbation_constants(counted) == perturbation_constants(ham)
        assert len(calls) == 2

    def test_invariant_under_mode_permutation(self):
        quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 5)
        modes = [[-2.0], [0.0], [2.0]]
        weights = [2.0, 2.0, 2.0]
        vals = []
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            grid = build_grid(
                1,
                1.0,
                modes=np.array([modes[i] for i in perm]),
                weights=np.array([weights[i] for i in perm]),
            )
            basis = enumerate_basis(3, 8)
            vals.append(perturbation_constants(HamiltonianSet(basis, grid, quad)))
        assert vals[0] == vals[1] == vals[2]


class TestUpperBounds:
    def test_zero_coupling(self, reference_model):
        _, _, _, ham = reference_model
        consts = compute_constants(ham)
        assert series_upper_bound(0.0, consts) == 0.0
        assert rayleigh_upper_bound(0.0, consts) == 0.0

    def test_series_leading_term(self, reference_model):
        _, _, _, ham = reference_model
        consts = compute_constants(ham)
        kappa = 1e-9
        lead = kappa * consts.c1 / (1.0 + consts.nu0)
        assert series_upper_bound(kappa, consts) == pytest.approx(lead, rel=1e-6)

    def test_series_golden_regression(self, reference_model):
        _, _, _, ham = reference_model
        consts = compute_constants(ham)
        assert series_upper_bound(0.1, consts) == pytest.approx(
            GOLDEN_SERIES_BOUND_AT_0P1, rel=1e-13
        )

    def test_rayleigh_equals_direct_quotient(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        w = ham.hi(basis.vacuum())
        r = apply_h0perp_inverse(ham.esum, w)
        for kappa in (0.01, 0.05, 0.1):
            trial = basis.vacuum() - kappa * r
            direct = rayleigh_quotient(ham.hkappa(kappa), trial)
            assert rayleigh_upper_bound(kappa, consts) == pytest.approx(direct, rel=1e-12)

    def test_rayleigh_is_true_upper_bound(self, reference_model):
        grid, quad, basis, ham = reference_model
        consts = compute_constants(ham)
        for kappa in (0.01, 0.05, 0.1):
            e0 = ground_state(ham.hkappa(kappa), basis.dim, tol=1e-11, seed=8).e0
            assert e0 <= rayleigh_upper_bound(kappa, consts) + 1e-10


class TestHboundConstants:
    def test_all_unity(self, single_mode_model):
        grid, quad, _, _ = single_mode_model
        c_bos, d_bos = hbound_constants(grid, quad)
        assert c_bos == pytest.approx(16.0, abs=1e-14)
        assert d_bos == pytest.approx(1.0, abs=1e-15)

    def test_zero_cutoff(self, single_mode_model):
        grid, _, _, _ = single_mode_model
        assert hbound_constants(grid, zero_chi_quad()) == (0.0, 0.0)

    def test_fourth_power_homogeneity(self):
        quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-0.5, 0.5)), 1)
        g1 = build_grid(
            1, 1.0, CutoffSpec("tabulated", table=((0.0, 1.0),)),
            modes=np.array([[0.0]]), weights=np.array([1.0]),
        )
        g2 = build_grid(
            1, 1.0, CutoffSpec("tabulated", table=((0.0, 2.0),)),
            modes=np.array([[0.0]]), weights=np.array([1.0]),
        )
        c1_, d1_ = hbound_constants(g1, quad)
        c2_, d2_ = hbound_constants(g2, quad)
        assert c2_ == pytest.approx(16.0 * c1_, rel=1e-14)
        assert d2_ == pytest.approx(16.0 * d1_, rel=1e-14)


class TestEpsilonFamily:
    def test_small_epsilon_limits(self, reference_model):
        grid, quad, basis, _ = reference_model
        fam = epsilon_family(1e-12, 0.05, 0.5, grid, quad)
        assert fam.mu > 1e6
        assert fam.lam == pytest.approx(1.0, rel=1e-9)

    def test_vanishing_coupling_limits(self, reference_model):
        # lambda -> 1, mu -> 0, c -> 0 linearly as the coupling vanishes
        grid, quad, basis, _ = reference_model
        eps = 1e-3
        c_bos, d_bos = hbound_constants(grid, quad)
        slope = 4.0 * d_bos + c_bos / (4.0 * eps)
        prev_c = math.inf
        for kappa in (1e-2, 1e-4, 1e-6, 1e-8):
            fam = epsilon_family(eps, kappa, 0.0, grid, quad)
            assert fam.c_number < prev_c
            prev_c = fam.c_number
        assert fam.lam == pytest.approx(1.0, rel=1e-8)
        assert fam.mu == pytest.approx(1e-8 * slope, rel=1e-6)
        assert fam.c_number < 1e-1

    def test_out_of_range(self, reference_model):
        grid, quad, basis, _ = reference_model
        c_bos, _ = hbound_constants(grid, quad)
        limit = 1.0 / (c_bos * 0.05)
        with pytest.raises(EpsilonOutOfRange):
            epsilon_family(limit * 1.01, 0.05, 0.5, grid, quad)
        with pytest.raises(EpsilonOutOfRange):
            epsilon_family(0.0, 0.05, 0.5, grid, quad)

    def test_lambda_at_least_one_mu_nonnegative(self, reference_model):
        grid, quad, basis, _ = reference_model
        fam = epsilon_family(1e-3, 0.1, 0.9, grid, quad)
        assert fam.lam >= 1.0
        assert fam.mu >= 0.0


class TestOptimizeEpsilon:
    def test_degenerate_interval(self, single_mode_model):
        grid, _, _, _ = single_mode_model
        quad = zero_chi_quad()
        choice = optimize_epsilon(0.1, 0.0, grid, quad)
        assert choice.epsilon == 1.0
        assert choice.c_number == 0.0

    def test_zero_coupling(self, reference_model):
        grid, quad, basis, _ = reference_model
        choice = optimize_epsilon(0.0, 0.0, grid, quad)
        assert choice.epsilon == 1.0
        assert choice.c_number == 0.0

    def test_grid_scan_never_beats_optimizer(self, reference_model):
        grid, quad, basis, ham = reference_model
        e0 = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-12, seed=7).e0
        choice = optimize_epsilon(0.05, e0, grid, quad)
        c_bos, _ = hbound_constants(grid, quad)
        limit = 1.0 / (c_bos * 0.05)
        eps_grid = np.linspace(limit * 1e-6, limit * (1 - 1e-9), 1000)
        best_scan = min(
            epsilon_family(e, 0.05, e0, grid, quad).c_number for e in eps_grid
        )
        assert choice.c_number <= best_scan * (1.0 + 1e-6)

    def test_golden_regression(self, reference_model):
        grid, quad, basis, ham = reference_model
        e0 = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-12, seed=7).e0
        choice = optimize_epsilon(0.05, e0, grid, quad)
        assert choice.epsilon == pytest.approx(GOLDEN_EPSILON_STAR_AT_0P05, rel=1e-6)
        assert choice.c_number == pytest.approx(GOLDEN_C_NUMBER_AT_0P05, rel=1e-9)

    @pytest.mark.parametrize("config", ["reference.ini", "weak_coupling.ini"])
    def test_closed_form_matches_golden_section(self, config):
        params = parse_config(CONFIG_DIR / config)
        grid, quad, _ = build_model(params)
        c1 = first_order_coefficient(grid, quad)
        for kappa in params.kappa_list:
            for e0 in (0.0, kappa * c1):
                choice = optimize_epsilon(kappa, e0, grid, quad)
                eps, c_value = golden_section_epsilon(kappa, e0, grid, quad)
                assert choice.c_number == pytest.approx(c_value, rel=1e-8)
                assert choice.c_number <= c_value * (1.0 + 1e-14)
                # the search compares costs on a flat minimum, so it resolves
                # epsilon only to about sqrt(machine epsilon)
                assert choice.epsilon == pytest.approx(eps, rel=1e-7)

    def test_halved_coupling_doubles_interval_and_reduces_c(self, reference_model):
        grid, quad, basis, ham = reference_model
        c_bos, _ = hbound_constants(grid, quad)
        e0a = ground_state(ham.hkappa(0.05), basis.dim, tol=1e-11, seed=7).e0
        e0b = ground_state(ham.hkappa(0.025), basis.dim, tol=1e-11, seed=7).e0
        from phi4lab.theory import epsilon_upper_limit

        assert epsilon_upper_limit(0.025, c_bos) == pytest.approx(
            2.0 * epsilon_upper_limit(0.05, c_bos)
        )
        ca = optimize_epsilon(0.05, e0a, grid, quad).c_number
        cb = optimize_epsilon(0.025, e0b, grid, quad).c_number
        assert cb < ca
